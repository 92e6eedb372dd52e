"""Exact floor-power sequence membership and prime sieving.

The ambient sequence is ``{floor(n^c) : n >= 1}`` for a rational exponent
``c = p/q`` in ``(1, 2)``.  All membership decisions are exact: they reduce
to integer comparisons ``r^b <= n^a`` carried out in arbitrary precision,
so no floating-point rounding can misclassify a boundary case.

The sequence primes are found from the primes, not from the sequence:
an odd-only segmented sieve yields the primes p <= x, and p belongs to
the sequence exactly when floor(n^c) = p for n = floor(p^(1/c)) + 1 (see
:func:`ps_prime_segments` for why the +1 is exact).  Every floor power, the
members of :func:`ps_members` and both floors of that test, comes from
:func:`_floor_powers`: a float64 seed that is recomputed exactly wherever
an integer lies within its certified error bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

import numpy as np

# sharpest range in which the sequence-prime counting asymptotic is known
KNOWN_ASYMPTOTIC_SUP = Fraction(2817, 2426)

SIEVE_SEGMENT = 1 << 20
# below this x, floor powers are seeded in float64 and certified
FLOAT_MEMBER_LIMIT = 1 << 52


def floor_root_power(n: int, a: int, b: int) -> int:
    """Exact floor(n^(a/b)): the unique r >= 0 with r^b <= n^a < (r+1)^b.

    Seeded with a floating estimate from logs, then corrected by exact
    integer comparisons; n^a never touches floating point.
    """
    if a <= 0 or b <= 0:
        raise ValueError("exponents a, b must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in (0, 1):
        return n
    na = n ** a
    if b == 1:
        return na
    # integer Newton iteration from a power-of-two overestimate
    r = 1 << -(-na.bit_length() // b)
    while True:
        nxt = ((b - 1) * r + na // r ** (b - 1)) // b
        if nxt >= r:
            break
        r = nxt
    while r ** b > na:
        r -= 1
    while (r + 1) ** b <= na:
        r += 1
    return r


def ceil_root_power(n: int, a: int, b: int) -> int:
    """Exact ceil(n^(a/b))."""
    r = floor_root_power(n, a, b)
    return r if r ** b == n ** a else r + 1


def exact_powers(elems, d: int, weight: int = 1, shift: int = 0) -> np.ndarray:
    """e^d for each element e: int64 when weight * max|e|^d + shift < 2^63
    (``weight`` and ``shift`` bound the caller's sums of the powers), else
    exact Python ints in an object array, as for elements past int64."""
    try:
        base = np.asarray(elems, dtype=np.int64)
    except OverflowError:
        return np.array(elems, dtype=object) ** d
    top = max(-int(base.min()), int(base.max())) if len(base) else 0
    if weight * top ** d + shift < 2 ** 63:
        return base ** d
    return base.astype(object) ** d


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing a zero denominator as bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class PSExponent:
    """Rational exponent p/q with 1 < p/q < 2 and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")
        if not (self.q < self.p < 2 * self.q):
            raise ValueError(f"{self.p}/{self.q} is not in (1, 2)")

    @classmethod
    def parse(cls, text: str) -> "PSExponent":
        frac = parse_rational(text)
        return cls(frac.numerator, frac.denominator)

    @property
    def c(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def ps_members(x: int, c: PSExponent) -> List[int]:
    """All members floor(n^c) <= x, in increasing order (exact).

    They are floor(n^c) for n = 1 .. n_max, where n_max =
    ceil((x+1)^(1/c)) - 1 is the last n with n^c < x + 1; c > 1 makes
    them strictly increasing.  They come from :func:`_floor_powers` on
    arange(1, n_max + 1) with exponent a/b = c.
    """
    if x < 1:
        return []
    n = np.arange(1, ceil_root_power(x + 1, c.q, c.p), dtype=np.int64)
    return _floor_powers(n, c.p, c.q, x).tolist()


def _floor_powers(v: np.ndarray, a: int, b: int, x: int) -> np.ndarray:
    """floor(v^(a/b)) for an increasing int64 array v >= 1, as int64.

    x is the caller's bound on the sequence and sets the path: from x =
    FLOAT_MEMBER_LIMIT = 2^52 on (where float64 stops holding every
    integer) each value is :func:`floor_root_power`.  Below it the values
    are seeded as y = v ** (a/b) in float64.  With e = a/b, the float
    exponent is e(1 + delta) with |delta| <= 2^-53, which moves v^e by a
    relative e*ln(v)*2^-53 (to first order; the rest is below 2^-100),
    and pow adds at most one ulp, 2^-52 relative; so |y - v^e| <=
    (e*ln(v) + 2) * 2^-53 * y.  floor(y) is kept wherever no integer lies
    within tol = 8 * (e*ln(v) + 2) * 2^-53 * y of y, eight times that
    bound (so a pow off by a few ulps is still covered); every other v is
    recomputed with :func:`floor_root_power`.
    """
    if x >= FLOAT_MEMBER_LIMIT:
        return np.array([floor_root_power(int(k), a, b) for k in v],
                        dtype=np.int64)
    if len(v) == 0:
        return np.empty(0, dtype=np.int64)
    vf = v.astype(float)
    e = a / b
    y = vf ** e
    out = y.astype(np.int64)  # y >= 1, so truncation is floor
    gap = np.rint(y)
    gap -= y
    np.abs(gap, out=gap)

    def tol(i):
        return 8 * (e * np.log(vf[i]) + 2) * 2.0 ** -53 * y[i]

    # tol grows with v, so twice the last one (against rounding) bounds
    # them all; only the few v inside that bound need their own
    near = np.flatnonzero(gap <= 2 * tol(-1))
    for i in near[gap[near] <= tol(near)].tolist():
        out[i] = floor_root_power(int(v[i]), a, b)
    return out


def _sieve_segments(x: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    """(lo, end, primes) for consecutive segments [lo, end) covering
    [0, x], x >= 2: primes are those of the segment, an increasing int64
    array.

    The base primes, those <= isqrt(x), are sieved whole; every odd
    segment after them spans at most 2 * SIEVE_SEGMENT integers, held as
    one flag per odd number, and is crossed off by the odd base primes
    (Bays and Hudson's segmented sieve).  The first segment yielded is
    [0, end) of the first odd segment: the base primes followed by that
    segment's, so below x of about 2 * SIEVE_SEGMENT the sieve makes one
    pass.  With f the segment's first odd number, f + 2i is a multiple of
    p when i = (-f) * 2^-1 mod p, and 2^-1 = (p + 1) / 2 mod p.  When x <
    4 there is no base prime and the first segment, [0, x + 1), holds 2.
    """
    root = math.isqrt(x)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = False
    small = np.flatnonzero(base)
    odd = small[1:].tolist()
    start = 0
    lo = root + 1
    while lo <= x:
        end = min(lo + 2 * SIEVE_SEGMENT, x + 1)
        first = lo | 1  # first odd number of the segment
        seg = np.ones((end - first + 1) // 2, dtype=bool)
        for p in odd:
            seg[(-first) % p * ((p + 1) // 2) % p :: p] = False
        primes = np.flatnonzero(seg) * 2 + first
        if start == 0:
            primes = np.concatenate((small if root > 1 else [2], primes))
        yield start, end, primes
        start = lo = end


def sieve_primes(x: int) -> np.ndarray:
    """All primes <= x by a segmented sieve (int64 array, increasing)."""
    if x < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([primes for _, _, primes in _sieve_segments(x)])


@dataclass(frozen=True)
class PSPrimeSet:
    """Sequence primes up to x for a fixed rational exponent."""

    x: int
    c: PSExponent
    members: np.ndarray  # sorted primes

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CountReport:
    x: int
    count: int
    ratio: float


def ps_prime_segments(x: int, c: PSExponent) -> Iterator[np.ndarray]:
    """The sequence primes <= x, one increasing int64 array per segment
    of :func:`_sieve_segments`, so past one segment's primes nothing is
    held.

    Each prime p of the sieve is tested on its own: with n =
    floor(p^(1/c)) + 1, p is a member exactly when floor(n^c) = p.  The
    members in [p, p + 1) are floor(n^c) for the n with p^(1/c) <= n <
    (p + 1)^(1/c), and floor(n^c) is strictly increasing, so the only
    candidate is the least integer n >= p^(1/c).  That is floor(p^(1/c))
    + 1 because p^(1/c) is never an integer: with c = P/Q in lowest terms
    and P > Q >= 1, p^Q = m^P has no solution with p prime.  Both floors
    come from :func:`_floor_powers`, one segment at a time.
    """
    if x < 2:
        return
    for _, _, primes in _sieve_segments(x):
        n = _floor_powers(primes, c.q, c.p, x) + 1
        yield primes[_floor_powers(n, c.p, c.q, x) == primes]


def ps_primes(x: int, c: PSExponent) -> PSPrimeSet:
    """Sorted primes <= x belonging to the floor-power sequence: the
    segments of :func:`ps_prime_segments`, concatenated."""
    members = [np.empty(0, dtype=np.int64), *ps_prime_segments(x, c)]
    return PSPrimeSet(x=x, c=c, members=np.concatenate(members))


def pnt_ratio(x: int, c: PSExponent) -> CountReport:
    """Counting ratio |P^c ∩ [x]| * log(x) / x^(1/c); tends to 1.

    Warns when c is outside the range where the asymptotic is proven.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if c.c >= KNOWN_ASYMPTOTIC_SUP:
        warnings.warn(
            f"c = {c} is outside (1, {KNOWN_ASYMPTOTIC_SUP}); the counting "
            "asymptotic is not known there",
            stacklevel=2,
        )
    count = len(ps_primes(x, c))
    ratio = count * math.log(x) / x ** (c.q / c.p)
    return CountReport(x=x, count=count, ratio=ratio)

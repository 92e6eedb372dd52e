"""Exact floor-power sequence membership and prime sieving.

The ambient sequence is ``{floor(n^c) : n >= 1}`` for a rational exponent
``c = p/q`` in ``(1, 2)``.  All membership decisions are exact: they reduce
to integer comparisons ``r^b <= n^a`` carried out in arbitrary precision,
so no floating-point rounding can misclassify a boundary case.
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
# below this x, members floor(n^c) are seeded in float64 and certified
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
    them strictly increasing.  They come from :func:`_members`.
    """
    if x < 1:
        return []
    return _members(1, ceil_root_power(x + 1, c.q, c.p) - 1, c, x).tolist()


def _members(n_lo: int, n_hi: int, c: PSExponent, x: int) -> np.ndarray:
    """floor(n^c) for n_lo <= n <= n_hi, all at most x, as int64: by the
    certified float64 seed of :func:`_seeded_members` below x =
    FLOAT_MEMBER_LIMIT = 2^52, by exact integer roots from there on (where
    float64 stops holding every integer)."""
    if x < FLOAT_MEMBER_LIMIT:
        return _seeded_members(n_lo, n_hi, c)
    return np.array([floor_root_power(n, c.p, c.q)
                     for n in range(n_lo, n_hi + 1)], dtype=np.int64)


def _seeded_members(n_lo: int, n_hi: int, c: PSExponent) -> np.ndarray:
    """floor(n^c) for n_lo <= n <= n_hi as an int64 array, for n_lo >= 1
    and n_hi^c < 2^52.

    The arrays are of length n_hi - n_lo + 1 only: :func:`ps_primes` asks
    for the n of one sieve segment at a time, so its memory is bounded by
    the segment, not by x^(1/c).  The values are seeded as y = n ** (p/q)
    in float64.  The float exponent p/q is c(1 + delta) with |delta| <=
    2^-53, which moves n^c by a relative c*ln(n)*2^-53 (to first order; the
    rest is below 2^-100), and pow adds at most one ulp, 2^-52 relative;
    so |y - n^c| <= (c*ln(n) + 2) * 2^-53 * y.  floor(y) is kept wherever
    no integer lies within tol = 8 * (c*ln(n) + 2) * 2^-53 * y of y, eight
    times that bound (so a pow off by a few ulps is still covered); every
    other n is recomputed with :func:`floor_root_power`.
    """
    if n_lo > n_hi:
        return np.empty(0, dtype=np.int64)
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    cf = c.p / c.q
    y = n ** cf
    members = y.astype(np.int64)  # y >= 1, so truncation is floor
    gap = np.rint(y)
    gap -= y
    np.abs(gap, out=gap)

    def tol(i):
        return 8 * (cf * np.log(n[i]) + 2) * 2.0 ** -53 * y[i]

    # tol grows with n, so twice the last one (against rounding) bounds
    # them all; only the few n inside that bound need their own
    near = np.flatnonzero(gap <= 2 * tol(-1))
    for i in near[gap[near] <= tol(near)].tolist():
        members[i] = floor_root_power(n_lo + i, c.p, c.q)
    return members


def _sieve_segments(x: int) -> Iterator[Tuple[int, np.ndarray]]:
    """(lo, seg) for consecutive segments covering [0, x], x >= 2: seg[i]
    says whether lo + i is prime.

    The first segment is [0, isqrt(x)], sieved whole; the rest hold at
    most SIEVE_SEGMENT numbers each and are crossed off by the primes of
    the first (Bays and Hudson's segmented sieve).
    """
    root = math.isqrt(x)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = False
    yield 0, base
    small = np.flatnonzero(base).tolist()
    lo = root + 1
    while lo <= x:
        seg = np.ones(min(SIEVE_SEGMENT, x + 1 - lo), dtype=bool)
        for p in small:
            seg[-lo % p :: p] = False
        yield lo, seg
        lo += len(seg)


def sieve_primes(x: int) -> np.ndarray:
    """All primes <= x by a segmented sieve (int64 array, increasing)."""
    if x < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.flatnonzero(seg).astype(np.int64) + lo
                           for lo, seg in _sieve_segments(x)])


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


def ps_primes(x: int, c: PSExponent) -> PSPrimeSet:
    """Sorted primes <= x belonging to the floor-power sequence.

    The sequence runs through the sieve's segments: for a segment [lo, hi)
    the members are floor(n^c) for ceil(lo^(1/c)) <= n < ceil(hi^(1/c)),
    from :func:`_members` as in :func:`ps_members`, and a member m is kept
    when seg[m - lo] marks it prime.  Past the output itself, memory is
    bounded by one segment: no array over all n <= x^(1/c) or all primes
    <= x is built.
    """
    if x < 2:
        return PSPrimeSet(x=x, c=c, members=np.empty(0, dtype=np.int64))
    out = []
    n_lo = 1
    for lo, seg in _sieve_segments(x):
        # first n with floor(n^c) >= lo + len(seg)
        n_hi = ceil_root_power(lo + len(seg), c.q, c.p)
        mem = _members(n_lo, n_hi - 1, c, x)
        out.append(mem[seg[mem - lo]])
        n_lo = n_hi
    return PSPrimeSet(x=x, c=c, members=np.concatenate(out))


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

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
from typing import List

import numpy as np

# sharpest range in which the sequence-prime counting asymptotic is known
KNOWN_ASYMPTOTIC_SUP = Fraction(2817, 2426)

SIEVE_SEGMENT = 1 << 20
# below this x, ps_members seeds floor(n^c) in float64 and certifies it
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
        frac = Fraction(text)
        return cls(frac.numerator, frac.denominator)

    @property
    def c(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def is_ps_member(m: int, c: PSExponent) -> bool:
    """Exact membership of m in {floor(n^c)}.

    Uses the floor-difference indicator: m is a member iff
    floor(-m^(1/c)) - floor(-(m+1)^(1/c)) = 1, and with
    floor(-t) = -ceil(t) this is ceil((m+1)^(q/p)) - ceil(m^(q/p)) = 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return ceil_root_power(m + 1, c.q, c.p) - ceil_root_power(m, c.q, c.p) == 1


def ps_members(x: int, c: PSExponent) -> List[int]:
    """All members floor(n^c) <= x, in increasing order (exact).

    They are floor(n^c) for n = 1 .. n_max, where n_max =
    ceil((x+1)^(1/c)) - 1 is the last n with n^c < x + 1; c > 1 makes
    them strictly increasing.  Below x = 2^52 they come from the certified
    float64 seed of :func:`_seeded_members`; from there on (where float64
    stops holding every integer) from the exact loop over n.
    """
    if x < 1:
        return []
    if x < FLOAT_MEMBER_LIMIT:
        return _seeded_members(x, c).tolist()
    members = []
    n = 1
    while True:
        m = floor_root_power(n, c.p, c.q)
        if m > x:
            break
        members.append(m)
        n += 1
    return members


def _seeded_members(x: int, c: PSExponent) -> np.ndarray:
    """ps_members(x, c) as an int64 array, for 1 <= x < 2^52.

    n_max is exact (:func:`ceil_root_power`).  For n <= n_max the values
    are seeded as y = n ** (p/q) in float64.  The float exponent p/q is
    c(1 + delta) with |delta| <= 2^-53, which moves n^c by a relative
    c*ln(n)*2^-53 (to first order; the rest is below 2^-100), and pow adds
    at most one ulp, 2^-52 relative; so |y - n^c| <= (c*ln(n) + 2) *
    2^-53 * y.  floor(y) is kept wherever no integer lies within
    tol = 8 * (c*ln(n) + 2) * 2^-53 * y of y, eight times that bound (so
    a pow off by a few ulps is still covered); every other n is
    recomputed with :func:`floor_root_power`.
    """
    n_max = ceil_root_power(x + 1, c.q, c.p) - 1
    n = np.arange(1, n_max + 1, dtype=float)
    cf = c.p / c.q
    y = n ** cf
    tol = 8 * (cf * np.log(n) + 2) * 2.0 ** -53 * y
    members = np.floor(y).astype(np.int64)
    for i in np.flatnonzero(np.abs(y - np.rint(y)) <= tol).tolist():
        members[i] = floor_root_power(i + 1, c.p, c.q)
    return members


def sieve_primes(x: int) -> np.ndarray:
    """All primes <= x by a segmented sieve (int64 array, increasing)."""
    if x < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(x)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = False
    small = np.nonzero(base)[0].astype(np.int64)
    out = [small]
    lo = root + 1
    while lo <= x:
        hi = min(lo + SIEVE_SEGMENT, x + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in small:
            start = ((lo + p - 1) // p) * p
            seg[start - lo :: p] = False
        out.append(np.nonzero(seg)[0].astype(np.int64) + lo)
        lo = hi
    return np.concatenate(out)


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
    """Sorted primes <= x belonging to the floor-power sequence."""
    if x < 2:
        return PSPrimeSet(x=x, c=c, members=np.empty(0, dtype=np.int64))
    if x < FLOAT_MEMBER_LIMIT:
        mem = _seeded_members(x, c)
    else:
        mem = np.array(ps_members(x, c), dtype=np.int64)
    primes = sieve_primes(x)
    # both arrays are strictly increasing
    both = np.intersect1d(mem, primes, assume_unique=True)
    return PSPrimeSet(x=x, c=c, members=both)


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

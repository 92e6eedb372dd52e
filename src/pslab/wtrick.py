"""Small-modulus residue trick: the prime majorant and the smooth weight mu.

The modulus is ``W = 4*d^3 * prod(p <= w)`` with ``w = (1/2) log log x``,
so at desk scale the prime product is usually empty and a "toy" override
is provided to exercise a nontrivial W.  A residue ``b`` is admissible when
``-b`` is a d-th power of a unit mod W; restricting to one admissible class
and rescaling by ``n = (m^d + b)/W`` produces sparse weights on ``[N]``
with ``N = floor(x^d/W) + 1``.

Units, sigma(b) and admissible residues read one table of z^d mod W
(``_power_table``, built once per (W, d)), and so does mu, through the
roots of z^d = -b mod W.  Every majorant comes from one weight pass,
:class:`ClassTally`, which takes each prime's class from its own p^d mod
WM: a pipeline cell feeds it one sieve segment at a time
(:func:`fold_majorant`), and :func:`choose_majorant` and
:func:`build_majorant` feed it a whole set A and slice the chosen
class's weights.  p^e and log p are ``np.power`` and ``np.log`` on the
int64 primes (cast to float64 in numpy's ufunc buffers), each element
on its own, so a prime's weight has the same bits alone, at any offset
of any array and in any subset.  numpy may use SIMD kernels (AVX-512
where the CPU has it) that differ from libm's ``**`` and ``math.log`` in
the last bit on some inputs, so the last digits of weights, masses and
majorant files can differ between machines or numpy builds, never
between runs or slices on one of them.

The majorant and mu are sparse weights (:class:`SparseWeight`): sorted
position and value arrays, which the transforms, the structured sum and
the CLI read as built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from .ps_core import PSExponent, exact_powers
from .residues import residue


class UndefinedWError(ValueError):
    """x too small for w = (1/2) log log x to make sense."""


class InadmissibleResidueError(ValueError):
    """-b is not a d-th power of a unit mod W."""


class EmptyResidueSetError(ValueError):
    """No admissible residue exists for this (W, d)."""


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


@dataclass(frozen=True)
class WParams:
    d: int
    W: int
    N: int
    toy: bool = False


def w_params(x: int, d: int, toy_w: Optional[int] = None) -> WParams:
    """Modulus W = 4d^3 * prod(p <= w) and window size N = floor(x^d/W)+1.

    ``toy_w`` overrides W directly (the prime product is empty below
    astronomically large x, so this is how experiments exercise larger
    moduli); the default follows the definition exactly.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if x < 16:
        raise UndefinedWError(f"x must be >= 16 so log log x > 0, got {x}")
    w = 0.5 * math.log(math.log(x))
    if toy_w is not None:
        if toy_w < 2:
            raise ValueError(f"toy W must be >= 2, got {toy_w}")
        W = toy_w
        toy = True
    else:
        W = 4 * d ** 3
        p = 2
        while p <= w:
            if all(p % r for r in range(2, math.isqrt(p) + 1)):
                W *= p
            p += 1
        toy = False
    return WParams(d=d, W=W, N=x ** d // W + 1, toy=toy)


@functools.lru_cache(maxsize=8)
def _power_table(W: int, d: int) -> np.ndarray:
    """z^d mod W for z in [0, W), as int64; z = W would repeat z = 0.

    Built once per (W, d) and shared by every caller, so it is read-only;
    the tables of the last eight (W, d) pairs are kept.
    """
    table = _powers_mod(np.arange(W, dtype=np.int64), d, W)
    table.setflags(write=False)
    return table


def _powers_mod(z: np.ndarray, d: int, W: int) -> np.ndarray:
    """z^d mod W for an int64 array z in [0, W), by repeated squaring with
    every product reduced mod W: exact in int64 while (W - 1)^2 < 2^63;
    past that, one Python ``pow`` per z."""
    if (W - 1) ** 2 >= 2 ** 63:
        return np.array([pow(int(k), d, W) for k in z], dtype=np.int64)
    out, base = None, z
    while d:
        if d & 1:
            out = base if out is None else residue(out * base, W)
        d >>= 1
        if d:
            base = residue(base * base, W)
    return np.full(len(z), 1 % W, dtype=np.int64) if out is None else out


def dth_power_units(W: int, d: int) -> Set[int]:
    """{z^d mod W : gcd(z, W) = 1}."""
    if W < 2:
        raise ValueError(f"W must be >= 2, got {W}")
    return set(_power_table(W, d)[np.gcd(np.arange(W), W) == 1].tolist())


def power_counts(W: int, d: int) -> Dict[int, int]:
    """Multiplicity of each residue r as a d-th power: |{z in [W]: z^d = r}|."""
    counts = np.bincount(_power_table(W, d), minlength=W)
    return {r: int(n) for r, n in enumerate(counts) if n}


def sigma(b: int, W: int, d: int) -> int:
    """|{z in [W] : z^d = -b mod W}| by direct enumeration."""
    if not (1 <= b <= W):
        raise ValueError(f"b must lie in [1, {W}], got {b}")
    return int(np.count_nonzero(_power_table(W, d) == (-b) % W))


def admissible_residues(W: int, d: int) -> List[int]:
    """All b in [W] with -b a d-th power of a unit mod W, increasing."""
    return sorted(W - r for r in dth_power_units(W, d))


@dataclass(eq=False)
class SparseWeight:
    """Nonnegative weight ``values[i]`` at ``positions[i]`` in [N].

    The positions are strictly increasing (ValueError otherwise), stored
    as int64 while they fit and as exact Python ints (an object array)
    once one reaches 2^63; the values are float64.  Every reader takes
    these two arrays as they are; the mass adds the values in order.
    """

    N: int
    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        try:
            self.positions = np.asarray(self.positions, dtype=np.int64)
        except OverflowError:
            self.positions = np.array(self.positions, dtype=object)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values differ in length")
        if np.any(self.positions[1:] <= self.positions[:-1]):
            raise ValueError("positions must be strictly increasing")

    @property
    def weights(self) -> Mapping[int, float]:
        """Read-only {position: value} view.  pslab reads the arrays;
        only perfbench's exact-fold reference reads this view."""
        return MappingProxyType(dict(zip(self.positions.tolist(),
                                         self.values.tolist())))

    def mass(self) -> float:
        return float(sum(self.values.tolist()))

    def folded(self, M: int) -> np.ndarray:
        """The values summed by position mod M (M bins, each in position
        order), the residues taken on the positions as stored, so exact
        for every position."""
        residues = (self.positions % M).astype(np.int64, copy=False)
        return np.bincount(residues, weights=self.values, minlength=M)

    def power_sum(self, s: int) -> float:
        """sum of value^s in position order, each a Python float power."""
        return sum(map(pow, self.values.tolist(), itertools.repeat(s)), 0.0)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(eq=False)
class Majorant(SparseWeight):
    """Prime-power majorant on [N] with its provenance metadata."""

    params: Optional[WParams] = None
    b: int = 0
    sigma_b: int = 0
    c: Optional[PSExponent] = None


@dataclass(eq=False)
class FoldedMajorant:
    """The chosen class b of a :class:`ClassTally`, read as a weight is:
    its majorant's weights summed by n mod M (``fold``), mass and sum of
    nu^s; prime_count counts every prime tallied, in any class."""

    N: int
    b: int
    sigma_b: int
    prime_count: int
    s: int
    fold: np.ndarray
    total: float
    powers: float

    def mass(self) -> float:
        return self.total

    def folded(self, M: int) -> np.ndarray:
        if M != len(self.fold):
            raise ValueError(f"folded mod {len(self.fold)}, not mod {M}")
        return self.fold

    def power_sum(self, s: int) -> float:
        if s != self.s:
            raise ValueError(f"tallied nu^{self.s}, not nu^{s}")
        return self.powers


class ClassTally:
    """Per admissible class b: the fold mod M of its majorant's weights
    (a row of M bins; the rows take 8 * |admissible b| * M bytes), their
    mass, their sum of nu^s and the class's prime count, over increasing
    arrays of sequence primes added one at a time, such as sieve segments.

    The weight rule: p in the admissible class b = W - (p^d mod W) weighs
    (norm * p^(d-1/c)) * log p at n = (p^d + b)/W, with norm =
    c*phi(W)/(sigma(b)*W) and d - 1/c formed once per tally.  One p^d mod
    WM per prime (:func:`_powers_mod`) gives b and the bin n mod M =
    ((p^d + b) mod WM)/W; no position is formed.  ``np.add.at`` adds each
    weight into its class's sums in input order, as a loop's ``+=`` would,
    so every sum has the same bits however the primes are cut.  nu^s is
    ``np.power``, inf without a warning past the float range, where mass^s
    overflows too (nu(n) <= mass).  Two identities raise RuntimeError when
    they fail: the sigma(b) of the admissible b sum to phi(W), and the
    class counts plus the primes dividing W (in no admissible class)
    count every prime added.
    """

    def __init__(self, params: WParams, c: PSExponent, M: int, s: int):
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        W, d = params.W, params.d
        self.params, self.M, self.s = params, M, s
        self.adm = np.array(admissible_residues(W, d), dtype=np.int64)
        self.sig = np.bincount(_power_table(W, d), minlength=W)[W - self.adm]
        if self.sig.sum() != totient(W):
            raise RuntimeError(f"sigma(b) over the admissible b sums to "
                               f"{self.sig.sum()}, not phi({W})")
        self.slot = np.full(W + 1, -1, dtype=np.int64)
        self.slot[self.adm] = np.arange(len(self.adm))
        cf = c.p / c.q
        self.norm = cf * totient(W) / (self.sig * W)
        self.exponent = d - 1.0 / cf
        self.rows = np.zeros(len(self.adm) * M)
        self.mass, self.powers = np.zeros((2, len(self.adm)))
        self.counts = np.zeros(len(self.adm), dtype=np.int64)
        self.primes = self.divisors = 0

    def add(self, A: Sequence[int]
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tally A; returns (p, b, weight) for each p of A whose class b is
        admissible, in the order of A."""
        W, M = self.params.W, self.M
        elems = np.asarray(A, dtype=np.int64)
        power = _powers_mod(residue(elems, W * M), self.params.d, W * M)
        classes = W - residue(power, W)
        slot = self.slot[classes]
        keep = slot >= 0  # slot -1 would index the last class
        primes, classes, slot = elems[keep], classes[keep], slot[keep]
        weights = (self.norm[slot] * np.power(primes, self.exponent)
                   * np.log(primes))
        n = residue(power[keep] + classes, W * M)
        np.add.at(self.rows, slot * M + n // W, weights)
        np.add.at(self.mass, slot, weights)
        with np.errstate(over="ignore"):
            np.add.at(self.powers, slot, weights ** self.s)
        self.counts += np.bincount(slot, minlength=len(self.adm))
        self.primes += len(elems)
        self.divisors += int(np.count_nonzero(W % elems[elems <= W] == 0))
        return primes, classes, weights

    def choose(self) -> FoldedMajorant:
        """The admissible b of maximal mass (smallest b on ties)."""
        if self.counts.sum() + self.divisors != self.primes:
            raise RuntimeError(
                f"{self.counts.sum()} primes in admissible classes and "
                f"{self.divisors} dividing W, not the {self.primes} added")
        b = _best_residue(dict(zip(self.adm.tolist(), self.mass.tolist())),
                          self.params.W)
        i, M = self.slot[b], self.M
        return FoldedMajorant(self.params.N, b, int(self.sig[i]), self.primes,
                              self.s, self.rows[i * M:(i + 1) * M],
                              float(self.mass[i]), float(self.powers[i]))


def fold_majorant(segments: Iterable[np.ndarray], params: WParams,
                  c: PSExponent, M: int, s: int) -> FoldedMajorant:
    """The chosen class of a :class:`ClassTally` of the segments."""
    tally = ClassTally(params, c, M, s)
    for primes in segments:
        tally.add(primes)
    return tally.choose()


def _majorant(A: Sequence[int], params: WParams, c: PSExponent,
              b: Optional[int]) -> Majorant:
    """The Majorant of class b of A, or of the tally's choice when b is
    None: A is tallied as one segment (:class:`ClassTally`, M = 1), each
    prime weighed once, and the class's weights are a slice, with
    weight[i] at n = (p^d + b)/W."""
    W, d = params.W, params.d
    tally = ClassTally(params, c, 1, 1)
    primes, classes, weights = tally.add(A)
    b = tally.choose().b if b is None else b
    chosen = classes == b
    positions = (exact_powers(primes[chosen], d, shift=b) + b) // W
    return Majorant(params.N, positions, weights[chosen], params=params,
                    b=b, sigma_b=sigma(b, W, d), c=c)


def build_majorant(A: Sequence[int], b: int, params: WParams,
                   c: PSExponent) -> Majorant:
    """The majorant of the admissible class b of A, weighed by the rule of
    :class:`ClassTally`; A must be an increasing subset of the sequence
    primes up to x, so the positions increase with it."""
    if sigma(b, params.W, params.d) == 0:
        raise InadmissibleResidueError(
            f"b = {b} has no d-th root of -b mod {params.W}")
    return _majorant(A, params, c, b)


def _best_residue(masses: Dict[int, float], W: int) -> int:
    """Admissible b of maximal mass (smallest b on ties), checked against
    the pigeonhole floor."""
    if not masses:
        raise EmptyResidueSetError(f"no admissible residue mod {W}")
    best = min(masses, key=lambda b: (-masses[b], b))
    # max >= mean holds exactly; the product and the correctly rounded
    # fsum each carry relative error <= 2^-53, so 1e-12 covers rounding
    floor = math.fsum(masses.values())
    if masses[best] * len(masses) < floor * (1 - 1e-12):
        raise RuntimeError(f"chosen mass {masses[best]} below the "
                           f"pigeonhole floor {floor / len(masses)}")
    return best


def choose_majorant(A: Sequence[int], params: WParams,
                    c: PSExponent) -> Majorant:
    """The majorant of the admissible class of maximal mass, whose
    weights and mass equal ``build_majorant`` of that b bit for bit."""
    return _majorant(A, params, c, None)


def choose_b(A: Sequence[int], params: WParams,
             c: PSExponent) -> Tuple[int, float]:
    """(b, mass) of :func:`choose_majorant`: the admissible b of maximal
    majorant mass (smallest b on ties), which meets the pigeonhole floor."""
    nu = choose_majorant(A, params, c)
    return nu.b, nu.mass()


def build_mu(x: int, d: int, b: int, params: WParams) -> SparseWeight:
    """Smooth comparison weight m^(d-1)/sigma(b) on W*n - b = m^d, m <= x:
    the m are the sigma(b) roots of z^d = -b mod W plus multiples of W, and
    m^(d-1) is int64 only below 2^53, where float64 holds it exactly, so
    the one division rounds as Python's int / int does."""
    W = params.W
    sig = sigma(b, W, d)
    if sig == 0:
        raise InadmissibleResidueError(f"b = {b} has no d-th root of -b mod {W}")
    roots = np.flatnonzero(_power_table(W, d) == (-b) % W)
    ms = (np.arange(x // W + 1)[:, None] * W + roots).ravel()
    ms = ms[(ms >= 1) & (ms <= x)]
    # W divides m^d + b here, so the positions increase with m
    return SparseWeight(params.N, (exact_powers(ms, d, shift=b) + b) // W,
                        exact_powers(ms, d - 1, 2 ** 10) / sig)

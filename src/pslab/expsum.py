"""Exponential sums, sawtooth machinery, FFT torus grids, arc decomposition.

Phase conventions: e(t) = exp(2*pi*i*t) and the transform of a weight f on
the integers is f_hat(alpha) = sum_n f(n) e(alpha*n).  Phases are reduced
mod 1 before exponentiation, exactly (integer arithmetic on alpha as an
exact rational, a float as its binary value), because the raw product
alpha*n^d overflows double-precision phase accuracy already at desk scale.
On the torus grid {j/M} no phase is formed at all: the transform is the
M-point FFT of the weights folded by the integer n mod M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import exponents
from .diophantine import _equal_sum_count
from .ps_core import exact_powers
from .wtrick import SparseWeight

TorusLike = Union[float, Fraction]


class AliasingError(ValueError):
    """Grid too small to resolve the trigonometric polynomial exactly."""


class CountRefusedError(MemoryError):
    """Generic mean-value count would walk more tuples than the budget."""


def weyl_sum(x: int, d: int, alpha: TorusLike) -> complex:
    """sum_{n <= x} e(alpha * n^d) with exactly reduced phases.

    alpha may be a float (its binary value is used exactly) or a Fraction;
    alpha = a/q gives the phase (a * (n^d mod q) mod q)/q
    (:func:`_reduced_phases`); the terms are added in order of n, 2^16 n
    at a time, so memory stays flat at any x.
    """
    if x < 0 or d < 0:
        raise ValueError(f"need x >= 0 and d >= 0, got x={x}, d={d}")
    total = 0j
    for lo in range(1, x + 1, 1 << 16):
        ns = np.arange(lo, min(lo + (1 << 16), x + 1))
        phases = _reduced_phases(alpha, exact_powers(ns, d))
        total = sum(np.exp(2j * np.pi * phases).tolist(), total)
    return total


# --- sawtooth -------------------------------------------------------------

def psi(t):
    """Sawtooth t - floor(t) - 1/2 (vectorised)."""
    t = np.asarray(t, dtype=float)
    out = t - np.floor(t) - 0.5
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PsiApprox:
    """Odd trigonometric approximant of the sawtooth plus error majorant.

    psi*(t) = -sum_{h=1}^{H} a[h-1] * sin(2 pi h t) / (pi h) and
    |psi - psi*|(t) <= b[0] + 2 * sum_{h=1}^{H} b[h] * cos(2 pi h t)
    pointwise; coefficient bounds |a_h/( pi h)| <= C_a/h, b_h <= C_b/H.
    """

    H: int
    a: np.ndarray  # tapered numerators, index h-1
    b: np.ndarray  # majorant cosine coefficients, index h (b[0] constant term)
    C_a: float
    C_b: float


def vaaler_approx(H: int) -> PsiApprox:
    """Tapered-series sawtooth approximant with a nonnegative error majorant.

    The taper V(t) = pi*t*(1-t)*cot(pi*t) + t applied at t = h/(H+1) keeps
    the coefficients within the 1/h envelope of the plain series while the
    pointwise error is dominated by the order-H Fejer kernel divided by
    2H+2 (a nonnegative trigonometric polynomial, so the domination can be
    checked sample by sample).
    """
    if H < 2:
        raise ValueError(f"H must be >= 2, got {H}")
    hs = np.arange(1, H + 1)
    t = hs / (H + 1)
    taper = np.pi * t * (1 - t) / np.tan(np.pi * t) + t
    b = np.empty(H + 1)
    b[0] = 1.0 / (2 * H + 2)
    b[1:] = (1 - hs / (H + 1)) / (2 * H + 2)
    return PsiApprox(H=H, a=taper, b=b,
                     C_a=float(np.max(np.abs(taper)) / math.pi),
                     C_b=float((H) * np.max(b)))


def eval_psi_star(approx: PsiApprox, t) -> np.ndarray:
    """Evaluate the trigonometric approximant (vectorised over t)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hs = np.arange(1, approx.H + 1)
    phases = 2 * np.pi * np.outer(t, hs)
    return -np.sin(phases) @ (approx.a / (np.pi * hs))


def eval_error_majorant(approx: PsiApprox, t) -> np.ndarray:
    """Evaluate the pointwise error majorant (vectorised over t)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hs = np.arange(1, approx.H + 1)
    phases = 2 * np.pi * np.outer(t, hs)
    return approx.b[0] + 2 * (np.cos(phases) @ approx.b[1:])


@dataclass(frozen=True)
class PsiErrorStats:
    """Grid statistics of |psi - psi*| against the majorant."""

    H: int
    mean_error: float       # the 1/H-scaling statistic
    bound_holds: bool       # max(error - majorant) <= 1e-9


def psi_error_stats(approx: PsiApprox, grid_size: int = 100_000) -> PsiErrorStats:
    """Check the majorant on an offset grid and record error statistics.

    The grid (i + 1/2)/G avoids the exact jump points where psi is
    discontinuous; the maximum error still saturates near 1/2 at the grid
    points closest to the jumps, so mean_error is the statistic that
    exhibits the 1/H law.
    """
    t = (np.arange(grid_size) + 0.5) / grid_size
    err = np.abs(psi(t) - eval_psi_star(approx, t))
    maj = eval_error_majorant(approx, t)
    violation = float(np.max(err - maj))
    return PsiErrorStats(H=approx.H, mean_error=float(err.mean()),
                         bound_holds=violation <= 1e-9)


# --- torus grids ----------------------------------------------------------

@dataclass
class FourierGrid:
    """Transform samples values[j] = f_hat(j/M) on the M-point torus grid."""

    M: int
    N: int
    values: np.ndarray  # complex128, length M
    mass: float         # sum of the weight = values[0] up to fft noise


def fourier_grid(f, M: int) -> FourierGrid:
    """f_hat on the grid {j/M}, j < M, from the exact fold (:func:`_fold`).

    f is a :class:`~pslab.wtrick.SparseWeight`, folded here, or the
    :class:`~pslab.wtrick.FoldedMajorant` of a pipeline cell, folded mod
    M while its primes were sieved; the mass is f's own, summed in
    position order.  Any M >= 1 is allowed.  For M < N distinct
    positions share a residue, so the grid is thinner than the support:
    every sample is still exact, but means over the grid
    (:func:`restriction_moment_sampled`) do not resolve the continuous
    moments over the torus.
    """
    return FourierGrid(M=M, N=f.N, values=_fold(f, M), mass=f.mass())


def _fold(weight, M: int) -> np.ndarray:
    """Exact f_hat(j/M) for j < M: the M-point FFT of the folded weights.

    e(jn/M) depends only on n mod M, so the weights are summed by the
    residue n mod M (``weight.folded(M)``, exact for every position) and
    transformed once.  The only rounding is the FFT's own.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return np.fft.ifft(weight.folded(M)) * M  # ifft: the e(+jn/M) convention


def sparse_transform(weight: SparseWeight,
                     alphas: Sequence[TorusLike]) -> np.ndarray:
    """f_hat(alpha) for a sparse weight at arbitrary torus points.

    Each point is read exactly as num/den = Fraction(alpha), a float as
    its binary value, and each phase alpha*n mod 1 is reduced in integer
    arithmetic, as in :func:`weyl_sum`: with 0 <= num < den, the residue
    num*(n mod den) mod den is formed in int64 while den <= 2^53 (residue
    and den are exact doubles) and num*(den - 1) < 2^63, and in Python
    integers otherwise, as are the residues of positions at or above 2^63.
    Only residue/den rounds, once, so every phase is within 2^-52 cycles.
    One pass over the positions per point.  It serves off-grid points
    (:func:`classify_arc`); on a grid {j/M}, :func:`fourier_grid` folds
    exactly for any M and is much faster.
    """
    pos, vals = weight.positions, weight.values
    return np.array([np.exp(2j * np.pi * _reduced_phases(alpha, pos)) @ vals
                     for alpha in alphas], dtype=complex)


def _reduced_phases(alpha: TorusLike, pos: np.ndarray) -> np.ndarray:
    """frac(alpha * n) for each position n, alpha read exactly."""
    num, den = (Fraction(alpha) % 1).as_integer_ratio()
    fits = den <= 2 ** 53 and num * (den - 1) < 2 ** 63
    ns = pos if fits else pos.astype(object)
    return ((num * (ns % den)) % den / den).astype(float, copy=False)


def fourier_decay_sampled(grid: FourierGrid) -> float:
    """Grid sup of |nu_hat - 1_[N]_hat| / N on {j/M}, a lower bound on the sup.

    1_[N]_hat is an exact fold, as in :func:`_fold`: with N = qM + r the
    q full periods add 0 at every j != 0, so the FFT of the r unit weights
    folded at 1..r gives every entry but entry 0, which is exactly N.  The
    only rounding is the FFT's own.  M < N only thins the grid (see
    :func:`fourier_grid`).
    """
    N, M = grid.N, grid.M
    folded = np.zeros(M)
    folded[1:N % M + 1] = 1.0
    ref = np.fft.ifft(folded) * M
    ref[0] = N
    return float(np.max(np.abs(grid.values - ref)) / N)


def restriction_moment_sampled(grid: FourierGrid,
                               u: float) -> Tuple[float, float]:
    """Quadrature (1/M) sum_j |f_hat(j/M)|^u and its normalised ratio.

    The ratio divides by mass^u / N, the scale the restriction bound
    compares against.  For M < N the mean over the grid does not resolve
    the continuous moment over the torus (see :func:`fourier_grid`).
    """
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
    moment = float(np.mean(np.abs(grid.values) ** u))
    scale = grid.mass ** u / grid.N if grid.mass > 0 else float("inf")
    return moment, moment / scale


# --- mean values ----------------------------------------------------------

MEAN_VALUE_BUDGET = 1 << 22  # refusal threshold on x^(S/2), see below


def mean_value_count(x: int, d: int, S: int) -> int:
    """Exact count of S-tuples in [x]^S with equal half-sums of d-th powers.

    #{(m_1..m_S): m_1^d+..+m_{S/2}^d = m_{S/2+1}^d+..+m_S^d}, the sum over
    v of r(v)^2 where r(v) counts the (S/2)-tuples whose powers sum to v.
    S = 2 is the diagonal, x, except at d = 0, where every power is 1 and
    every pair counts: x^2.  Every other S is the solution count of the
    system (1^{S/2}, (-1)^{S/2}) over [x], by the solution count's kernel
    ``diophantine._equal_sum_count``: it walks the half-sums in value
    windows of at most ``diophantine.JOIN_CHUNK`` entries and adds the
    squared multiplicities of each, tallied by a bincount where the window
    is narrower than twice its sum count and by a sort elsewhere.  The
    half-sum form has an equal pair of coefficients, so r(v) = 2u(v) + e(v)
    with u counting the half-sums whose last two indices have j > i and e
    those with j = i: only the u sums are built in the windows (about half
    of them), and the x^(S/2-1) e sums are sorted once.  Memory stays
    O(JOIN_CHUNK + x^(S/2-1)) entries for every x: the prefixes, the e sums
    and one window, built into one reused buffer at 4 bytes per sparse
    sum.  A fresh process peaks at 35-38 MB (VmHWM, numpy included) at
    x = 10^4 and 2*10^4, and tests pin x = 6000 below 42 MB.  Sums are
    int64 when S*x^d < 2^63 (``ps_core.exact_powers``), exact Python ints
    otherwise.

    CountRefusedError is raised when x^(S/2) > MEAN_VALUE_BUDGET, except
    at S = 4 with 2x^d < 2^62, which is never refused and has no work
    budget: its time grows as x^2 log x, 0.57-0.78 s at x = 10^4 and
    2.2-3.0 s at 2*10^4 in fresh processes on a 2-vCPU host
    (``bench/kernel.py``).
    """
    if S % 2 != 0 or S < 2:
        raise ValueError(f"S must be even and >= 2, got {S}")
    if x < 1 or d < 0:
        raise ValueError(f"need x >= 1 and d >= 0, got x={x}, d={d}")
    if S == 2:
        return x if d else x * x
    half = S // 2
    uncapped = half == 2 and 2 * x ** d < 2 ** 62
    if not uncapped and x ** half > MEAN_VALUE_BUDGET:
        raise CountRefusedError(
            f"{x}^{half} half-sum tuples exceed the budget {MEAN_VALUE_BUDGET}")
    powers = exact_powers(np.arange(1, x + 1), d, S)
    return _equal_sum_count(powers, [1] * half, [1] * half)


def mean_value_count_naive(x: int, d: int, S: int) -> int:
    """Full S-fold enumeration oracle (tiny x only)."""
    import itertools

    half = S // 2
    total = 0
    lhs: dict = {}
    for combo in itertools.product(range(1, x + 1), repeat=half):
        key = sum(m ** d for m in combo)
        lhs[key] = lhs.get(key, 0) + 1
    for combo in itertools.product(range(1, x + 1), repeat=half):
        total += lhs.get(sum(m ** d for m in combo), 0)
    return total


def weyl_power_grid(x: int, d: int, M: int) -> np.ndarray:
    """Grid samples of the degree-d Weyl sum: W(j/M) = sum_{n<=x} e(j n^d / M).

    The fold (:func:`_fold`) of the counts of n^d mod M, the only part of
    n^d that e(j n^d / M) depends on, taken as in :func:`_fold`.
    """
    powers = exact_powers(np.arange(1, x + 1), d)
    counts = np.bincount((powers % M).astype(np.int64, copy=False),
                         minlength=M)
    residues = np.flatnonzero(counts)
    return _fold(SparseWeight(M, residues, counts[residues]), M)


def quadrature_vs_count(x: int, d: int, S: int, M: int) -> Tuple[float, int]:
    """Grid quadrature of |Weyl sum|^S against the exact tuple count.

    Needs M > S*x^d so every frequency of the degree-S trig polynomial is
    resolved; the two results then agree to rounding.
    """
    if S % 2 != 0:
        raise ValueError(f"S must be even, got {S}")
    if M <= S * x ** d:
        raise AliasingError(f"M = {M} must exceed S*x^d = {S * x ** d}")
    count = mean_value_count(x, d, S)  # refuses d < 0 before the grid
    grid = weyl_power_grid(x, d, M)
    return float(np.mean(np.abs(grid) ** S)), count


# --- arcs -----------------------------------------------------------------

def dirichlet_approx(alpha: TorusLike, Q: int) -> Tuple[int, int]:
    """Best rational a/q with q <= Q and |alpha - a/q| <= 1/(qQ), gcd(a,q)=1.

    The final continued-fraction convergent with denominator <= Q.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    frac = Fraction(alpha)
    p_prev, q_prev, p_cur, q_cur = 1, 0, math.floor(frac), 1
    rem = frac - p_cur
    while rem:
        a, rem = divmod(1 / rem, 1)
        p_nxt, q_nxt = a * p_cur + p_prev, a * q_cur + q_prev
        if q_nxt > Q:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    return p_cur, q_cur  # a convergent is in lowest terms


@dataclass(frozen=True)
class ArcLabel:
    """Classification of a torus point by the smooth-weight witness."""

    kind: str                     # "major" or "minor"
    witness: float                # |mu_hat(alpha)|
    threshold: float              # x^(d - rho(d)/2)
    a: Optional[int] = None
    q: Optional[int] = None
    envelope: Optional[float] = None


def classify_arc(alpha: TorusLike, mu: SparseWeight, x: int, d: int,
                 Q: int = 1000) -> ArcLabel:
    """Label alpha minor when |mu_hat(alpha)| <= x^(d - rho(d)/2), else major.

    alpha is read exactly (:func:`sparse_transform`); Q < 1 is refused
    before the transform.  Major points get the rational witness (a, q)
    from the convergent with q <= Q and the envelope
    N * log(x) * q^(-1/d) * (1 + N|alpha - a/q|)^(-1/d), |alpha - a/q| exact.
    At desk scale the threshold exceeds mu's whole mass, so every point,
    even alpha = 0, is minor: mass/threshold at toy W = 32 is 0.16-0.49 at
    d = 2 (x = 10^4-10^6), 0.033 at d = 3 (10^4), 0.014-0.016 at d = 4.
    """
    a, q = dirichlet_approx(alpha, Q)
    witness = float(abs(sparse_transform(mu, [alpha])[0]))
    threshold = x ** (d - float(exponents.rho(d)) / 2)
    if witness <= threshold:
        return ArcLabel(kind="minor", witness=witness, threshold=threshold)
    N, gap = mu.N, float(abs(Fraction(alpha) - Fraction(a, q)))
    envelope = (N * math.log(x) * q ** (-1.0 / d)
                * (1 + N * gap) ** (-1.0 / d))
    return ArcLabel(kind="major", witness=witness, threshold=threshold,
                    a=a, q=q, envelope=envelope)

"""Exponential sums, sawtooth machinery, FFT torus grids, arc decomposition.

Phase conventions: e(t) = exp(2*pi*i*t) and the transform of a weight f on
the integers is f_hat(alpha) = sum_n f(n) e(alpha*n).  Phases are reduced
mod 1 before exponentiation, exactly (integer arithmetic on the binary
representation of alpha), because the raw product alpha*n^d overflows
double-precision phase accuracy already at desk scale.  On the torus grid
{j/M} no phase is formed at all: the transform is the M-point FFT of the
weights folded by the integer n mod M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from . import exponents
from .diophantine import EquationSystem, _equal_sum_count, _power_dtype
from .wtrick import SparseWeight

TorusLike = Union[float, Fraction, Tuple[int, int]]
TRANSFORM_CHUNK = 1 << 22  # max phase entries per block of sparse_transform


class AliasingError(ValueError):
    """Grid too small to resolve the trigonometric polynomial exactly."""


class CountRefusedError(MemoryError):
    """Generic mean-value count would walk more tuples than the budget."""


def e(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


def _alpha_ratio(alpha: TorusLike) -> Tuple[int, int]:
    """alpha as an exact integer ratio (num, den), den > 0."""
    if isinstance(alpha, tuple):
        a, q = alpha
        if q <= 0:
            raise ValueError("denominator must be positive")
        return a, q
    if isinstance(alpha, Fraction):
        return alpha.numerator, alpha.denominator
    return Fraction(alpha).as_integer_ratio()


def weyl_sum(x: int, d: int, alpha: TorusLike) -> complex:
    """sum_{n <= x} e(alpha * n^d) with exactly reduced phases.

    alpha may be a float (its binary value is used exactly), a Fraction,
    or an (a, q) pair; alpha = a/q gives the phase (a * (n^d mod q) mod q)/q.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    num, den = _alpha_ratio(alpha)
    total = 0j
    for n in range(1, x + 1):
        total += e((num * pow(n, d, den)) % den / den)
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


def fourier_grid(f: SparseWeight, M: int) -> FourierGrid:
    """f_hat on the grid {j/M}, j < M, from the exact fold (:func:`_fold`).

    Any M >= 1 is allowed.  For M < N distinct positions share a residue,
    so the grid is thinner than the support: every sample is still exact,
    but means over the grid (:func:`restriction_moment_sampled`) do not
    resolve the continuous moments over the torus.
    """
    return FourierGrid(M=M, N=f.N, values=_fold(f, M), mass=f.mass())


def _fold(weight: SparseWeight, M: int) -> np.ndarray:
    """Exact f_hat(j/M) for j < M: the M-point FFT of the folded weights.

    e(jn/M) depends only on n mod M, so the weights are summed by the
    residue n mod M and transformed once.  The residues are taken on the
    weight's positions array, in int64 or, for positions at or above 2^63,
    in exact Python ints, so the fold is exact for every position.  The
    only rounding is the FFT's own.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    residues = (weight.positions % M).astype(np.int64, copy=False)
    folded = np.bincount(residues, weights=weight.values, minlength=M)
    return np.fft.ifft(folded) * M  # ifft matches the e(+jn/M) convention


def interval_transform(N: int, alphas: np.ndarray) -> np.ndarray:
    """Closed-form transform of the indicator of [N]: sum_{n<=N} e(alpha n)."""
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty(len(alphas), dtype=complex)
    zero = np.mod(alphas, 1.0) == 0
    safe = np.where(zero, 0.5, alphas)
    out[:] = (np.exp(1j * np.pi * safe * (N + 1))
              * np.sin(np.pi * safe * N) / np.sin(np.pi * safe))
    out[zero] = N
    return out


def sparse_transform(weight: SparseWeight, alphas: np.ndarray) -> np.ndarray:
    """f_hat(alpha) for a sparse weight at arbitrary torus points.

    Each phase alpha*n mod 1 is reduced exactly in integer arithmetic, as
    in :func:`weyl_sum`: with alpha = num/den its binary value and
    0 <= num < den, the residue num*(n mod den) mod den is formed in int64
    while num*(den - 1) < 2^63 and in Python integers otherwise.  Only the
    final residue/den rounds, so every phase is within 2^-52 cycles.  The
    weight's positions are read as stored, int64 or, at or above 2^63,
    exact Python ints, whose residues are Python integers throughout.
    TRANSFORM_CHUNK bounds the entries of the phase block built at once.
    It serves off-grid points (:func:`classify_arc`); on a grid {j/M},
    :func:`fourier_grid` folds exactly for any M and is much faster.
    """
    pos, vals = weight.positions, weight.values
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty(len(alphas), dtype=complex)
    step = max(1, TRANSFORM_CHUNK // max(1, len(pos)))
    for start in range(0, len(alphas), step):
        phases = _reduced_phases(alphas[start:start + step], pos)
        out[start:start + step] = np.exp(2j * np.pi * phases) @ vals
    return out


def _reduced_phases(alphas: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """frac(alpha * n) for each alpha (rows) and position n (columns)."""
    phases = np.empty((len(alphas), len(pos)))
    for row, alpha in enumerate(alphas):
        num, den = _alpha_ratio(float(alpha))
        num %= den
        fits = den < 2 ** 63 and num * (den - 1) < 2 ** 63
        ns = pos if fits else pos.astype(object)
        phases[row] = (num * (ns % den)) % den / den
    return phases


def fourier_decay_sampled(grid: FourierGrid) -> float:
    """Grid sup of |nu_hat - 1_[N]_hat| / N on {j/M}, a lower bound on the sup.

    The interval transform is in closed form.  M < N only thins the grid
    (see :func:`fourier_grid`).
    """
    ref = interval_transform(grid.N, np.arange(grid.M) / grid.M)
    return float(np.max(np.abs(grid.values - ref)) / grid.N)


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
    S = 2 is the diagonal, x.  Every other S is the solution count of the
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
    int64 when S*x^d < 2^63 (``diophantine._power_dtype``), exact Python
    ints otherwise.

    CountRefusedError is raised when x^(S/2) > MEAN_VALUE_BUDGET, except
    at S = 4 with 2x^d < 2^62, which is never refused and has no work
    budget: its time grows as x^2 log x, 0.57-0.78 s at x = 10^4 and
    2.2-3.0 s at 2*10^4 in fresh processes on a 2-vCPU host
    (``bench/kernel.py``).
    """
    if S % 2 != 0 or S < 2:
        raise ValueError(f"S must be even and >= 2, got {S}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if S == 2:
        return x
    half = S // 2
    uncapped = half == 2 and 2 * x ** d < 2 ** 62
    if not uncapped and x ** half > MEAN_VALUE_BUDGET:
        raise CountRefusedError(
            f"{x}^{half} half-sum tuples exceed the budget {MEAN_VALUE_BUDGET}")
    dtype = _power_dtype(EquationSystem(d, (1, -1) * half), x ** d)
    powers = np.array([m ** d for m in range(1, x + 1)], dtype=dtype)
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
    n^d that e(j n^d / M) depends on.
    """
    counts = np.bincount([pow(n, d, M) for n in range(1, x + 1)], minlength=M)
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
    grid = weyl_power_grid(x, d, M)
    quad = float(np.mean(np.abs(grid) ** S))
    return quad, mean_value_count(x, d, S)


# --- arcs -----------------------------------------------------------------

def dirichlet_approx(alpha: float, Q: int) -> Tuple[int, int]:
    """Best rational a/q with q <= Q and |alpha - a/q| <= 1/(qQ), gcd(a,q)=1.

    The final continued-fraction convergent with denominator <= Q.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    frac = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(frac)), 1
    rem = frac - int(math.floor(frac))
    while rem != 0:
        rem = 1 / rem
        a = int(math.floor(rem))
        rem -= a
        p_nxt, q_nxt = a * p_cur + p_prev, a * q_cur + q_prev
        if q_nxt > Q:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    g = math.gcd(p_cur, q_cur)
    return p_cur // g if g else p_cur, q_cur // g if g else q_cur


@dataclass(frozen=True)
class ArcLabel:
    """Classification of a torus point by the smooth-weight witness."""

    kind: str                     # "major" or "minor"
    witness: float                # |mu_hat(alpha)|
    threshold: float              # x^(d - rho(d)/2)
    a: Optional[int] = None
    q: Optional[int] = None
    envelope: Optional[float] = None


def classify_arc(alpha: float, mu: SparseWeight, x: int, d: int,
                 Q: int = 1000) -> ArcLabel:
    """Label alpha minor when |mu_hat(alpha)| <= x^(d - rho(d)/2), else major.

    Major points get the rational witness (a, q) from the convergent with
    q <= Q and the envelope N * log(x) * q^(-1/d) * (1 + N|alpha - a/q|)^(-1/d).
    """
    witness = float(abs(sparse_transform(mu, np.array([alpha]))[0]))
    r = float(exponents.rho(d))
    threshold = x ** (d - r / 2)
    if witness <= threshold:
        return ArcLabel(kind="minor", witness=witness, threshold=threshold)
    a, q = dirichlet_approx(alpha, Q)
    N = mu.N
    envelope = (N * math.log(x) * q ** (-1.0 / d)
                * (1 + N * abs(alpha - a / q)) ** (-1.0 / d))
    return ArcLabel(kind="major", witness=witness, threshold=threshold,
                    a=a, q=q, envelope=envelope)


"""Exact rational calculus for the admissibility exponents.

Every threshold that decides whether an exponent ``c`` (the floor-power
sequence parameter, written as an exact rational in ``(1, 2)``) is usable
by the downstream estimates is computed here in exact rational arithmetic.
Floating point appears only in :func:`density_bound`, which evaluates the
headline density envelope for experiment reports.

Exponent families (all functions of the degree ``d``):

* ``S(d) = 2*floor(d^2/2)`` -- even moment order for the mean-value count,
  with ``s_bar(d) = S(d) + 1`` the minimal number of variables.
* ``h, k, l`` -- the three decay rates entering the Fourier-decay and
  smoothing radii for ``d >= 4``.
* ``c1, c2, c3`` -- admissibility radii: ``c`` must lie in ``(1, 1+c_i)``
  for, respectively, the Fourier-decay bound, the restriction moment
  bound, and the smooth-sum comparison.
* ``theta(d, c)`` -- the saving exponent in the smooth-sum comparison.
* ``rho(d)`` -- the arc-separation exponent for the minor-arc threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

Rational = Fraction


class InvalidDegreeError(ValueError):
    """Degree outside the domain of the requested formula."""


class TooFewVariablesError(ValueError):
    """Number of variables below the minimal s_bar(d)."""


class OutOfDomainError(ValueError):
    """Formula only defined for a restricted range of degrees."""


class InadmissibleCError(ValueError):
    """Exponent c outside the admissible interval for this quantity."""


@dataclass(frozen=True)
class DegreeParams:
    d: int
    S: int
    s_bar: int


@dataclass(frozen=True)
class DensityBound:
    """Floating evaluation of the density envelope (no implied constant).

    ``guarded`` is set when the quadruple logarithm is not positive at this
    scale; the unit factor is substituted and the caller should treat the
    value as trend-mode only.
    """

    value: float
    guarded: bool


def degree_params(d: int) -> DegreeParams:
    """Moment order S(d) = 2*floor(d^2/2) and minimal variable count S(d)+1."""
    if d < 2:
        raise InvalidDegreeError(f"degree must be >= 2, got {d}")
    S = 2 * (d * d // 2)
    return DegreeParams(d=d, S=S, s_bar=S + 1)


def hkl(d: int) -> Tuple[Rational, Rational, Rational]:
    """Decay rates h, k, l for degree d >= 4.

    h = 1/(d(d+1)^2 - 1), k = 2/(27d^2 - 14), l = 2/(27d^2 - 5).
    """
    if d < 4:
        raise OutOfDomainError(f"h, k, l are defined for d >= 4, got {d}")
    h = Fraction(1, d * (d + 1) ** 2 - 1)
    k = Fraction(2, 27 * d * d - 14)
    l = Fraction(2, 27 * d * d - 5)
    return h, k, l


def _rate(d: int) -> Rational:
    """The decay rate of the degree regime, d >= 4: h up to d = 11, then k
    (d even) or l (d odd)."""
    h, k, l = hkl(d)
    if d <= 11:
        return h
    return k if d % 2 == 0 else l


def _as_rational(c) -> Rational:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def theta(d: int, c) -> Rational:
    """Saving exponent theta(d, c) of the smooth-sum comparison.

    Closed forms for d = 2, 3; for d >= 4 it equals (1+c)/2 * (1 - rate),
    with the rate of the degree regime (``_rate``).
    """
    c = _as_rational(c)
    if d < 2:
        raise InvalidDegreeError(f"degree must be >= 2, got {d}")
    if not (1 <= c < 2):
        raise InadmissibleCError(f"c must lie in [1, 2), got {c}")
    if d == 2:
        return (4 * c + 7) / Fraction(13)
    if d == 3:
        return (15 * c + 14) / Fraction(30)
    return (1 + c) / 2 * (1 - _rate(d))


def c_bounds(d: int) -> Tuple[Rational, Rational, Rational]:
    """Admissibility radii (c1, c2, c3) for degree d.

    c1 bounds the Fourier-decay range, c2 the restriction range, c3 the
    smooth-comparison range; always c2 <= c1 and c2 < c3.
    """
    if d < 2:
        raise InvalidDegreeError(f"degree must be >= 2, got {d}")
    if d == 2:
        return Fraction(7, 75), Fraction(1, 54), Fraction(1, 2)
    if d == 3:
        return Fraction(3, 77), Fraction(1, 495), Fraction(1, 15)
    h, k, l = hkl(d)
    S = degree_params(d).S
    rate = _rate(d)
    c1 = min(h, k if d % 2 == 0 else l)
    c2 = 2 * rate / (4 * S + 1 - rate)
    c3 = 2 * rate / (1 - rate)
    return c1, c2, c3


def _c_of_display(d: int, s: int) -> Rational:
    """The cased closed-form display of c(d, s), evaluated literally."""
    params = degree_params(d)
    S, s_bar = params.S, params.s_bar
    second = Fraction(d, (s_bar - 1) * s - d)
    if d == 2:
        return min(Fraction(1, 54), Fraction(1, 2 * s - 1))
    if d == 3:
        return min(Fraction(1, 495), Fraction(3, 8 * s - 3))
    if d <= 11:
        first = Fraction(2, (4 * s_bar - 3) * (d * (d + 1) ** 2 - 1) - 1)
    elif d % 2 == 0:
        first = Fraction(4, (4 * s_bar - 3) * (3 * (3 * d - 2) * (3 * d + 2) - 2) - 2)
    else:
        first = Fraction(4, (4 * s_bar - 3) * (3 * (3 * d - 1) * (3 * d + 1) - 2) - 2)
    return min(first, second)


def c_of(d: int, s: int) -> Rational:
    """Admissible radius c(d, s) = min{c2(d), d/(s*S(d) - d)}.

    Computed both from the cased closed-form display and from the min
    formula; the two must agree exactly.
    """
    params = degree_params(d)
    if s < params.s_bar:
        raise TooFewVariablesError(
            f"s must be >= {params.s_bar} for degree {d}, got {s}"
        )
    _, c2, _ = c_bounds(d)
    from_min = min(c2, Fraction(d, s * params.S - d))
    from_display = _c_of_display(d, s)
    if from_min != from_display:
        raise RuntimeError(f"c({d}, {s}): min formula {from_min} != "
                           f"display {from_display}")
    return from_min


def eta(d: int, s: int, c, eps=Fraction(0)) -> Rational:
    """Saving exponent of the structured weighted sum.

    eta = (d*c - s*(c-1)*S(d)) / (d*c*(s-1)) - eps, exact.  Nonnegative
    exactly when c <= 1 + d/(s*S(d) - d) (at eps = 0); the value at the
    boundary is 0.  Raises when the eps-free value is negative.
    """
    c = _as_rational(c)
    eps = _as_rational(eps)
    params = degree_params(d)
    if s < params.s_bar:
        raise TooFewVariablesError(
            f"s must be >= {params.s_bar} for degree {d}, got {s}"
        )
    S = params.S
    raw = Fraction(d * c - s * (c - 1) * S, d * c * (s - 1))
    if raw < 0:
        raise InadmissibleCError(
            f"c = {c} exceeds 1 + {d}/({s}*{S} - {d}); saving exponent negative"
        )
    return raw - eps


def rho(d: int) -> Rational:
    """Arc-separation exponent: 2^(1-d) for 2 <= d <= 8, else 1/(4(d^2-3d+3))."""
    if d < 2:
        raise InvalidDegreeError(f"degree must be >= 2, got {d}")
    if d <= 8:
        return Fraction(1, 2 ** (d - 1))
    return Fraction(1, 4 * (d * d - 3 * d + 3))


def d0_v0(d: int) -> Tuple[int, Rational]:
    """Auxiliary degree d0 and shift saving v0 for the large-degree regime.

    d0 = 3d/2 (d even) or (3d-1)/2 (d odd); v0 = (d0-d)/(d0(d0^2-1)).
    Only meaningful for d >= 12.
    """
    if d < 12:
        raise OutOfDomainError(f"d0, v0 are used only for d >= 12, got {d}")
    d0 = 3 * d // 2 if d % 2 == 0 else (3 * d - 1) // 2
    v0 = Fraction(d0 - d, d0 * (d0 * d0 - 1))
    return d0, v0


def u_threshold(d: int, c) -> Tuple[Rational, Rational]:
    """Restriction moment threshold S(d)*(1 + 2(c-1)/(1-theta(d,c))).

    Returns (threshold, excess) where excess = 2*S(d)*(c-1)/(1-theta(d,c))
    is the fractional part above S(d); for c in the restriction range the
    excess lies in (0, 1).
    """
    c = _as_rational(c)
    th = theta(d, c)
    if th >= 1:
        raise InadmissibleCError(f"theta({d}, {c}) = {th} >= 1")
    S = degree_params(d).S
    excess = 2 * S * (c - 1) / (1 - th)
    return S + excess, excess


def density_bound(x: int, d: int, s: int, c, eps: float = 0.01) -> DensityBound:
    """Density envelope x^(1/c)/log(x) * (logloglog log x)^((2-s)/(dc)+eps).

    Floating evaluation without the implied constant.  When the quadruple
    logarithm is not positive at this x, the unit factor is substituted and
    the result flagged as guarded.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    c = float(_as_rational(c)) if not isinstance(c, float) else c
    lx = math.log(x)
    main = x ** (1.0 / c) / lx
    llx = math.log(lx)
    lllx = math.log(llx) if llx > 0 else float("-inf")
    llllx = math.log(lllx) if lllx > 0 else float("-inf")
    guarded = not (llllx > 0)
    expo = (2 - s) / (d * c) + eps
    value = main if guarded else main * llllx ** expo
    return DensityBound(value=value, guarded=guarded)


def table_rows(d_min: int, d_max: int, s_count: int = 3):
    """One row per (d, s), s ranging over s_bar(d) .. s_bar(d)+s_count-1.

    theta is taken at 1 + c2/2, the midpoint of the restriction range
    (1, 1 + c2), so it is always admissible.  Values are rationals
    (printed as "p/q" by the CLI); blank entries mark quantities outside
    their degree domain.  A row's keys, in order, are the CLI's columns.
    """
    for d in range(d_min, d_max + 1):
        params = degree_params(d)
        c1, c2, c3 = c_bounds(d)
        h, k, l = hkl(d) if d >= 4 else (None, None, None)
        d0, v0 = d0_v0(d) if d >= 12 else (None, None)
        th = theta(d, 1 + c2 / 2)
        for s in range(params.s_bar, params.s_bar + s_count):
            yield {
                "d": d, "s": s, "S": params.S, "s_bar": params.s_bar,
                "h": h, "k": k, "l": l, "c1": c1, "c2": c2, "c3": c3,
                "theta_at_midpoint": th, "c_of_ds": c_of(d, s),
                "rho": rho(d), "d0": d0, "v0": v0,
            }


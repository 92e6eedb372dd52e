"""Exact-rational checks for the exponent calculus."""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pslab import cli, exponents as ex

MAX_RADIUS = Fraction(391, 2426)  # upper envelope for c1 over all degrees


class TestDegreeParams:
    def test_small_degrees(self):
        assert (ex.degree_params(2).S, ex.degree_params(2).s_bar) == (4, 5)
        assert (ex.degree_params(3).S, ex.degree_params(3).s_bar) == (8, 9)
        assert (ex.degree_params(5).S, ex.degree_params(5).s_bar) == (24, 25)

    def test_invalid_degree(self):
        with pytest.raises(ex.InvalidDegreeError):
            ex.degree_params(1)

    @given(st.integers(min_value=2, max_value=200))
    def test_parity_shape(self, d):
        params = ex.degree_params(d)
        assert params.S % 2 == 0
        assert params.S == (d * d if d % 2 == 0 else d * d - 1)
        assert params.s_bar == params.S + 1


class TestHKL:
    def test_values(self):
        assert ex.hkl(4)[0] == Fraction(1, 99)
        assert ex.hkl(12)[1] == Fraction(2, 3874)
        assert ex.hkl(13)[2] == Fraction(2, 4558)

    def test_domain(self):
        with pytest.raises(ex.OutOfDomainError):
            ex.hkl(3)

    def test_positive_decreasing(self):
        prev = None
        for d in range(4, 51):
            triple = ex.hkl(d)
            assert all(v > 0 for v in triple)
            if prev is not None:
                assert all(a < b for a, b in zip(triple, prev))
            prev = triple


class TestTheta:
    def test_closed_forms(self):
        assert ex.theta(2, 1) == Fraction(11, 13)
        assert ex.theta(4, 1) == Fraction(98, 99)
        assert ex.theta(13, Fraction(3, 2)) == Fraction(5 * 4556, 4 * 4558)

    def test_domain(self):
        with pytest.raises(ex.InadmissibleCError):
            ex.theta(2, Fraction(5, 2))

    def test_open_interval_bounds(self):
        # 100-point grid inside (1, 1 + c2): theta and the moment excess
        # both stay strictly inside their unit intervals
        for d in (2, 3, 4, 7, 12, 13):
            _, c2, _ = ex.c_bounds(d)
            S = ex.degree_params(d).S
            for i in range(1, 101):
                c = 1 + c2 * Fraction(i, 101)
                th = ex.theta(d, c)
                assert 0 < th < 1
                excess = 2 * S * (c - 1) / (1 - th)
                assert 0 < excess < 1


class TestCBounds:
    def test_printed_values(self):
        assert ex.c_bounds(2) == (Fraction(7, 75), Fraction(1, 54),
                                  Fraction(1, 2))
        assert ex.c_bounds(3) == (Fraction(3, 77), Fraction(1, 495),
                                  Fraction(1, 15))

    def test_d4_smoothing_radius(self):
        assert ex.c_bounds(4)[2] == Fraction(1, 49)

    def test_order_relations(self):
        for d in range(2, 51):
            c1, c2, c3 = ex.c_bounds(d)
            assert c2 <= c1 <= MAX_RADIUS
            assert c2 < c3


class TestCOf:
    def test_examples(self):
        assert ex.c_of(2, 5) == Fraction(1, 54)
        assert ex.c_of(3, 9) == Fraction(1, 495)
        assert ex.c_of(2, 1000) == Fraction(1, 1999)

    def test_too_few_variables(self):
        with pytest.raises(ex.TooFewVariablesError):
            ex.c_of(2, 4)

    def test_display_min_agreement(self):
        # c_of itself checks the two computations agree; sweep a block
        for d in range(2, 21):
            s_bar = ex.degree_params(d).s_bar
            for s in range(s_bar, 3 * s_bar + 1):
                assert ex.c_of(d, s) > 0

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(ex, "_c_of_display", lambda d, s: Fraction(1, 7))
        with pytest.raises(RuntimeError):
            ex.c_of(2, 5)


class TestEta:
    def test_examples(self):
        assert ex.eta(2, 5, 1) == Fraction(1, 4)
        assert ex.eta(2, 5, Fraction(10, 9)) == 0
        expected = (Fraction(3 * 101, 100) - Fraction(9 * 8, 100)) \
            / (3 * Fraction(101, 100) * 8) - Fraction(1, 1000)
        assert ex.eta(3, 9, Fraction(101, 100), Fraction(1, 1000)) == expected

    def test_inadmissible(self):
        with pytest.raises(ex.InadmissibleCError):
            ex.eta(2, 5, Fraction(10, 9) + Fraction(1, 1000))

    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=1, max_value=400))
    def test_positivity_boundary(self, d, s_off, num):
        # eta > 0 at eps = 0 exactly when c is below 1 + d/(sS - d)
        params = ex.degree_params(d)
        s = params.s_bar + s_off
        boundary = 1 + Fraction(d, s * params.S - d)
        c = 1 + (boundary - 1) * Fraction(num, 401)
        assert ex.eta(d, s, c) > 0
        assert ex.eta(d, s, boundary) == 0


class TestRho:
    def test_values(self):
        assert ex.rho(2) == Fraction(1, 2)
        assert ex.rho(8) == Fraction(1, 128)
        assert ex.rho(9) == Fraction(1, 228)


class TestD0V0:
    def test_values(self):
        assert ex.d0_v0(12) == (18, Fraction(1, 969))
        assert ex.d0_v0(13) == (19, Fraction(1, 1140))
        assert ex.d0_v0(14) == (21, Fraction(1, 1320))

    def test_domain(self):
        with pytest.raises(ex.OutOfDomainError):
            ex.d0_v0(11)


class TestUThreshold:
    def test_limit_at_one(self):
        thr, excess = ex.u_threshold(2, 1)
        assert (thr, excess) == (4, 0)

    def test_excess_in_unit_interval(self):
        _, excess = ex.u_threshold(2, 1 + Fraction(1, 55))
        assert 0 < excess < 1
        _, excess = ex.u_threshold(3, 1 + Fraction(1, 496))
        assert 0 < excess < 1

    def test_excess_one_at_radius(self):
        # the restriction radius is exactly where the excess reaches 1
        _, excess = ex.u_threshold(2, 1 + Fraction(1, 54))
        assert excess == 1


class TestDensityBound:
    def test_guarded_at_desk_scale(self):
        bound = ex.density_bound(10 ** 6, 2, 5, Fraction(21, 20))
        assert bound.guarded
        c = 21 / 20
        assert bound.value == pytest.approx(
            (10 ** 6) ** (1 / c) / math.log(10 ** 6))

    def test_unit_quadlog_factor(self):
        # when guarded, the value is exactly x^(1/c)/log x
        bound = ex.density_bound(1000, 2, 5, 1)
        assert bound.value == pytest.approx(1000 / math.log(1000))

    def test_x_too_small(self):
        with pytest.raises(ValueError):
            ex.density_bound(2, 2, 5, Fraction(21, 20))


def _emitted(row: dict) -> dict:
    """A table row as the CLI writes it, read back from the JSON."""
    out = io.StringIO()
    cli.emit_rows([row], list(row), "json", out)
    (emitted,) = json.loads(out.getvalue())
    return emitted


class TestProfileTable:
    def test_profile_midpoint_admissible(self):
        row = next(ex.table_rows(2, 2))
        assert row["c2"] == Fraction(1, 54)
        assert row["theta_at_midpoint"] == ex.theta(2, 1 + Fraction(1, 108))
        assert 0 < row["theta_at_midpoint"] < 1
        formatted = _emitted(row)
        assert formatted["h"] == formatted["d0"] == ""

    def test_table_rows_shape(self):
        rows = list(ex.table_rows(2, 13))
        assert len(rows) == sum(3 for _ in range(2, 14))
        formatted = _emitted(rows[0])
        assert list(formatted) == [
            "d", "s", "S", "s_bar", "h", "k", "l", "c1", "c2", "c3",
            "theta_at_midpoint", "c_of_ds", "rho", "d0", "v0"]
        assert formatted["c1"] == "7/75"
        by_d = {r["d"]: r for r in rows}
        assert by_d[2]["d0"] is None
        assert by_d[12]["d0"] == 18

"""Membership, sieving, and counting-ratio checks."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pslab import ps_core


def is_ps_member(m: int, c: ps_core.PSExponent) -> bool:
    """Exact membership of m in {floor(n^c)}.

    Uses the floor-difference indicator: m is a member iff
    floor(-m^(1/c)) - floor(-(m+1)^(1/c)) = 1, and with
    floor(-t) = -ceil(t) this is ceil((m+1)^(q/p)) - ceil(m^(q/p)) = 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (ps_core.ceil_root_power(m + 1, c.q, c.p)
            - ps_core.ceil_root_power(m, c.q, c.p) == 1)


class TestFloorRootPower:
    def test_examples(self):
        assert ps_core.floor_root_power(4, 3, 2) == 8
        assert ps_core.floor_root_power(2, 3, 2) == 2
        assert ps_core.floor_root_power(10, 2, 3) == 4

    def test_edge_cases(self):
        assert ps_core.floor_root_power(0, 2, 3) == 0
        assert ps_core.floor_root_power(1, 7, 5) == 1
        with pytest.raises(ValueError):
            ps_core.floor_root_power(4, 0, 2)

    @given(st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=7))
    def test_defining_inequality(self, n, a, b):
        r = ps_core.floor_root_power(n, a, b)
        assert r ** b <= n ** a < (r + 1) ** b

    @given(st.integers(min_value=1, max_value=10 ** 9),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_ceil_relation(self, n, a, b):
        r = ps_core.ceil_root_power(n, a, b)
        assert (r - 1) ** b < n ** a <= r ** b


class TestPSExponent:
    def test_valid(self):
        c = ps_core.PSExponent(3, 2)
        assert float(c.c) == 1.5
        assert str(c) == "3/2"

    def test_parse(self):
        assert ps_core.PSExponent.parse("21/20") == ps_core.PSExponent(21, 20)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ps_core.PSExponent(2, 1)
        with pytest.raises(ValueError):
            ps_core.PSExponent(1, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            ps_core.PSExponent(4, 2)


class TestMembership:
    def test_examples_three_halves(self):
        c = ps_core.PSExponent(3, 2)
        assert is_ps_member(5, c)
        assert not is_ps_member(4, c)
        assert is_ps_member(8, c)
        assert is_ps_member(1, c)

    def test_members_list(self):
        c = ps_core.PSExponent(3, 2)
        assert ps_core.ps_members(11, c) == [1, 2, 5, 8, 11]

    @pytest.mark.parametrize("c", [ps_core.PSExponent(21, 20),
                                   ps_core.PSExponent(3, 2)])
    def test_against_enumeration_oracle(self, c):
        limit = 2000
        oracle = set()
        n = 1
        while True:
            m = ps_core.floor_root_power(n, c.p, c.q)
            if m > limit:
                break
            oracle.add(m)
            n += 1
        for m in range(1, limit + 1):
            assert is_ps_member(m, c) == (m in oracle)

    def test_indicator_values(self):
        c = ps_core.PSExponent(21, 20)
        for m in range(1, 500):
            # floor(-m^(1/c)) - floor(-(m+1)^(1/c)), which is_ps_member tests
            step = (ps_core.ceil_root_power(m + 1, c.q, c.p)
                    - ps_core.ceil_root_power(m, c.q, c.p))
            assert step in (0, 1)

    def test_member_count_formula(self):
        # |{floor(n^c)} ∩ [x]| = #{n : n^c < x+1} = ceil((x+1)^(1/c)) - 1
        c = ps_core.PSExponent(3, 2)
        for x in (10, 100, 999, 10 ** 4):
            expected = ps_core.ceil_root_power(x + 1, c.q, c.p) - 1
            assert len(ps_core.ps_members(x, c)) == expected


def _is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _trial_division_primes(x):
    return [n for n in range(2, x + 1) if _is_prime(n)]


def _members_loop(x, c):
    """The exact loop: floor(n^c) by integer roots until it passes x."""
    out = []
    n = 1
    while True:
        m = ps_core.floor_root_power(n, c.p, c.q)
        if m > x:
            return out
        out.append(m)
        n += 1


class TestMembersFloatSeed:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=60).flatmap(
               lambda q: st.tuples(st.integers(min_value=q + 1,
                                               max_value=2 * q - 1),
                                   st.just(q))),
           st.integers(min_value=-2, max_value=3000))
    def test_against_exact_loop(self, pq, x):
        p, q = pq
        assume(math.gcd(p, q) == 1)
        c = ps_core.PSExponent(p, q)
        assert ps_core.ps_members(x, c) == _members_loop(x, c)

    def test_exact_powers_are_certified(self, monkeypatch):
        # c = 3/2: n = k^2 gives n^c = k^3, an integer the float seed can
        # land on from either side, so each such n is recomputed exactly
        c = ps_core.PSExponent(3, 2)
        x = 10 ** 4
        calls = []
        exact = ps_core.floor_root_power

        def recording(n, a, b):
            calls.append((n, a, b))
            return exact(n, a, b)

        monkeypatch.setattr(ps_core, "floor_root_power", recording)
        members = ps_core.ps_members(x, c)
        monkeypatch.undo()
        assert members == _members_loop(x, c)
        squares = [k * k for k in range(1, math.isqrt(len(members)) + 1)]
        certified = [n for n, a, b in calls if (a, b) == (3, 2)]
        assert set(squares) <= set(certified)
        assert len(certified) < 2 * len(squares)

    def test_exact_powers_are_certified_in_ps_primes(self, monkeypatch):
        # the candidates n = k^2 of ps_primes have the integer n^c = k^3,
        # so each is recomputed exactly; p = 7 has n = 4, where 4^c = 8
        c = ps_core.PSExponent(3, 2)
        x = 10 ** 4
        calls = []
        exact = ps_core.floor_root_power

        def recording(n, a, b):
            calls.append((n, a, b))
            return exact(n, a, b)

        monkeypatch.setattr(ps_core, "floor_root_power", recording)
        members = ps_core.ps_primes(x, c).members.tolist()
        monkeypatch.undo()
        primes = _trial_division_primes(x)
        assert members == sorted(set(primes) & set(_members_loop(x, c)))
        assert 7 not in members
        # one candidate per prime, so a square may come from several
        candidates = [exact(p, 2, 3) + 1 for p in primes]
        squares = [n for n in candidates if math.isqrt(n) ** 2 == n]
        assert 4 in squares and len(set(squares)) > 10
        certified = [n for n, a, b in calls if (a, b) == (3, 2)]
        assert Counter(squares) <= Counter(certified)
        assert len(certified) < 2 * len(squares)

    @pytest.mark.parametrize("c", [ps_core.PSExponent(21, 20),
                                   ps_core.PSExponent(31, 30)])
    def test_large_windows(self, c):
        assert ps_core.ps_members(10 ** 5, c) == _members_loop(10 ** 5, c)
        # at 10^6 the loop takes 6-11 s; check what determines its output
        # instead: floor(n^c) for every n, and the stop just past x
        x = 10 ** 6
        members = ps_core.ps_members(x, c)
        assert all(m ** c.q <= n ** c.p < (m + 1) ** c.q
                   for n, m in enumerate(members, 1))
        assert members[-1] <= x
        assert ps_core.floor_root_power(len(members) + 1, c.p, c.q) > x

    def test_exact_loop_from_float_limit(self, monkeypatch):
        monkeypatch.setattr(ps_core, "FLOAT_MEMBER_LIMIT", 100)
        c = ps_core.PSExponent(3, 2)
        assert ps_core.ps_members(99, c) == _members_loop(99, c)
        assert ps_core.ps_members(500, c) == _members_loop(500, c)

    def test_both_callers_switch_to_exact_roots_at_the_limit(self,
                                                             monkeypatch):
        # from FLOAT_MEMBER_LIMIT on, ps_members takes every floor(n^c) and
        # ps_primes every floor(p^(1/c)) and floor(n^c) of its candidates
        # from floor_root_power; below it only the few whose power lies
        # near an integer
        c = ps_core.PSExponent(3, 2)
        exact = ps_core.floor_root_power
        calls = []

        def recording(n, a, b):
            calls.append((n, a, b))
            return exact(n, a, b)

        monkeypatch.setattr(ps_core, "floor_root_power", recording)
        n_max = len(_members_loop(500, c))
        primes = _trial_division_primes(500)
        candidates = {exact(p, 2, 3) + 1 for p in primes}
        for run, every in (
                (lambda: ps_core.ps_members(500, c),
                 {(n, 3, 2) for n in range(1, n_max + 1)}),
                (lambda: ps_core.ps_primes(500, c),
                 {(p, 2, 3) for p in primes}
                 | {(n, 3, 2) for n in candidates})):
            for limit, every_root in ((1 << 52, False), (100, True)):
                monkeypatch.setattr(ps_core, "FLOAT_MEMBER_LIMIT", limit)
                calls.clear()
                run()
                # ps_members' n_max = ceil(501^(2/3)) - 1 is one more root
                roots = set(calls) - {(501, 2, 3)}
                assert (roots == every) == every_root
                assert len(roots) < len(every) // 4 or every_root


class TestSieve:
    def test_small(self):
        assert ps_core.sieve_primes(10).tolist() == [2, 3, 5, 7]
        assert len(ps_core.sieve_primes(100)) == 25

    def test_against_trial_division(self):
        def is_prime(n):
            return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

        primes = set(ps_core.sieve_primes(10 ** 4).tolist())
        for n in range(2, 10 ** 4 + 1):
            assert (n in primes) == is_prime(n)

    def test_million(self):
        assert len(ps_core.sieve_primes(10 ** 6)) == 78498

    def test_tiny(self):
        assert len(ps_core.sieve_primes(1)) == 0


class TestPSPrimes:
    def test_example(self):
        c = ps_core.PSExponent(3, 2)
        assert ps_core.ps_primes(11, c).members.tolist() == [2, 5, 11]

    def test_near_one_keeps_most_primes(self):
        c = ps_core.PSExponent(101, 100)
        members = ps_core.ps_primes(50, c).members.tolist()
        all_primes = ps_core.sieve_primes(50).tolist()
        assert len(members) >= len(all_primes) - 3

    def test_empty(self):
        c = ps_core.PSExponent(3, 2)
        assert len(ps_core.ps_primes(1, c)) == 0


EDGE_EXPONENTS = [ps_core.PSExponent(21, 20), ps_core.PSExponent(31, 30),
                  ps_core.PSExponent(3, 2), ps_core.PSExponent(109, 108),
                  ps_core.PSExponent(7, 4)]


def _edge_xs():
    """x at and next to 64-long segment edges, and at perfect powers."""
    xs = set()
    for base in (2, 3, 100, 1000, 5000):
        root = math.isqrt(base)
        for k in (0, 1, 5, 17):
            xs.update(root + 64 * k + t for t in (-1, 0, 1))
    xs.update((2 ** 12, 3 ** 8, 17 ** 3, 5 ** 5, 70 ** 2, 3000))
    return sorted(xs)


class TestSegmentedPSPrimes:
    """ps_primes runs the sequence through the sieve's segments."""

    @pytest.mark.parametrize("c", EDGE_EXPONENTS, ids=str)
    def test_equals_sieve_and_members(self, c, monkeypatch):
        monkeypatch.setattr(ps_core, "SIEVE_SEGMENT", 64)
        for x in _edge_xs():
            primes = ps_core.sieve_primes(x).tolist()
            want = sorted(set(primes) & set(ps_core.ps_members(x, c)))
            got = ps_core.ps_primes(x, c).members
            assert got.dtype == np.int64
            assert got.tolist() == want, x

    @pytest.mark.parametrize("c", EDGE_EXPONENTS, ids=str)
    def test_exact_branch_equals_sieve_and_members(self, c, monkeypatch):
        monkeypatch.setattr(ps_core, "SIEVE_SEGMENT", 64)
        monkeypatch.setattr(ps_core, "FLOAT_MEMBER_LIMIT", 100)
        for x in (99, 100, 101, 1000, 4096):
            primes = ps_core.sieve_primes(x).tolist()
            want = sorted(set(primes) & set(ps_core.ps_members(x, c)))
            assert ps_core.ps_primes(x, c).members.tolist() == want, x

    def test_members_seeded_one_segment_at_a_time(self, monkeypatch):
        x, c = 10 ** 4, ps_core.PSExponent(109, 108)
        monkeypatch.setattr(ps_core, "SIEVE_SEGMENT", 64)
        lengths = []
        floor_powers = ps_core._floor_powers

        def recording(v, a, b, x):
            lengths.append(len(v))
            return floor_powers(v, a, b, x)

        monkeypatch.setattr(ps_core, "_floor_powers", recording)
        ps_core.ps_primes(x, c)
        # two calls per segment, the roots of its primes and their n
        segments = [len(primes) for _, _, primes
                    in ps_core._sieve_segments(x)]
        assert lengths == [k for k in segments for _ in range(2)]
        assert sum(lengths) == 2 * len(_trial_division_primes(x))
        assert segments[0] <= math.isqrt(x) + 1 + 64
        assert max(segments[1:]) <= 64

    def test_sieve_segments_against_trial_division(self, monkeypatch):
        monkeypatch.setattr(ps_core, "SIEVE_SEGMENT", 64)
        for x in (2, 3, 4, 100, 1000, 4096):
            segments = list(ps_core._sieve_segments(x))
            los = [lo for lo, _, _ in segments]
            ends = [end for _, end, _ in segments]
            assert los[0] == 0 and ends[-1] == x + 1
            # the base primes share the first segment with the first odd one
            assert ends[0] == min(math.isqrt(x) + 1 + 2 * 64, x + 1)
            assert los[1:] == ends[:-1]
            assert all(end - lo <= 2 * 64 for lo, end, _ in segments[1:])
            assert all(primes.dtype == np.int64 for _, _, primes in segments)
            assert all(primes.tolist() == [n for n in range(lo, end)
                                           if _is_prime(n)]
                       for lo, end, primes in segments)


class TestRefusals:
    @pytest.mark.parametrize("call, match", [
        (lambda: ps_core.floor_root_power(-1, 2, 3), "nonnegative"),
        (lambda: ps_core.PSExponent(0, 1), "positive"),
        (lambda: ps_core.PSExponent.parse("-3/2"), "positive")],
        ids=["negative-n", "zero-p", "negative-c"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestExactPowers:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
           st.integers(0, 9))
    def test_values_are_python_powers(self, elems, d):
        out = ps_core.exact_powers(elems, d)
        assert out.tolist() == [e ** d for e in elems]
        top = max(map(abs, elems), default=0)
        assert (out.dtype == np.int64) == (top ** d < 2 ** 63)

    @pytest.mark.parametrize("e, d", [(2, 61), (-2, 61), (3, 39), (-7, 22),
                                      (3037000499, 2), (-1, 9)])
    def test_int64_exactly_below_the_bound(self, e, d):
        # the largest weight and then shift that keep weight*|e|^d + shift
        # below 2^63 give int64; one more of either gives exact ints
        power = abs(e) ** d
        weight = (2 ** 63 - 1) // power
        shift = 2 ** 63 - 1 - weight * power
        for w, b, dtype in ((weight, shift, np.int64),
                            (weight, shift + 1, object),
                            (weight + 1, 0, object)):
            out = ps_core.exact_powers([e, 1, -1], d, w, b)
            assert out.dtype == dtype, (w, b)
            assert out.tolist() == [e ** d, 1, (-1) ** d]

    def test_elements_past_int64(self):
        elems = [2 ** 70, -(2 ** 63), 2 ** 63, 7, -5]
        for d in (0, 1, 2, 3):
            for given_as in (elems, np.array(elems, dtype=object)):
                out = ps_core.exact_powers(given_as, d)
                assert out.dtype == object
                assert out.tolist() == [e ** d for e in elems]
        # -2^63 fits int64, but its power does not fit below 2^63
        assert ps_core.exact_powers([-(2 ** 63)], 1).dtype == object
        assert ps_core.exact_powers([-(2 ** 63) + 1], 1).dtype == np.int64


class TestPNTRatio:
    def test_sanity_band(self):
        rep = ps_core.pnt_ratio(1000, ps_core.PSExponent(21, 20))
        assert 0.5 < rep.ratio < 2

    def test_warns_outside_proven_range(self):
        with pytest.warns(UserWarning):
            ps_core.pnt_ratio(100, ps_core.PSExponent(13, 11))

    def test_x_too_small(self):
        with pytest.raises(ValueError):
            ps_core.pnt_ratio(2, ps_core.PSExponent(21, 20))

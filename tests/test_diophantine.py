"""Solution enumeration, triviality classification, and weighted sums."""

import itertools
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pslab import diophantine as dio, residues
from pslab.ps_core import (PSExponent, PSPrimeSet, exact_powers, ps_primes,
                           sieve_primes)
from pslab.wtrick import SparseWeight


ROTH = dio.validate_system((1, -2, 1), 2)
# both pairings y1 = y3, y2 = y4 and y1 = y4, y2 = y3 of (1, 1, -1, -1)
PAIRINGS = "1 0 -1 0\n0 1 0 -1\n\n1 0 0 -1\n0 1 -1 0\n"
# every nontrivial Roth solution over the primes <= 200, in witness order
ROTH_200_WITNESSES = [
    (17, 13, 7), (23, 17, 7), (103, 73, 7), (137, 97, 7), (7, 13, 17),
    (73, 53, 17), (193, 137, 17), (7, 17, 23), (47, 37, 23), (151, 109, 31),
    (23, 37, 47), (17, 53, 73), (191, 149, 89), (127, 113, 97),
    (7, 73, 103), (97, 113, 127), (7, 97, 137), (31, 109, 151),
    (89, 149, 191), (17, 137, 193),
]


class TestValidateSystem:
    def test_roth_form(self):
        assert ROTH.s == 3 and ROTH.d == 2

    def test_nonzero_sum_rejected(self):
        with pytest.raises(dio.NotTranslationInvariantError):
            dio.validate_system((1, 1, -1), 2)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(dio.DegenerateSystemError):
            dio.validate_system((1, 0, -1), 2)

    def test_too_few_variables(self):
        with pytest.raises(dio.DegenerateSystemError):
            dio.validate_system((1, -1), 2)


class TestRefusals:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: dio.validate_system((1, -2, 1), 1), ValueError,
         "degree must be >= 2"),
        (lambda: dio.make_subspace([(1, -1)], ROTH), ValueError,
         "rows must have length 3"),
        (lambda: dio.enumerate_solutions(
            [2, 3], ROTH, dio.diagonal_union(
                dio.validate_system((1, 1, -1, -1), 2))), ValueError,
         "number of variables"),
        # the count's tables of 4 of the 9 positions, before any is formed
        (lambda: dio.enumerate_solutions(
            range(1, 76), dio.validate_system((1,) * 8 + (-8,), 2)),
         dio.SplitRefusedError, r"75\^4 tabulated combinations")],
        ids=["degree", "row-length", "K-of-another-s", "table-budget"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestSubspaces:
    def test_diagonal_union(self):
        K = dio.diagonal_union(ROTH)
        assert K.is_diagonal_only()
        assert K.contains([4, 4, 4])
        assert not K.contains([1, 4, 9])

    def test_rank_computed_once(self, monkeypatch):
        calls = []
        rank = dio._rank
        monkeypatch.setattr(dio, "_rank",
                            lambda rows: calls.append(rows) or rank(rows))
        K = dio.diagonal_union(ROTH)
        assert K.is_diagonal_only() and K.is_diagonal_only()
        assert K.subspaces[0].dimension() == 1
        # the subspace's own rank, then the hyperplane check
        assert len(calls) == 2

    def test_row_must_contain_diagonal(self):
        with pytest.raises(ValueError):
            dio.make_subspace([[1, 1, 0], [1, 0, -1]], ROTH)

    def test_rank_one_not_proper(self):
        with pytest.raises(ValueError):
            dio.make_subspace([[1, -1, 0]], ROTH)

    def test_must_lie_in_coefficient_hyperplane(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        # pairing y1=y2, y3=y4 does not force the equation to hold
        with pytest.raises(ValueError):
            dio.make_subspace([[1, -1, 0, 0], [0, 0, 1, -1]], sys4)

    def test_valid_pairing_subspace(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        sub = dio.make_subspace([[1, 0, -1, 0], [0, 1, 0, -1]], sys4)
        assert sub.dimension() == 2
        assert sub.contains([3, 7, 3, 7])
        assert not sub.contains([3, 7, 7, 3])

    def test_parse_file_blocks(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        text = """
# pairing 1
1 0 -1 0
0 1 0 -1

# diagonal
1 -1 0 0
0 1 -1 0
0 0 1 -1
"""
        K = dio.parse_subspace_file(text, sys4)
        assert len(K.subspaces) == 2
        assert K.contains([2, 5, 2, 5])
        assert not K.is_diagonal_only()

    def test_parse_rational_rows(self):
        text = "1/2 -1/2 0\n0 1 -1\n"
        K = dio.parse_subspace_file(text, ROTH)
        assert K.is_diagonal_only()

    @given(st.data())
    def test_integer_rows_match_fractions(self, data):
        s = data.draw(st.integers(3, 5))
        vec = data.draw(st.lists(st.integers(-50, 50), min_size=s, max_size=s))
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=6)
        rows = data.draw(st.lists(st.lists(entry, min_size=s, max_size=s),
                                  min_size=1, max_size=3))
        if vec[-1] != 0 and data.draw(st.booleans()):
            # put vec in the kernel of the first row
            head = sum(r * v for r, v in zip(rows[0][:-1], vec[:-1]))
            rows[0][-1] = -head / vec[-1]
        assume(any(r != 0 for row in rows for r in row))
        sub = dio.Subspace(rows=tuple(tuple(row) for row in rows))
        expected = all(sum(r * v for r, v in zip(row, vec)) == 0
                       for row in rows)
        assert sub.contains(vec) == expected
        big = [v * 10 ** 30 for v in vec]
        assert sub.contains(big) == expected

    def test_parse_empty_rejected(self):
        with pytest.raises(ValueError):
            dio.parse_subspace_file("\n\n", ROTH)


class TestIsKTrivial:
    def test_diagonal_always_trivial(self):
        K = dio.diagonal_union(ROTH)
        assert dio.is_K_trivial((5, 5, 5), ROTH, K)

    def test_progression_witness_nontrivial(self):
        K = dio.diagonal_union(ROTH)
        assert not dio.is_K_trivial((7, 13, 17), ROTH, K)

    def test_pairing_constraint(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        sub = dio.make_subspace([[1, 0, -1, 0], [0, 1, 0, -1]], sys4)
        K = dio.SubspaceUnion(subspaces=(sub,))
        assert dio.is_K_trivial((3, 7, 3, 7), sys4, K)
        assert not dio.is_K_trivial((3, 7, 7, 3), sys4, K)


class TestEnumerate:
    def test_progression_in_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        report = dio.enumerate_solutions(primes, ROTH, cap=1000)
        assert (7, 13, 17) in report.witnesses
        assert report.total == report.trivial + report.nontrivial

    def test_singleton_diagonal_only(self):
        report = dio.enumerate_solutions([9], ROTH)
        assert (report.total, report.trivial, report.nontrivial) == (1, 1, 0)

    def test_four_variable_count_matches_naive(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        A = list(range(1, 11))
        mitm = dio.enumerate_solutions(A, sys4)
        naive = dio.enumerate_solutions_naive(A, sys4)
        assert (mitm.total, mitm.trivial) == (naive.total, naive.trivial)

    def test_general_union_classification(self):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        K = dio.parse_subspace_file(PAIRINGS, sys4)
        A = list(range(1, 9))
        mitm = dio.enumerate_solutions(A, sys4, K)
        naive = dio.enumerate_solutions_naive(A, sys4, K)
        assert (mitm.total, mitm.trivial, mitm.nontrivial) == \
            (naive.total, naive.trivial, naive.nontrivial)

    def test_scaling_invariance(self):
        A = [1, 2, 3, 5, 8]
        base = dio.enumerate_solutions(A, ROTH)
        scaled = dio.enumerate_solutions([3 * a for a in A], ROTH)
        assert (base.total, base.trivial) == (scaled.total, scaled.trivial)

    def test_permutation_of_equal_coefficients(self):
        # coefficients (1, 1, -2) vs (1, -2, 1): swapping the two 1s
        # relabels coordinates, so counts agree
        a = dio.enumerate_solutions(range(1, 15), dio.validate_system(
            (1, 1, -2), 2))
        b = dio.enumerate_solutions(range(1, 15), dio.validate_system(
            (1, -2, 1), 2))
        assert (a.total, a.nontrivial) == (b.total, b.nontrivial)

    def test_diagonal_completeness(self):
        A = [2, 3, 5, 7]
        report = dio.enumerate_solutions(A, ROTH)
        assert report.trivial == len(A)

    def test_witness_cap_and_flag(self):
        A = list(range(1, 31))
        full = dio.enumerate_solutions(A, ROTH, cap=10 ** 6)
        capped = dio.enumerate_solutions(A, ROTH, cap=2)
        assert len(capped.witnesses) == 2
        assert capped.truncated
        assert capped.nontrivial == full.nontrivial

    def test_split_refused(self, monkeypatch):
        monkeypatch.setattr(dio, "TABLE_BUDGET", 10)
        with pytest.raises(dio.SplitRefusedError):
            dio.enumerate_solutions(range(1, 10), ROTH)

    def test_verification_builds_no_table(self, monkeypatch):
        # a set with no nontrivial solution is verified by the count alone,
        # so only tables of two or more positions count against the budget
        c = PSExponent(21, 20)
        A, _ = dio.greedy_avoider(1000, c, ROTH, primes=ps_primes(1000, c))
        assert len(A) > 10
        monkeypatch.setattr(dio, "TABLE_BUDGET", 10)
        report = dio.enumerate_solutions(A, ROTH)
        assert (report.total, report.trivial, report.nontrivial) == \
            (len(A), len(A), 0)

    def test_random_systems_against_naive(self):
        rng = random.Random(42)
        for _ in range(10):
            s = rng.randint(3, 5)
            d = rng.randint(2, 3)
            while True:
                coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])
                          for _ in range(s - 1)]
                if sum(coeffs) != 0:
                    coeffs.append(-sum(coeffs))
                    break
            sys_ = dio.validate_system(coeffs, d)
            A = rng.sample(range(1, 25), rng.randint(1, 12))
            mitm = dio.enumerate_solutions(A, sys_)
            naive = dio.enumerate_solutions_naive(A, sys_)
            assert (mitm.total, mitm.trivial) == (naive.total, naive.trivial)

    def test_signed_pairs_diagonal_count(self):
        # -2 and 2 share their square, so all 8 tuples are constant
        # power vectors and trivial
        report = dio.enumerate_solutions([-2, 2], ROTH)
        naive = dio.enumerate_solutions_naive([-2, 2], ROTH)
        assert (report.total, report.trivial, report.nontrivial) == (8, 8, 0)
        assert (naive.total, naive.trivial, naive.nontrivial) == (8, 8, 0)

    @pytest.mark.parametrize("K_text", [None, PAIRINGS],
                             ids=["diagonal", "pairings"])
    def test_cap_zero_truncates(self, K_text):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        K = dio.parse_subspace_file(K_text, sys4) if K_text else None
        report = dio.enumerate_solutions(range(1, 9), sys4, K, cap=0)
        assert report.nontrivial > 0
        assert report.witnesses == [] and report.truncated

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            dio.enumerate_solutions([1, 2, 3], ROTH, cap=-1)

    def test_roth_witnesses_pinned(self):
        primes = [p for p in range(2, 201)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        report = dio.enumerate_solutions(primes, ROTH)
        assert (report.total, report.trivial, report.nontrivial) == (66, 46, 20)
        assert report.witnesses == ROTH_200_WITNESSES
        assert not report.truncated
        capped = dio.enumerate_solutions(primes, ROTH, cap=5)
        assert capped.witnesses == ROTH_200_WITNESSES[:5] and capped.truncated

    def test_object_dtype_join(self):
        # 4 * 300^9 >= 2^63, so keys and power vectors are exact Python
        # ints; (a, 0, -a) solves x^9 - 2y^9 + z^9 = 0 for every a
        sys9 = dio.validate_system((1, -2, 1), 9)
        A = [-300, -299, -7, 0, 2, 7, 299, 300]
        assert exact_powers(A, 9, 4).dtype == object
        report = dio.enumerate_solutions(A, sys9)
        naive = dio.enumerate_solutions_naive(A, sys9)
        assert (report.total, report.trivial, report.nontrivial) == \
            (naive.total, naive.trivial, naive.nontrivial)
        assert report.nontrivial > 0
        assert set(report.witnesses) == set(naive.witnesses)

    @pytest.mark.parametrize("coeffs, K_text", [
        ((1, -2, 1), None),
        ((1, 1, -1, -1), None),
        ((1, 1, -1, -1), PAIRINGS),
        ((1, 2, -1, -3, 1), None),
        ((1, 1, 1, -1, -1, -1), None),  # three probe positions
    ], ids=["s3", "s4-diagonal", "s4-pairings", "s5", "s6"])
    def test_small_join_chunk_matches(self, monkeypatch, coeffs, K_text):
        sys_ = dio.validate_system(coeffs, 2)
        K = dio.parse_subspace_file(K_text, sys_) if K_text else None
        A = [-3, 0, 1, 2, 3, 5] if len(coeffs) == 6 else range(-4, 12)
        whole = dio.enumerate_solutions(A, sys_, K, cap=1000)
        monkeypatch.setattr(dio, "JOIN_CHUNK", 7)
        assert whole.total > 7 and whole.nontrivial > 0
        for cap in (1000, 2):
            chunked = dio.enumerate_solutions(A, sys_, K, cap=cap)
            assert (chunked.total, chunked.trivial, chunked.witnesses) == \
                (whole.total, whole.trivial, whole.witnesses[:cap])

    @pytest.mark.parametrize("chunk", [None, 7])
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_join_matches_naive_oracle(self, chunk, data):
        # chunk 7 halves the count's windows down to width 1 and doubles
        # them again, over signed, non-unit last coefficients
        if data.draw(st.booleans()):
            sys_ = dio.validate_system((1, 1, -1, -1), data.draw(
                st.integers(2, 3)))
            K = dio.parse_subspace_file(PAIRINGS, sys_)
        else:
            s = data.draw(st.integers(3, 5))
            head = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                      min_size=s - 1, max_size=s - 1))
            assume(sum(head) != 0)
            sys_ = dio.validate_system(head + [-sum(head)],
                                       data.draw(st.integers(2, 3)))
            K = None
        A = set(data.draw(st.lists(st.integers(-12, 25), min_size=1,
                                   max_size=4 if sys_.s == 5 else 7)))
        if data.draw(st.booleans()):
            A |= {-a for a in A if a <= 12}
        cap = data.draw(st.sampled_from([0, 1, 3, 1000]))
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(dio, "JOIN_CHUNK", chunk)
            report = dio.enumerate_solutions(A, sys_, K, cap=cap)
        naive = dio.enumerate_solutions_naive(A, sys_, K)
        assert (report.total, report.trivial, report.nontrivial) == \
            (naive.total, naive.trivial, naive.nontrivial)
        ws = report.witnesses
        assert len(ws) == min(report.nontrivial, cap) == len(set(ws))
        assert report.truncated == (report.nontrivial > cap)
        tab, probe = dio._split_positions(sys_)
        order = lambda w: ([w[p] for p in probe], [w[p] for p in tab])
        if naive.nontrivial <= len(naive.witnesses):  # the oracle kept all
            assert ws == sorted(naive.witnesses, key=order)[:cap]
        else:
            assert ws == sorted(ws, key=order)
            for w in ws:
                assert set(w) <= A
                assert sum(c * v ** sys_.d for c, v in zip(sys_.coeffs, w)) == 0
                assert not dio.is_K_trivial(w, sys_, K or dio.diagonal_union(
                    sys_))

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_packed_join_width_boundary(self, monkeypatch, width):
        # A = k * {1, 5, 7, 13, 17}: the table's 25 sums a^2 - 2b^2 span
        # 3 * (17^2 - 1) * k^2 = 864 k^2 and carry 5 index bits, so the
        # packed keys are `width` bits wide; 64 bits take the argsort
        bits = width - 5
        k = math.isqrt((1 << (bits - 1)) // 864)
        while (864 * k * k).bit_length() < bits:
            k += 1
        assert (864 * k * k).bit_length() == bits
        A = [k * a for a in (1, 5, 7, 13, 17)]
        assert exact_powers(A, 2, 4).dtype == np.int64
        argsorts = _spy_argsort(monkeypatch)
        report = dio.enumerate_solutions(A, ROTH)
        assert len(argsorts) == (width == 64)
        naive = dio.enumerate_solutions_naive(A, ROTH)
        assert (report.total, report.trivial, report.nontrivial) == \
            (naive.total, naive.trivial, naive.nontrivial) == (9, 5, 4)
        tab, probe = dio._split_positions(ROTH)
        order = lambda w: ([w[p] for p in probe], [w[p] for p in tab])
        assert report.witnesses == sorted(naive.witnesses, key=order)

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_packed_join_far_probe_keys(self, monkeypatch, width):
        # the table's 36 sums of two of scale * (-3, -1, 0, 1, 2, 3) span
        # 12 * scale and carry 6 index bits, so the packed keys are `width`
        # bits wide.  Probe keys C * p + q with C a multiple of 64 reach
        # +-2^62 and are congruent to table values mod 2^(64 - 6): shifted
        # without the range check, they would wrap onto the table
        scale = 1 << (width - 10)
        pows = scale * np.array([-3, -1, 0, 1, 2, 3], dtype=np.int64)
        C = (2 ** 62 // (3 * scale)) & ~63
        assert C > 0 and 3 * scale * C > 2 ** 61
        table = dio._outer_sums(pows, [1, 1])
        keys = dio._outer_sums(pows, [C, 1])
        # the stable argsort's order: probe index, then table index
        want = [(i, j) for i, key in enumerate(keys.tolist())
                for j in np.flatnonzero(table == key).tolist()]
        assert 0 < len(want) < len(keys) * len(table)
        for chunk in (dio.JOIN_CHUNK, 7):
            monkeypatch.setattr(dio, "JOIN_CHUNK", chunk)
            argsorts = _spy_argsort(monkeypatch)
            got = [pair for probe_idx, tab_idx in
                   dio._join_matches(pows, [1, 1], [C, 1])
                   for pair in zip(probe_idx.tolist(), tab_idx.tolist())]
            assert got == want
            assert len(argsorts) == (width == 64)

    def test_int64_join_makes_no_argsort(self, monkeypatch):
        # the 779^2 table of the Roth join is sorted as packed keys
        def refuse(*args, **kwargs):
            raise AssertionError("whole-table argsort")

        c = PSExponent(21, 20)
        A = ps_primes(10 ** 4, c).members.tolist()
        monkeypatch.setattr(dio.np, "argsort", refuse)
        report = dio.enumerate_solutions(A, ROTH)
        assert (report.total, report.trivial, report.nontrivial) == \
            (831, 779, 52)
        assert report.witnesses[:4] == [(17, 13, 7), (23, 17, 7),
                                        (103, 73, 7), (7, 13, 17)]


def _forced_modulus(q):
    """``residues.modulus`` with q forced where the forms differ; forms
    equal up to order keep q = 1, as the rule gives them."""
    def modulus(pows, forms, room, runs):
        q_ = q if len({tuple(sorted(form)) for form in forms}) > 1 else 1
        sizes = residues.class_sizes(pows, q_)
        return q_, [residues.residue_counts(sizes, form)[-1]
                    for form in forms]
    return modulus


class TestResidueFilter:
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_filter_matches_unfiltered_and_naive(self, chunk, dtype, data):
        # any modulus keeps the count, the join and the report; the sets
        # hold 0, negatives, +-a (equal powers at even d) and multiples
        # of the primes of q, chunk 7 cuts the class runs into many
        # windows, and object pows take the Python-int keys
        q = data.draw(st.sampled_from([3, 5, 7, 15, 35, 105, 385, 1155]))
        if data.draw(st.booleans()):
            sys_ = dio.validate_system((1, 1, -1, -1), data.draw(
                st.integers(2, 3)))
            K = dio.parse_subspace_file(PAIRINGS, sys_)
        else:
            s = data.draw(st.integers(3, 5))
            head = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                      min_size=s - 1, max_size=s - 1))
            assume(sum(head) != 0)
            sys_ = dio.validate_system(head + [-sum(head)],
                                       data.draw(st.integers(2, 3)))
            K = None
        primes = [p for p in (3, 5, 7, 11) if q % p == 0]
        A = set(data.draw(st.lists(st.integers(-12, 25), max_size=6)))
        A |= {p * k for p, k in data.draw(st.lists(st.tuples(
            st.sampled_from(primes), st.integers(-4, 4)), max_size=3))}
        if data.draw(st.booleans()):
            A |= {-a for a in A if a <= 12}
        A = sorted(A | {0})[:4 if sys_.s == 5 else 8]
        cap = data.draw(st.sampled_from([0, 1, 3, 1000]))
        tab, probe = dio._split_positions(sys_)
        tab_coeffs = [sys_.coeffs[p] for p in tab]
        probe_coeffs = [-sys_.coeffs[p] for p in probe]
        pows = np.array([a ** sys_.d for a in A], dtype=dtype)
        got = {}
        for forced in (1, q):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(residues, "modulus", _forced_modulus(forced))
                if chunk is not None:
                    mp.setattr(dio, "JOIN_CHUNK", chunk)
                report = dio.enumerate_solutions(A, sys_, K, cap=cap)
                count = dio._equal_sum_count(pows, tab_coeffs, probe_coeffs)
                join = [pair for probe_idx, tab_idx in dio._join_matches(
                            pows, tab_coeffs, probe_coeffs)
                        for pair in zip(probe_idx.tolist(), tab_idx.tolist())]
            got[forced] = (report.total, report.trivial, report.nontrivial,
                           report.witnesses, report.truncated, count, join)
        assert got[q] == got[1]
        naive = dio.enumerate_solutions_naive(A, sys_, K)
        assert got[q][:3] == (naive.total, naive.trivial, naive.nontrivial)
        assert got[q][5] == naive.total
        order = lambda w: ([w[p] for p in probe], [w[p] for p in tab])
        if naive.nontrivial <= len(naive.witnesses):  # the oracle kept all
            assert got[q][3] == sorted(naive.witnesses, key=order)[:cap]

    def test_one_form_picks_no_modulus(self, monkeypatch):
        # (1, 1, -1, -1) splits into one form, and so does every mean-value
        # count: both sides reach the same residues, so q = 1
        picked = []
        modulus = residues.modulus

        def spy(*args):
            out = modulus(*args)
            picked.append(out[0])
            return out

        monkeypatch.setattr(residues, "modulus", spy)
        pairs = dio.validate_system((1, 1, -1, -1), 2)
        A = ps_primes(10 ** 4, PSExponent(21, 20)).members.tolist()
        report = dio.enumerate_solutions(A, pairs)
        assert (report.total, report.nontrivial) == (1490711, 1489932)
        from pslab import expsum
        assert expsum.mean_value_count(3000, 2, 4) == 47461944
        assert expsum.mean_value_count(120, 2, 6) == 174786102
        assert picked == [1, 1, 1, 1]  # count and join, two counts

    def test_roth_avoider_modulus(self, monkeypatch):
        # on the 756-prime avoider set at 10^4 the rule picks 3*5*7*11,
        # with 34 classes of squares; count and join equal q = 1's
        c = PSExponent(21, 20)
        A, _ = dio.greedy_avoider(10 ** 4, c, ROTH, primes=ps_primes(10 ** 4, c))
        pows = np.array([a * a for a in A], dtype=np.int64)
        forms = [[1, -2], [-1]]
        runs = dio.JOIN_CHUNK // 4
        assert residues.modulus(pows, forms, math.inf, runs)[0] == 1155
        assert len(np.unique(pows % 1155)) == 34
        primes = ps_primes(10 ** 4, c).members.tolist()
        filtered = dio.enumerate_solutions(primes, ROTH, cap=1000)
        monkeypatch.setattr(residues, "MODULUS_PRIMES", ())
        plain = dio.enumerate_solutions(primes, ROTH, cap=1000)
        assert (filtered.total, filtered.trivial, filtered.witnesses) == \
            (plain.total, plain.trivial, plain.witnesses)
        assert (filtered.total, filtered.trivial, len(filtered.witnesses)) \
            == (831, 779, 52)

    def test_modulus_rule(self):
        # squares of primes >= 7 are 1 mod 3, so 3 never prunes Roth; 5
        # does (a^2 - 2b^2 reaches 2 and 3 mod 5, -c^2 does not) with 2
        # classes, 7 then with 7 classes mod 35 (7^2 = 14 mod 35 is one);
        # each class needs 16 elements, and q stays within room and the
        # run budget
        forms = [[1, -2], [-1]]
        primes = [p for p in sieve_primes(1000).tolist() if p >= 7]
        runs = dio.JOIN_CHUNK // 4
        for n, q in ((31, 1), (32, 5), (111, 5), (112, 35)):
            pows = np.array([p * p for p in primes[:n]], dtype=np.int64)
            assert residues.modulus(pows, forms, math.inf, runs)[0] == q
        assert residues.modulus(pows, forms, 34, runs)[0] == 5
        assert residues.modulus(pows, forms, 4, runs)[0] == 1
        q, counts = residues.modulus(pows, forms, math.inf, runs)
        assert [int(c.sum()) for c in counts] == [112 ** 2, 112]
        sizes = residues.class_sizes(pows, 35)
        wider = [residues.residue_counts(sizes, form) for form in forms]
        used = residues.run_count(sizes, forms, wider)
        target = np.logical_and(wider[0][-1] > 0, wider[1][-1] > 0)
        assert used == sum(len(residues.class_runs(
            dio._outer_sums(pows, form[:-1]), form[-1] * pows, 35, target,
            10 ** 7)[1]) for form in forms)
        assert residues.modulus(pows, forms, math.inf, used)[0] == 35
        assert residues.modulus(pows, forms, math.inf, used - 1)[0] == 5


def _brute_force_stream(pows, tab_coeffs, probe_coeffs):
    """Every (probe index, table index) of equal sums, ordered by probe
    index, then table index, from the whole ``_outer_sums`` of each half."""
    table = dio._outer_sums(pows, tab_coeffs)
    keys = dio._outer_sums(pows, probe_coeffs)
    return [(i, j) for i, key in enumerate(keys.tolist())
            for j in np.flatnonzero(table == key).tolist()]


def _join_stream(pows, tab_coeffs, probe_coeffs):
    """``_join_matches``' stream as (probe index, table index) pairs; every
    block holds at most JOIN_CHUNK rows."""
    got = []
    for probe_idx, tab_idx in dio._join_matches(pows, tab_coeffs,
                                                probe_coeffs):
        assert len(probe_idx) == len(tab_idx) <= dio.JOIN_CHUNK
        got += zip(probe_idx.tolist(), tab_idx.tolist())
    return got


# systems whose table's last two coefficients are equal: one form, signed
# and s = 6, and tables against a different probe form at s = 5 and 6
PAIR_SYSTEMS = [(1, 1, -1, -1), (-1, -1, 1, 1), (1, 1, 1, -1, -1, -1),
                (1, -4, 3, 3, -3), (2, -5, 3, 3, -2, -1)]


class TestJoinStream:
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stream_matches_brute_force(self, chunk, dtype, data):
        # s = 3 to 6 with and without equal last table coefficients, sets
        # with +-a (equal powers at even d), object pows at d = 9, any
        # forced modulus, and chunk 7, where a probe key's mirrored matches
        # straddle the block edges
        if data.draw(st.booleans()):
            coeffs = data.draw(st.sampled_from(PAIR_SYSTEMS))
        else:
            s = data.draw(st.integers(3, 6))
            head = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                      min_size=s - 1, max_size=s - 1))
            assume(sum(head) != 0)
            coeffs = head + [-sum(head)]
        sys_ = dio.validate_system(coeffs, 2)
        d = data.draw(st.sampled_from([2, 3])) if dtype is np.int64 else 9
        A = set(data.draw(st.lists(st.integers(-12, 25), min_size=1,
                                   max_size=5 if sys_.s >= 5 else 9)))
        if data.draw(st.booleans()):
            A |= {-a for a in A if a <= 12}
        A = sorted(A)[:5 if sys_.s >= 5 else 9]
        tab, probe = dio._split_positions(sys_)
        tab_coeffs = [sys_.coeffs[p] for p in tab]
        probe_coeffs = [-sys_.coeffs[p] for p in probe]
        pows = np.array([a ** d for a in A], dtype=dtype)
        q = data.draw(st.sampled_from([1, 3, 5, 7, 15, 35, 105]))
        want = _brute_force_stream(pows, tab_coeffs, probe_coeffs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(residues, "modulus", _forced_modulus(q))
            if chunk is not None:
                mp.setattr(dio, "JOIN_CHUNK", chunk)
            assert _join_stream(pows, tab_coeffs, probe_coeffs) == want

    @pytest.mark.parametrize("chunk", [None, 7, 1])
    def test_mirrored_matches_resorted_within_key(self, monkeypatch, chunk):
        # 0..7 and their negatives: every probe key of (1, 1, -1, -1) meets
        # many table pairs, whose mirrors interleave with them in index
        # order, and chunk 7 cuts these runs across blocks
        A = list(range(-7, 8))
        pows = np.array([a * a for a in A], dtype=np.int64)
        want = _brute_force_stream(pows, [1, 1], [1, 1])
        if chunk is not None:
            monkeypatch.setattr(dio, "JOIN_CHUNK", chunk)
        assert _join_stream(pows, [1, 1], [1, 1]) == want
        runs = Counter(i for i, _ in want)
        assert max(runs.values()) > 7

    def test_sums_formed(self, monkeypatch):
        # the table forms only the sums of the runs that can match (Roth
        # over the 779 primes: 67,161 of 779^2 = 606,841), and one of each
        # unordered pair of (1, 1, -1, -1) (600 * 601 / 2 of 600^2)
        formed = []
        join_table = dio._join_table

        def table_spy(*args):
            out = join_table(*args)
            formed.append(len(out[0]))
            return out

        monkeypatch.setattr(dio, "_join_table", table_spy)
        primes = ps_primes(10 ** 4, PSExponent(21, 20)).members.tolist()
        report = dio.enumerate_solutions(primes, ROTH)
        assert (report.total, report.nontrivial) == (831, 52)
        assert formed == [67161]
        pairs = dio.validate_system((1, 1, -1, -1), 2)
        dio.enumerate_solutions(primes[:600], pairs)
        assert formed == [67161, 180300]


def _class_runs_per_class(pre, last, q, target, stride):
    """Reference for ``residues.class_runs``: one class at a time, three
    numpy calls per class."""
    classes_of = np.asarray(last % q, dtype=np.int64)
    classes = np.flatnonzero(np.bincount(classes_of, minlength=q))
    offsets = np.zeros(q, dtype=last.dtype)
    offsets[classes] = [int(k) * stride for k in classes]
    keys = np.sort(last + offsets[classes_of])
    pre = pre[::-1]
    twice = np.concatenate([target, target])
    at = np.asarray(pre % q, dtype=np.int64)
    return keys, np.concatenate([
        offsets[k] - pre[np.flatnonzero(twice[at + k])] for k in classes])


def _same_array(got, want):
    """Equal dtype and entries, and for int64 the same bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
        assert all(type(v) is int for v in got.tolist())
    else:
        assert got.tobytes() == want.tobytes()


class TestResidues:
    def test_residue_by_floor_division(self):
        # int64 values of both signs, at and near +-2^62 and the int64
        # ends (within q of -2^63, v // q * q wraps and the wrap cancels)
        ends = [2 ** 62, 2 ** 62 - 1, 2 ** 62 + 1, 2 ** 63 - 1, -2 ** 63,
                -2 ** 63 + 1]
        values = ends + [-v for v in ends[:4]] + [0, 1, -1, 7, -7, 1154,
                                                  -1154, 1155, -1155]
        ints = np.array(values, dtype=np.int64)
        for q in (1, 2, 3, 35, 1155, 15015, 2 ** 31 - 1, 2 ** 62 + 3):
            got = residues.residue(ints, q)
            assert got.dtype == np.int64
            assert got.tolist() == [v % q for v in values]
        # object arrays of Python ints past int64 take %
        big = np.array([v * 3 ** 50 + k for k, v in enumerate(values)],
                       dtype=object)
        for q in (1, 35, 1155):
            got = residues.residue(big, q)
            assert got.dtype == object
            assert got.tolist() == [v % q for v in big.tolist()]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_class_runs_matches_per_class_loop(self, dtype, data):
        # random powers of both signs and forms of up to three
        # coefficients, any target (every residue included) and class
        # blocks from one class to all of them
        q = data.draw(st.sampled_from([1, 3, 5, 15, 35, 105]))
        values = data.draw(st.lists(st.integers(-60, 60), min_size=1,
                                    max_size=9, unique=True))
        exp = 2 if dtype is np.int64 else 25  # 60^25 > 2^147
        pows = np.array([v ** exp for v in values], dtype=dtype)
        form = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                  min_size=1, max_size=3))
        target = np.array(data.draw(st.lists(st.booleans(), min_size=q,
                                             max_size=q)))
        if data.draw(st.booleans()):
            target[:] = True
        stride = 10 ** 7 if dtype is np.int64 else 3 ** 200
        size = data.draw(st.sampled_from([None, 1, 2, 7, 64,
                                          dio.JOIN_CHUNK // 4]))
        pre = dio._outer_sums(pows, form[:-1])
        last = form[-1] * pows
        got = residues.class_runs(pre, last, q, target, stride, size)
        want = _class_runs_per_class(pre, last, q, target, stride)
        for g, w in zip(got, want):
            _same_array(g, w)

    def test_count_with_one_class_per_block(self, monkeypatch):
        # JOIN_CHUNK = 4 gives the count's class_runs blocks of one class;
        # at q = 35 the forms of Roth reach different residues, so some
        # (class, prefix) pairs are left out, and the runs and the count
        # are those of the per-class loop
        pows = np.array([p * p for p in sieve_primes(200).tolist()
                         if p >= 7], dtype=np.int64)
        calls = []
        real = residues.class_runs

        def spy(pre, last, q, target, stride, size):
            got = real(pre, last, q, target, stride, size)
            for g, w in zip(got, _class_runs_per_class(pre, last, q, target,
                                                       stride)):
                _same_array(g, w)
            calls.append((q, size, target.all()))
            return got

        monkeypatch.setattr(residues, "class_runs", spy)
        monkeypatch.setattr(residues, "modulus", _forced_modulus(35))
        monkeypatch.setattr(dio, "JOIN_CHUNK", 4)
        count = dio._equal_sum_count(pows, [1, -2], [-1])
        assert calls == [(35, 1, False)] * 2
        sums = Counter((pows[:, None] - 2 * pows).ravel().tolist())
        assert count == sum(sums[v] for v in (-pows).tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_class_sizes_and_residue_counts_brute_force(self, data):
        q = data.draw(st.integers(1, 35))
        values = data.draw(st.lists(st.integers(-50, 50), min_size=1,
                                    max_size=6))
        pows = np.array(values, dtype=np.int64)
        sizes = residues.class_sizes(pows, q)
        assert sizes.dtype == np.float64
        assert sizes.tolist() == [sum(v % q == r for v in values)
                                  for r in range(q)]
        form = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 5]),
                                  max_size=3))
        counts = residues.residue_counts(sizes, form)
        assert len(counts) == len(form) + 1
        for j, count in enumerate(counts):
            tuples = Counter(
                sum(c * v for c, v in zip(form, combo)) % q
                for combo in itertools.product(values, repeat=j))
            assert count.dtype == np.float64
            assert count.tolist() == [tuples[r] for r in range(q)]
        objects = residues.class_sizes(pows.astype(object) * 3 ** 50, q)
        assert objects.tolist() == [sum(v * 3 ** 50 % q == r
                                        for v in values) for r in range(q)]


class TestSumBlocks:
    @pytest.mark.parametrize("chunk", [1 << 20, 7, 1])
    @pytest.mark.parametrize("coeffs", [[3], [1, -2], [2, 1, -3]])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_blocks_tile_outer_sums(self, monkeypatch, chunk, coeffs, dtype):
        # object pows reach 11^30 > 2^103
        exp = 2 if dtype is np.int64 else 30
        pows = np.array([p ** exp for p in (2, 3, 5, 7, 11)], dtype=dtype)
        monkeypatch.setattr(dio, "JOIN_CHUNK", chunk)
        got = []
        for offset, block in dio._sum_blocks(pows, coeffs):
            assert offset == len(got) and 0 < len(block) <= chunk
            assert block.dtype == pows.dtype
            # the block's first sum is that of the tuple at index offset
            first = np.unravel_index(offset, (len(pows),) * len(coeffs))
            assert block[0] == sum(c * pows[i] for c, i in zip(coeffs, first))
            got.extend(block.tolist())
        assert got == dio._outer_sums(pows, coeffs).tolist()


class TestEqualSumCount:
    @pytest.mark.parametrize("chunk", [None, 7, 64])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_counter_oracle(self, dtype, chunk, data):
        # +-a share their power at even d, so equal powers, and diagonal
        # sums equal to sums with j > i, are common; the form comes in any
        # order, so the pair is not always last
        d = data.draw(st.integers(2, 4))
        form = data.draw(st.sampled_from(
            [[1, 1], [1, 1, 1], [3, 1, 1], [-2, -2], [5, -1, -1]]))
        left = data.draw(st.permutations(form))
        right = data.draw(st.permutations(form))
        A = data.draw(st.lists(st.integers(-9, 12), min_size=1,
                               max_size=12 if len(form) == 2 else 7,
                               unique=True))
        if data.draw(st.booleans()):
            A = sorted(set(A) | {-a for a in A})
        powers = data.draw(st.permutations([a ** d for a in A]))
        sums = Counter(sum(c * p for c, p in zip(form, combo)) for combo
                       in itertools.product(powers, repeat=len(form)))
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(dio, "JOIN_CHUNK", chunk)
            assert dio._equal_sum_count(np.array(powers, dtype=dtype),
                                        left, right) == \
                sum(r * r for r in sums.values())

    @pytest.mark.parametrize("chunk", [None, 64])
    def test_pair_builds_half_the_sums(self, monkeypatch, chunk):
        # k = 2: the windows build the n(n - 1)/2 sums with j > i and cut
        # the n diagonal sums, dense windows (1..40) and sparse ones alike
        powers = list(range(1, 41)) + [2 ** 40 + k * k for k in range(1, 21)]
        n = len(powers)
        built = {"pairs": 0, "diagonal": 0, "dense": 0}
        tally = dio._tally

        def spy(window, split, pair, span):
            built["pairs"] += split
            built["diagonal"] += len(window) - split
            built["dense"] += span > 0
            return tally(window, split, pair, span)

        monkeypatch.setattr(dio, "_tally", spy)
        if chunk is not None:
            monkeypatch.setattr(dio, "JOIN_CHUNK", chunk)
        sums = Counter(a + b for a in powers for b in powers)
        assert dio._equal_sum_count(np.array(powers), [1, 1], [1, 1]) == \
            sum(r * r for r in sums.values())
        assert (built["pairs"], built["diagonal"]) == (n * (n - 1) // 2, n)
        # chunk 64 cuts the dense sums of 1..40 into narrow windows
        assert (built["dense"] > 0) == (chunk == 64)

    @pytest.mark.parametrize("coeffs", [(1, 1, -1, -1), (1, 1, 1, 1, -4)],
                             ids=["pair-form", "two-forms"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_signed_sets_against_naive(self, coeffs, d):
        # (1, 1, -1, -1) counts one form with an equal pair; the s = 5
        # system splits into [1, 1, -4] and [1, 1], which share a pair
        # but are two forms
        sys_ = dio.validate_system(coeffs, d)
        for A in ([-5, -3, -1, 0, 1, 2, 3, 5], [-7, -4, 0, 1, 4, 6, 7, 8]):
            report = dio.enumerate_solutions(A, sys_, cap=1000)
            naive = dio.enumerate_solutions_naive(A, sys_)
            assert (report.total, report.trivial, report.nontrivial) == \
                (naive.total, naive.trivial, naive.nontrivial)
            assert report.nontrivial > 0
            if naive.nontrivial <= len(naive.witnesses):  # the oracle kept all
                assert set(report.witnesses) == set(naive.witnesses)

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_batch_and_block_edges(self, batch, chunk, dtype, data):
        # batches of 1-3 sums cut the prefix runs, and blocks of 1-3
        # entries the sorted runs, at every position; windows of chunk 7
        # often hold only diagonal sums of a pair
        left, right = data.draw(st.sampled_from([
            ([1, 2], [2, 1]),  # one form, no repeated coefficient
            ([1, 1], [1, 1]),  # a pair form
            ([3, 1, 1], [1, 3, 1]),  # a pair form with a prefix coordinate
            ([2, -1, 2, -1], [-1, 2, -1, 2]),  # two repeated coefficients
            ([1, -2], [-1]),  # two forms (Roth)
            ([1, 1, -4], [-1, -1]),  # two forms of the s = 5 system
        ]))
        d = data.draw(st.integers(2, 3))
        A = data.draw(st.lists(st.integers(-9, 12), min_size=1, max_size=8,
                               unique=True))
        powers = [a ** d for a in A]

        def tally(form):
            return Counter(sum(c * p for c, p in zip(form, combo)) for combo
                           in itertools.product(powers, repeat=len(form)))

        lsums, rsums = tally(left), tally(right)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dio, "SUM_BATCH", batch)
            mp.setattr(dio, "JOIN_CHUNK", chunk)
            assert dio._equal_sum_count(np.array(powers, dtype=dtype),
                                        left, right) == \
                sum(n * rsums[v] for v, n in lsums.items())

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_window_of_diagonal_sums_only(self, monkeypatch, dtype):
        # pair sums of {1, 2, 3, 100}: the 6 with j > i and the 4 diagonal
        # ones overflow a first window of chunk 7 over all of [2, 200], so
        # the windows narrow, and the last one builds no pair sum but holds
        # the diagonal sum 200
        windows = []
        tally = dio._tally

        def spy(window, split, pair, span):
            windows.append((split, len(window) - split))
            return tally(window, split, pair, span)

        monkeypatch.setattr(dio, "_tally", spy)
        monkeypatch.setattr(dio, "JOIN_CHUNK", 7)
        monkeypatch.setattr(dio, "SUM_BATCH", 1)
        # r(v) over 2..6, 101..103 and 200: 1, 2, 3, 2, 1, 2, 2, 2, 1
        assert dio._equal_sum_count(np.array([1, 2, 3, 100], dtype=dtype),
                                    [1, 1], [1, 1]) == 32
        assert (0, 1) in windows
        assert sum(u for u, _ in windows) == 6
        assert sum(e for _, e in windows) == 4


def _spy_argsort(monkeypatch):
    """Record the kind of each np.argsort call from here on."""
    calls = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(dio.np, "argsort", spy)
    return calls


class TestWeightedSum:
    def _weight(self, entries):
        weights = dict(entries)
        positions = sorted(weights)
        return SparseWeight(100, positions, [weights[n] for n in positions])

    def test_diagonal_power_sum(self):
        nu = self._weight({2: 0.1, 7: 1.3, 9: 2.7}.items())
        left, right = dio.k_trivial_weighted_sum(nu, 3, 0.25)
        expected = 0.0
        for w in nu.values.tolist():
            expected += w ** 3
        assert left == expected
        assert right == pytest.approx(nu.mass() ** 3 * 100 ** -1.25)

    def test_zero_weight(self):
        nu = self._weight([])
        left, right = dio.k_trivial_weighted_sum(nu, 3, 0.1)
        # a float zero, which the pipeline CSV prints as 0.0
        assert (left, right) == (0.0, 0.0) and type(left) is float


class TestGreedyAvoider:
    C = PSExponent(21, 20)

    def _run(self, x, sys_=ROTH):
        return dio.greedy_avoider(x, self.C, sys_, primes=ps_primes(x, self.C))

    @staticmethod
    def _hits(pool, m, sys_=ROTH):
        """The probe of ``pool`` with its own membership table."""
        return dio._block_hits(pool, m, sys_, dio._membership_table(pool))

    def test_small_run_verified(self):
        A, report = self._run(1000)
        assert report.nontrivial == 0
        # independent full verification
        naive = dio.enumerate_solutions_naive(A, ROTH)
        assert naive.nontrivial == 0

    def test_contains_first_sequence_prime(self):
        A, _ = self._run(100)
        assert A[0] == 2

    def test_tiny_x_empty(self):
        A, report = self._run(1)
        assert A == [] and report.total == 0

    def test_greedy_is_maximal(self):
        # every rejected prime would create a nontrivial solution
        A, _ = self._run(500)
        chosen = set(A)
        K = dio.diagonal_union(ROTH)
        for p in ps_primes(500, self.C).members:
            p = int(p)
            if p in chosen:
                continue
            report = dio.enumerate_solutions(sorted(chosen | {p}), ROTH, K)
            assert report.nontrivial > 0

    @pytest.mark.parametrize("coeffs, d, x", [
        ((1, -2, 1), 2, 500),
        ((1, -2, 1), 9, 300),  # 4 * 300^9 > 2^63: exact object path
        ((2, 3, -5), 2, 500),  # every solved coefficient is 2 or 3
        ((1, 1, -1, -1), 2, 300),
        ((1, 1, -1, -1), 9, 300),  # object path with rejections
        ((1, 1, 1, 1, -4), 2, 300),  # the theorem's s = 5 system
    ], ids=["roth-d2", "roth-d9-object", "non-unit-solve", "s4-diagonal",
            "s4-d9-object", "s5-theorem"])
    def test_first_fit_oracle(self, coeffs, d, x):
        sys_ = dio.validate_system(coeffs, d)
        A, report = self._run(x, sys_)
        assert report.nontrivial == 0
        for p in ps_primes(x, self.C).members.tolist():
            before = [a for a in A if a < p]
            clean = dio.enumerate_solutions(before + [p], sys_).nontrivial == 0
            assert (p in A) == clean, p

    def _check_block_hits(self, data):
        s = data.draw(st.integers(3, 5))
        coeffs = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                    min_size=s - 1, max_size=s - 1))
        assume(sum(coeffs) != 0)
        sys_ = dio.validate_system(coeffs + [-sum(coeffs)], 2)
        values = sorted(set(data.draw(st.lists(st.integers(1, 16),
                                               min_size=1, max_size=7))))
        m = data.draw(st.integers(0, len(values) - 1))
        dtype = data.draw(st.sampled_from([np.int64, object]))
        # every nontrivial solution through the block, as pool indices
        expected = {idx for idx in itertools.product(range(len(values)),
                                                     repeat=s)
                    if max(idx) >= m and len(set(idx)) > 1
                    and sum(c * values[i]
                            for c, i in zip(sys_.coeffs, idx)) == 0}
        pool = np.array(values, dtype=dtype)
        # blocks of 7: the row bases of s >= 4 come in several blocks
        for chunk in (dio.JOIN_CHUNK, 7):
            with mock.patch.object(dio, "JOIN_CHUNK", chunk):
                hits = self._hits(pool, m, sys_)
            assert hits.shape[1] == s
            found = set(map(tuple, hits.tolist()))
            assert found <= expected
            if s == 3:
                # charge-first: each row holds its largest index at a probed
                # position (s >= 4 leaves its lead coordinates uncapped)
                probed = self._probed(sys_)
                assert all(max(row[p] for p in probed) == max(row)
                           for row in found)
            # a one-candidate probe may stop at its first hits
            if len(values) == m + 1:
                assert bool(found) == bool(expected)
            else:
                # one of each class of solutions equal up to swapping
                # positions of equal coefficient
                assert ({self._canonical(idx, sys_) for idx in found}
                        == {self._canonical(idx, sys_) for idx in expected})

    @staticmethod
    def _probed(sys_):
        """The first position of each coefficient class whose sign another
        position's coefficient shares."""
        c = sys_.coeffs
        return [p for p in range(len(c)) if c.index(c[p]) == p
                and sum(cq * c[p] > 0 for cq in c) > 1]

    @staticmethod
    def _canonical(idx, sys_):
        """``idx`` sorted within each class of equal coefficients."""
        out = list(idx)
        for c in set(sys_.coeffs):
            where = [p for p, cp in enumerate(sys_.coeffs) if cp == c]
            for p, i in zip(where, sorted(idx[p] for p in where)):
                out[p] = i
        return tuple(out)

    @given(st.data())
    def test_candidate_test_matches_brute_force(self, data):
        self._check_block_hits(data)

    @pytest.mark.parametrize("slots", [1, 2])
    @given(st.data())
    def test_candidate_test_with_every_lookup_colliding(self, slots, data):
        # in a table of one or two slots every in-range residual hits, so
        # only the exact confirmation decides
        with mock.patch.object(dio, "TABLE_SLOTS_MAX", slots):
            self._check_block_hits(data)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_colliding_pool_values(self, dtype):
        # u and w share a slot of the table for three values; the
        # progression (u, w, 2w - u) must still be charged to its last term
        # and a near miss of it must not be
        size = dio._table_size(3)
        slots = dio._slots(np.arange(1, 200), size).tolist()
        u, w = next((u, w) for w in range(2, 200) for u in range(1, w)
                    if slots[u - 1] == slots[w - 1])
        for values, solved in (([u, w, 2 * w - u], True),
                               ([u, w, 2 * w - u + 1], False)):
            pool = np.array(values, dtype=dtype)
            table = dio._membership_table(pool)
            assert len(table) == size and table.sum() < 3
            found = set(map(tuple, dio._block_hits(pool, 2, ROTH,
                                                   table).tolist()))
            assert bool(found) == solved
            assert found <= {(0, 1, 2), (2, 1, 0)}

    def test_repeated_but_not_diagonal_indices_charged(self):
        # (1, 2, 2, 1) solves (1, 1, -1, -1) and repeats both of its
        # indices; only the all-equal tuples are skipped as diagonal
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        for dtype in (np.int64, object):
            pool = np.array([1, 2], dtype=dtype)
            assert self._hits(pool, 0, sys4).max(axis=1).min() == 1
            assert self._hits(pool, 1, sys4).max(axis=1).min() == 1

    def test_diagonal_hits_skip_classification(self):
        # over {1, 2} the Roth form has only the two diagonal solutions:
        # the lookup finds both, and the all-equal-index skip drops them;
        # over {1, 2, 3} the progression is found once, with its largest
        # element at the one probed position
        for dtype in (np.int64, object):
            assert not len(self._hits(np.array([1, 2], dtype=dtype), 0))
            hits = self._hits(np.array([1, 2, 3], dtype=dtype), 0)
            assert sorted(set(map(tuple, hits.tolist()))) == [(2, 1, 0)]

    def test_probe_lists_every_hit_of_a_block(self):
        # chosen {1, 5}, block {7, 13, 17}, squared: (7, 5, 1) is charged
        # to 7 and rejects it, and (17, 13, 7), charged to 17, runs through
        # the rejected 7; the probe lists each once, from its largest
        # element, and 13 and 17 are kept, as first fit keeps them
        pool = np.array([1, 5, 7, 13, 17]) ** 2
        hits = self._hits(pool, 2)
        assert sorted(map(tuple, hits.tolist())) == [(2, 1, 0), (4, 3, 2)]
        assert dio._resolve_block(hits, 2, 3) == [1, 2]

    def test_one_candidate_probe_stops_at_first_hits(self):
        # every hit rejects a block of one candidate, so its probe returns
        # the first batch of rows with a hit: with row bases in blocks of
        # 7, only the hits through 13 at position 0 whose y_2 lies among
        # the first 7 values
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        pool = np.arange(1, 14) ** 2
        with mock.patch.object(dio, "JOIN_CHUNK", 7):
            first = self._hits(pool, 12, sys4)
            whole = self._hits(pool, 11, sys4)
        charged = set(map(tuple, whole[whole.max(axis=1) == 12].tolist()))
        assert len(first) and set(map(tuple, first.tolist())) < charged
        assert (first[:, 0] == 12).all() and (first[:, 2] < 7).all()
        assert dio._resolve_block(first, 12, 1) == []

    def test_resolve_block(self):
        # m = 1, block offsets 0-2: (0, 1, 2) is charged to 1 through the
        # accepted 0 and rejects 1; (1, 2, 3), charged to 2, runs through
        # the rejected 1 and is void
        hits = np.array([[1, 2, 3], [0, 1, 2], [3, 2, 1]])
        assert dio._resolve_block(hits, 1, 3) == [0, 2]
        assert dio._resolve_block(hits[:0], 1, 3) == [0, 1, 2]
        assert dio._resolve_block(np.array([[0, 1, 0]]), 1, 3) == [1, 2]

    def test_table_size(self):
        assert dio._table_size(0) == 1
        assert dio._table_size(1) == 64
        assert dio._table_size(779) == 1 << 16  # the 10^4 cell: 64 KB
        assert dio._table_size(9967) == 1 << 20
        assert dio._table_size(10 ** 7) == dio.TABLE_SLOTS_MAX == 1 << 24

    def test_slots_mix_every_bit(self):
        # squares of odd primes and the Roth targets 2y - b over them are
        # all 1 mod 8: v & mask would leave 7 in 8 slots empty and hit 8
        # times the load; the multiplicative hash hits about the load
        members = sieve_primes(20000)[1:] ** 2
        table = dio._membership_table(members)
        size, load = len(table), len(members) / len(table)
        targets = (2 * members - members[:200, None]).ravel()
        targets = targets[(targets >= members[0]) & (targets <= members[-1])
                          & ~np.isin(targets, members)]
        assert table[dio._slots(targets, size)].mean() < 1.5 * load
        masked = np.zeros(size, dtype=bool)
        masked[members % size] = True
        assert masked[targets % size].mean() > 4 * load
        # object values hash as their residue mod 2^64
        slots = dio._slots(members, size)
        assert slots.max() < size
        big = members.astype(object)
        assert np.array_equal(dio._slots(big, size), slots)
        assert np.array_equal(dio._slots(big + (5 << 64), size), slots)
        assert not dio._slots(members, 1).any()

    def test_one_table_per_scan(self):
        primes = ps_primes(10 ** 4, self.C)
        with mock.patch.object(dio, "_block_hits",
                               wraps=dio._block_hits) as probe:
            dio.greedy_avoider(10 ** 4, self.C, ROTH, primes=primes)
        tables = {id(call.args[3]) for call in probe.call_args_list}
        assert len(tables) == 1
        table = probe.call_args_list[0].args[3]
        assert table.nbytes == 1 << 16
        assert table.sum() == len(np.unique(dio._slots(
            primes.members.astype(np.int64) ** 2, 1 << 16)))

    @pytest.mark.parametrize("coeffs, d, x", [
        ((1, -2, 1), 2, 500),
        ((1, -2, 1), 9, 300),  # object dtype
        ((1, 1, -1, -1), 2, 300),
    ])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_shrunk_table_keeps_the_set(self, coeffs, d, x, slots):
        # in a table of one or two slots each rejected candidate shares a
        # slot with chosen ones, which every later probe must still find
        sys_ = dio.validate_system(coeffs, d)
        A, _ = self._run(x, sys_)
        with mock.patch.object(dio, "TABLE_SLOTS_MAX", slots):
            assert self._run(x, sys_)[0] == A

    def test_candidate_as_solved_coordinate(self):
        # the one solution through 17 is (12, 17, 17, 13): 17 fills both
        # positions of smallest |coefficient|, so it is only ever solved for
        sys_ = dio.validate_system((-4, 1, -2, 5), 2)
        pool = np.array([12, 13, 17])
        hits = self._hits(pool, 2, sys_)
        assert set(map(tuple, hits.tolist())) == {(0, 2, 2, 1)}

    def test_run_bounds_for_negative_slope(self):
        # (2, 9, 6, 1) solves (1, -2, 3, -2) and holds the block member 9
        # only at position 1, where y_0 = 2 y_1 - 3 y_2 + 2 y_3 is solved
        # for and the last free value y_2 runs with slope -3: its bounds
        # are the ceil and floor of the range's ends divided by -3, swapped
        sys_ = dio.validate_system((1, -2, 3, -2), 2)
        for dtype in (np.int64, object):
            pool = np.array([1, 2, 6, 9], dtype=dtype)
            assert self._hits(pool, 3, sys_).tolist() == [[1, 3, 2, 0]]

    def _probes(self, members, sys_=ROTH):
        """The avoider over ``members`` and its probes' (block, charges)."""
        probes, real = [], dio._block_hits

        def spy(pool, m, *args):
            hits = real(pool, m, *args)
            charges = sorted(set((hits.max(axis=1) - m).tolist()))
            probes.append((pool[m:].tolist(), charges))
            return hits

        primes = PSPrimeSet(x=100, c=self.C, members=np.array(members))
        with mock.patch.object(dio, "_block_hits", spy):
            A, report = dio.greedy_avoider(100, self.C, sys_, primes=primes)
        assert report.nontrivial == 0
        return A, probes

    def test_solution_charged_to_later_block_member(self):
        # 1 + 49 = 2 * 25: the solution (1, 5, 7) runs through the one
        # block [1, 5, 7] and is charged to 7 (offset 2), so 5 is kept and
        # 7 is rejected
        A, probes = self._probes([1, 5, 7])
        assert probes == [([1, 25, 49], [2])]
        assert A == [1, 5]

    def test_hit_through_rejected_member_is_void(self):
        # (1, 5, 7) rejects 7 (offset 4) in mid-block; (7, 13, 17),
        # charged to 17 (offset 6), runs through the rejected 7, so 13 and
        # 17 are kept by the same probe, with no second probe of the block
        A, probes = self._probes([1, 2, 3, 5, 7, 13, 17])
        assert probes == [([1, 4, 9, 25, 49, 169, 289], [4, 6])]
        assert A == [1, 2, 3, 5, 13, 17]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_resolution_matches_first_fit(self, data):
        # random pools against the one-candidate-at-a-time oracle: s = 3 to
        # 5, coefficients of both signs and up to 3 in size (so solved ones
        # above 1 and both run-bound branches), int64 and object (d = 9,
        # 4 * 140^9 > 2^63) pools, and tables of one or two slots
        s = data.draw(st.integers(3, 5))
        coeffs = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                    min_size=s - 1, max_size=s - 1))
        assume(sum(coeffs) != 0)
        d = data.draw(st.sampled_from([2, 9]))
        sys_ = dio.validate_system(coeffs + [-sum(coeffs)], d)
        values = sorted(set(data.draw(st.lists(st.integers(1, 16),
                                               min_size=1, max_size=12)))
                        | ({140} if d == 9 else set()))
        slots = data.draw(st.sampled_from([dio.TABLE_SLOTS_MAX, 1, 2]))
        primes = PSPrimeSet(x=100, c=self.C, members=np.array(values))
        with mock.patch.object(dio, "TABLE_SLOTS_MAX", slots):
            A, report = dio.greedy_avoider(100, self.C, sys_, primes=primes)
        assert report.nontrivial == 0
        oracle = []
        for p in values:
            if not dio.enumerate_solutions(oracle + [p], sys_).nontrivial:
                oracle.append(p)
        assert A == oracle

    def test_scan_probes_blocks(self):
        # each block is the largest power of two B with B (m + B) <= 2^16:
        # 256, 128, 128, 64, 64, 64, 64 and the last 11 of the 779 primes
        primes = ps_primes(10 ** 4, self.C)
        with mock.patch.object(dio, "_block_hits",
                               wraps=dio._block_hits) as probe:
            A, _ = dio.greedy_avoider(10 ** 4, self.C, ROTH, primes=primes)
        assert len(A) == 756
        assert probe.call_count == 8

    def test_power_dtype_bound(self):
        assert exact_powers([(2 ** 63 - 1) // 4], 1, 4).dtype == np.int64
        assert exact_powers([2 ** 61], 1, 4).dtype == object
        assert exact_powers([293], 9, 4).dtype == object

    def test_chunked_stream_matches(self, monkeypatch):
        sys4 = dio.validate_system((1, 1, -1, -1), 2)
        whole = self._run(300, sys4)[0]
        monkeypatch.setattr(dio, "JOIN_CHUNK", 7)
        assert self._run(300, sys4)[0] == whole

    def test_primes_for_other_cell_rejected(self):
        with pytest.raises(ValueError):
            dio.greedy_avoider(1000, self.C, ROTH,
                               primes=ps_primes(999, self.C))
        with pytest.raises(ValueError):
            dio.greedy_avoider(1000, self.C, ROTH,
                               primes=ps_primes(1000, PSExponent(3, 2)))

    def test_unsorted_primes_rejected(self):
        primes = PSPrimeSet(x=100, c=self.C, members=np.array([5, 3, 7]))
        with pytest.raises(ValueError):
            dio.greedy_avoider(100, self.C, ROTH, primes=primes)

"""Exponential sums, sawtooth approximation, grids, counts, and arcs."""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslab import diophantine, expsum, wtrick
from pslab.ps_core import PSExponent, ps_primes
from pslab.wtrick import SparseWeight


def _cell_majorant(x, d, toy_w=32, c=PSExponent(21, 20)):
    """The majorant a pipeline cell builds at (x, d, c, toy_w)."""
    primes = ps_primes(x, c).members
    params = wtrick.w_params(x, d, toy_w=toy_w)
    b, _ = wtrick.choose_b(primes, params, c)
    return wtrick.build_majorant(primes, b, params, c)


def _weight(N, weights):
    """The SparseWeight with weights[n] at each position n."""
    positions = sorted(weights)
    return SparseWeight(N, positions, [weights[n] for n in positions])


def _interval_kernel(N, M):
    """sum_{n=1}^{N} e(jn/M) for j < M in closed form, every phase reduced
    in integer arithmetic:
    e(j(N+1)/(2M)) sin(pi jN/M) / sin(pi j/M), with j(N+1) and jN mod 2M."""
    out = np.empty(M, dtype=complex)
    out[0] = N
    for j in range(1, M):
        turn = math.pi * ((j * (N + 1)) % (2 * M)) / M
        out[j] = (cmath.exp(1j * turn)
                  * math.sin(math.pi * ((j * N) % (2 * M)) / M)
                  / math.sin(math.pi * j / M))
    return out


def _weyl_loop(x, d, alpha):
    """weyl_sum as a loop of cmath terms: the oracle of its phases."""
    num, den = Fraction(alpha).as_integer_ratio()
    total = 0j
    for n in range(1, x + 1):
        total += cmath.exp(2j * math.pi * ((num * pow(n, d, den)) % den / den))
    return total


class TestWeylSum:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 9),
           st.one_of(st.floats(-4, 4, allow_nan=False),
                     st.fractions(-4, 4, max_denominator=2 ** 64),
                     st.integers(2 ** 53, 2 ** 70).map(
                         lambda q: Fraction(q // 3, q))))
    def test_equal_to_the_loop(self, x, d, alpha):
        assert expsum.weyl_sum(x, d, alpha) == _weyl_loop(x, d, alpha)

    def test_equal_to_the_loop_across_blocks(self):
        # 70000 terms span two blocks of 2^16; 0.1 has den 2^55 > 2^53
        for alpha in (Fraction(1, 7), 0.1):
            assert expsum.weyl_sum(70000, 3, alpha) == \
                _weyl_loop(70000, 3, alpha)

    def test_alpha_zero(self):
        assert expsum.weyl_sum(17, 2, Fraction(0)) == pytest.approx(17)

    def test_alternating_cancellation(self):
        # d=2, alpha=1/2: n^2 has the parity of n, so even x cancels
        assert abs(expsum.weyl_sum(10, 2, Fraction(1, 2))) < 1e-12

    def test_against_exact_phase_oracle(self):
        x, d = 10, 2
        expected = sum(cmath.exp(2j * math.pi * (n * n % 5) / 5)
                       for n in range(1, x + 1))
        assert expsum.weyl_sum(x, d, Fraction(1, 5)) == pytest.approx(expected)

    def test_degree_zero_and_negative(self):
        # n^0 = 1, so the sum is x e(alpha); a negative d would reduce
        # modular inverses, or fail where n and q share a factor
        assert expsum.weyl_sum(5, 0, Fraction(1, 7)) == \
            5 * cmath.exp(2j * math.pi * (1 / 7))
        for x in (5, 1):
            with pytest.raises(ValueError, match="d >= 0"):
                expsum.weyl_sum(x, -1, Fraction(1, 7))

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=2, max_value=4),
           st.floats(min_value=0, max_value=1, exclude_max=True,
                     allow_nan=False))
    def test_trivial_bound(self, x, d, alpha):
        assert abs(expsum.weyl_sum(x, d, alpha)) <= x + 1e-9


class TestSawtooth:
    def test_values(self):
        assert expsum.psi(0.25) == pytest.approx(-0.25)
        assert expsum.psi(3.0) == pytest.approx(-0.5)
        assert expsum.psi(-0.25) == pytest.approx(0.25)


class TestVaaler:
    @pytest.mark.parametrize("H", [8, 16, 32, 64])
    def test_pointwise_majorant(self, H):
        approx = expsum.vaaler_approx(H)
        stats = expsum.psi_error_stats(approx, grid_size=20_000)
        assert stats.bound_holds

    def test_mean_error_at_16(self):
        approx = expsum.vaaler_approx(16)
        stats = expsum.psi_error_stats(approx, grid_size=20_000)
        assert stats.mean_error <= 2 / 17

    def test_mean_error_scaling(self):
        means = []
        for H in (8, 16, 32, 64):
            stats = expsum.psi_error_stats(expsum.vaaler_approx(H),
                                           grid_size=20_000)
            means.append(stats.mean_error)
        for a, b in zip(means, means[1:]):
            assert 2 / 1.5 <= a / b <= 2 * 1.5

    def test_coefficient_envelopes(self):
        approx = expsum.vaaler_approx(32)
        hs = np.arange(1, 33)
        coeff = np.abs(approx.a / (np.pi * hs))
        assert np.all(coeff <= approx.C_a / hs + 1e-15)
        assert np.all(approx.b <= approx.C_b / approx.H + 1e-15)

    def test_psi_star_real_and_odd(self):
        approx = expsum.vaaler_approx(16)
        t = np.linspace(0.01, 0.49, 50)
        plus = expsum.eval_psi_star(approx, t)
        minus = expsum.eval_psi_star(approx, -t)
        assert np.allclose(plus, -minus)

    def test_h_too_small(self):
        with pytest.raises(ValueError):
            expsum.vaaler_approx(1)


class TestFourierGrid:
    def test_unit_mass_flat_modulus(self):
        f = _weight(10, {3: 1.0})
        grid = expsum.fourier_grid(f, 64)
        assert np.allclose(np.abs(grid.values), 1.0)

    def test_indicator_dirichlet_kernel(self):
        N, M = 16, 128
        f = _weight(N, {n: 1.0 for n in range(1, N + 1)})
        grid = expsum.fourier_grid(f, M)
        assert np.all(np.abs(grid.values) <= N + 1e-9)
        assert np.allclose(grid.values, _interval_kernel(N, M))

    def test_matches_direct_summation(self):
        rng = random.Random(7)
        N, M = 50, 400
        weights = {rng.randrange(1, N + 1): rng.random() for _ in range(20)}
        f = _weight(N, weights)
        grid = expsum.fourier_grid(f, M)
        for j in rng.sample(range(M), 20):
            direct = sum(w * cmath.exp(2j * math.pi * j * n / M)
                         for n, w in weights.items())
            assert grid.values[j] == pytest.approx(direct, abs=1e-8)

    def test_linearity(self):
        rng = random.Random(11)
        N, M = 30, 256
        f = _weight(N, {rng.randrange(1, N + 1): rng.random()
                        for _ in range(10)})
        g = _weight(N, {rng.randrange(1, N + 1): rng.random()
                        for _ in range(10)})
        both = dict(f.weights)
        for n, w in g.weights.items():
            both[n] = both.get(n, 0.0) + w
        fg = expsum.fourier_grid(_weight(N, both), M)
        sep = expsum.fourier_grid(f, M).values + expsum.fourier_grid(g, M).values
        assert np.allclose(fg.values, sep, atol=1e-9)

    def test_parseval(self):
        rng = random.Random(13)
        N, M = 40, 128
        weights = {n: rng.random() for n in range(1, N + 1)}
        f = _weight(N, weights)
        grid = expsum.fourier_grid(f, M)
        lhs = float(np.mean(np.abs(grid.values) ** 2))
        rhs = sum(w * w for w in weights.values())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_coarse_grid_is_exact(self):
        # M < N folds 3 and 53 onto one residue; each sample stays exact
        N, M = 100, 50
        f = _weight(N, {3: 1.0, 53: 2.0, 70: 0.5})
        grid = expsum.fourier_grid(f, M)
        assert (grid.M, grid.N, grid.mass) == (M, N, 3.5)
        for j in range(M):
            direct = sum(w * cmath.exp(2j * math.pi * j * n / M)
                         for n, w in f.weights.items())
            assert grid.values[j] == pytest.approx(direct, abs=1e-12)

    def test_sparse_transform_agrees_with_grid(self):
        rng = random.Random(5)
        N, M = 60, 256
        f = _weight(N, {rng.randrange(1, N + 1): rng.random()
                        for _ in range(25)})
        grid = expsum.fourier_grid(f, M)
        alphas = np.arange(M) / M
        direct = expsum.sparse_transform(f, alphas)
        assert np.allclose(direct, grid.values, atol=1e-8)

    def test_sparse_transform_exact_phases_at_large_positions(self):
        # d = 4 puts positions near 2^54.5, where an alpha*n product in
        # floating point (even 80-bit) loses the phase
        nu = _cell_majorant(3 * 10 ** 4, 4)
        assert max(nu.weights) > 2 ** 54
        M = 4096
        direct = expsum.sparse_transform(nu, np.arange(M) / M)
        off = float(np.max(np.abs(direct - expsum._fold(nu, M))))
        assert off <= 1e-12 * nu.mass()

    def test_sparse_transform_big_integer_phases(self):
        # alpha = 0.1 is num/2^55 in binary, so num*(n mod den) needs
        # Python integers; check against Fraction phases
        rng = random.Random(17)
        weights = {rng.randrange(2 ** 60, 2 ** 62): rng.random()
                   for _ in range(8)}
        f = _weight(2 ** 62, weights)
        for alpha in (0.1, -0.3, 1e-12):
            exact = sum(w * cmath.exp(2j * math.pi
                                      * float(Fraction(alpha) * n % 1))
                        for n, w in weights.items())
            got = expsum.sparse_transform(f, np.array([alpha]))[0]
            assert got == pytest.approx(exact, abs=1e-12)


class TestPositionsPastInt64:
    """Weights with positions at and beyond 2^63, stored as exact ints."""

    @staticmethod
    def _big_weight():
        rng = random.Random(31)
        weights = {rng.randrange(2 ** 63, 2 ** 70): rng.random()
                   for _ in range(12)}
        weights.update({2 ** 63: 0.5, 2 ** 63 - 1: 0.25, 7: 1.5})
        return weights, _weight(2 ** 70, weights)

    @staticmethod
    def _exact(weights, alpha):
        return sum(w * cmath.exp(2j * math.pi * float(alpha * n % 1))
                   for n, w in weights.items())

    def test_fold_against_fraction_phases(self):
        weights, f = self._big_weight()
        assert f.positions.dtype == object
        for M in (1, 7, 64, 1000):
            values = expsum._fold(f, M)
            for j in range(M):
                want = self._exact(weights, Fraction(j, M))
                assert values[j] == pytest.approx(want, abs=1e-12)

    def test_sparse_transform_against_fraction_phases(self):
        weights, f = self._big_weight()
        alphas = [0.1, -0.3, 1e-12, 1 / 3, 0.5, 0.0]
        got = expsum.sparse_transform(f, np.array(alphas))
        for alpha, value in zip(alphas, got):
            want = self._exact(weights, Fraction(alpha))
            assert value == pytest.approx(want, abs=1e-12)

    def test_majorant_past_int64_transforms_like_its_fold(self):
        # x = 1.4*10^5 at d = 4 puts the top positions near 1.2*10^19
        nu = _cell_majorant(14 * 10 ** 4, 4)
        assert nu.positions.dtype == object
        assert nu.positions[-1] >= 2 ** 63 > nu.positions[0]
        M = 256
        direct = expsum.sparse_transform(nu, np.arange(M) / M)
        off = float(np.max(np.abs(direct - expsum._fold(nu, M))))
        assert off <= 1e-12 * nu.mass()


class TestRationalPoints:
    """sparse_transform reads each point exactly, a Fraction as itself."""

    @pytest.mark.parametrize("x", [3 * 10 ** 4, 14 * 10 ** 4])
    def test_majorant_at_a_over_q_matches_the_fold(self, x):
        # int64 positions up to 2^54.5 at 3*10^4, positions past 2^63 at
        # 1.4*10^5; the double nearest 1/3 is off by 1/(3*2^54), a phase
        # error of up to half a cycle at 2^54.5 and of many cycles past 2^63
        nu = _cell_majorant(x, 4)
        for q in range(1, 10):
            got = expsum.sparse_transform(nu, [Fraction(a, q)
                                               for a in range(q)])
            off = float(np.max(np.abs(got - expsum._fold(nu, q))))
            assert off <= 1e-12 * nu.mass(), q

    @staticmethod
    def _check_phases(alpha, positions):
        # the docstring's claim: only residue/den rounds, so each phase is
        # frac(alpha*n) correctly rounded, within 2^-52 cycles
        positions = sorted(set(positions))
        pos = SparseWeight(positions[-1] + 1, positions,
                           [1.0] * len(positions)).positions
        got = expsum._reduced_phases(alpha, pos)
        assert got.dtype == float
        for n, phase in zip(positions, got.tolist()):
            exact = Fraction(alpha) * n % 1
            assert phase == float(exact)
            assert abs(Fraction(phase) - exact) <= Fraction(1, 2 ** 52)

    _alphas = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.fractions(max_denominator=10 ** 6),
        # den past 2^53 with num*(den - 1) < 2^63: int64 products whose
        # residues and den are no longer exact doubles
        st.builds(Fraction, st.integers(0, 2 ** 8),
                  st.integers(2 ** 53, 2 ** 63 - 1)))

    @settings(max_examples=150, deadline=None)
    @given(_alphas, st.lists(st.integers(0, 2 ** 63 - 1), min_size=1,
                             max_size=12))
    def test_int64_positions(self, alpha, positions):
        self._check_phases(alpha, positions)

    @settings(max_examples=100, deadline=None)
    @given(_alphas, st.lists(st.integers(2 ** 63, 2 ** 90), min_size=1,
                             max_size=12))
    def test_positions_past_int64(self, alpha, positions):
        self._check_phases(alpha, positions)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2 ** 100, 2 ** 100), st.integers(2 ** 63, 2 ** 100),
           st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=12))
    def test_denominator_past_int64(self, num, den, positions):
        self._check_phases(Fraction(num, den), positions)


class TestFold:
    def test_matches_long_double_phases_at_d2(self):
        # at d = 2 the positions stay below 2^22, where long-double phase
        # products are accurate to far below 1e-12 cycles, so they are a
        # fair reference
        nu = _cell_majorant(10 ** 4, 2)
        M = 4096
        pos, vals = nu.positions, nu.values
        alphas = (np.arange(M) / M).astype(np.longdouble)
        ph = np.mod(alphas[:, None] * pos.astype(np.longdouble)[None, :], 1.0)
        ref = np.exp(2j * np.pi * ph.astype(float)) @ vals
        off = float(np.max(np.abs(expsum._fold(nu, M) - ref)))
        assert off <= 1e-12 * nu.mass()

    def test_parseval_on_folded_weights(self):
        rng = random.Random(23)
        N, M = 500, 64  # M < N, so residues collide
        weights = {rng.randrange(1, N + 1): rng.random() for _ in range(80)}
        folded = [0.0] * M
        for n, w in weights.items():
            folded[n % M] += w
        values = expsum._fold(_weight(N, weights), M)
        assert float(np.mean(np.abs(values) ** 2)) == pytest.approx(
            sum(v * v for v in folded), rel=1e-12)

    def test_positions_beyond_int64(self):
        big = 2 ** 64 + 3
        f = _weight(2 ** 65, {big: 1.0, 5: 2.0})
        assert f.positions.dtype == object
        assert f.positions.tolist() == [5, big]
        M = 8
        values = expsum._fold(f, M)
        for j in range(M):
            want = (cmath.exp(2j * math.pi * (j * (big % M) % M) / M)
                    + 2 * cmath.exp(2j * math.pi * (5 * j % M) / M))
            assert values[j] == pytest.approx(want, abs=1e-12)

    def test_empty_weight_and_bad_size(self):
        assert np.all(expsum._fold(_weight(5, {}), 4) == 0)
        with pytest.raises(ValueError):
            expsum._fold(_weight(5, {1: 1.0}), 0)

    def test_decay_with_fewer_samples_than_window(self):
        rng = random.Random(29)
        N, M = 300, 32
        weights = {rng.randrange(1, N + 1): 2 * rng.random()
                   for _ in range(60)}
        f = _weight(N, weights)

        def direct(weight, j):
            return sum(w * cmath.exp(2j * math.pi * (j * n % M) / M)
                       for n, w in weight.items())

        ones = {n: 1.0 for n in range(1, N + 1)}
        want = max(abs(direct(weights, j) - direct(ones, j))
                   for j in range(M)) / N
        assert expsum.fourier_decay_sampled(expsum.fourier_grid(f, M)) == \
            pytest.approx(want, rel=1e-9)


# N < M, N = kM, N = kM + r, M not a power of two, and N past 2^63, where
# a float phase alpha*(N+1) keeps no fractional bits
INTERVAL_CASES = [(5, 64), (128, 64), (3 * 64, 64), (3 * 96 + 17, 96),
                  (1000, 4096), (2 ** 63 + 12345, 4096), (10 ** 19 + 7, 97),
                  (2 ** 70 + 5 * 1000 + 1, 1000)]


class TestIntervalKernel:
    """1_[N]_hat in fourier_decay_sampled against the closed form."""

    @pytest.mark.parametrize("N, M", [(N, M) for N, M in INTERVAL_CASES
                                      if N * M <= 10 ** 5])
    def test_oracle_matches_direct_sum(self, N, M):
        oracle = _interval_kernel(N, M)
        for j in range(M):
            direct = sum(cmath.exp(2j * math.pi * (j * n % M) / M)
                         for n in range(1, N + 1))
            assert oracle[j] == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("N, M", INTERVAL_CASES)
    def test_decay_kernel_matches_oracle(self, N, M):
        # a grid holding the oracle itself: decay * N is the kernel's error
        oracle = _interval_kernel(N, M)
        grid = expsum.FourierGrid(M=M, N=N, values=oracle, mass=float(N))
        assert expsum.fourier_decay_sampled(grid) * N <= 1e-12 * M


def _ones(N):
    return _weight(N, {n: 1.0 for n in range(1, N + 1)})


def _dense_fft(f, M):
    """f_hat(j/M) from the zero-padded dense array of f (needs M > N)."""
    dense = np.zeros(M)
    for n, w in f.weights.items():
        dense[n] = w
    return np.fft.ifft(dense) * M


class TestDecayAndRestriction:
    def test_indicator_has_zero_decay(self):
        N = 32
        grid = expsum.fourier_grid(_ones(N), 4 * N)
        assert expsum.fourier_decay_sampled(grid) == pytest.approx(0, abs=1e-9)

    def test_zero_weight_decay_one(self):
        f = _weight(32, {})
        for M in (16, 128):  # below and above N
            grid = expsum.fourier_grid(f, M)
            assert expsum.fourier_decay_sampled(grid) == pytest.approx(1)

    def test_sampled_matches_fft_on_small_case(self):
        rng = random.Random(3)
        N, M = 64, 256
        f = _weight(N, {rng.randrange(1, N + 1): rng.random()
                        for _ in range(20)})
        full = np.max(np.abs(_dense_fft(f, M) - _dense_fft(_ones(N), M))) / N
        sampled = expsum.fourier_decay_sampled(expsum.fourier_grid(f, M))
        assert sampled == pytest.approx(full, rel=1e-9)

    def test_restriction_unit_mass(self):
        f = _weight(16, {5: 1.0})
        grid = expsum.fourier_grid(f, 64)
        for u in (2.0, 4.5, 7.0):
            moment, _ = expsum.restriction_moment_sampled(grid, u)
            assert moment == pytest.approx(1)

    def test_restriction_parseval(self):
        N = 24
        f = _weight(N, {n: 1.0 for n in range(1, N + 1)})
        grid = expsum.fourier_grid(f, 2 * N)
        moment, ratio = expsum.restriction_moment_sampled(grid, 2.0)
        assert moment == pytest.approx(N, rel=1e-9)
        assert ratio == pytest.approx(N * N / (N ** 2), rel=1e-9)

    def test_restriction_sampled_agrees(self):
        rng = random.Random(9)
        N, M = 32, 128
        f = _weight(N, {rng.randrange(1, N + 1): rng.random()
                        for _ in range(12)})
        full = float(np.mean(np.abs(_dense_fft(f, M)) ** 6.0))
        sampled, _ = expsum.restriction_moment_sampled(
            expsum.fourier_grid(f, M), 6.0)
        assert sampled == pytest.approx(full, rel=1e-9)

    def test_invalid_u(self):
        f = _weight(4, {1: 1.0})
        with pytest.raises(ValueError):
            expsum.restriction_moment_sampled(expsum.fourier_grid(f, 8), 0)


class TestMeanValue:
    def test_x_one(self):
        assert expsum.mean_value_count(1, 2, 4) == 1

    def test_s_two_diagonal(self):
        assert expsum.mean_value_count(50, 2, 2) == 50

    def test_quadruple_oracle(self):
        assert expsum.mean_value_count(10, 2, 4) == \
            expsum.mean_value_count_naive(10, 2, 4)

    def test_windowed_path_matches_naive(self):
        for x, d in ((50, 2), (30, 3)):
            assert expsum.mean_value_count(x, d, 4) == \
                expsum.mean_value_count_naive(x, d, 4)

    def test_generic_path_matches_naive(self):
        assert expsum.mean_value_count(8, 2, 6) == \
            expsum.mean_value_count_naive(8, 2, 6)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            expsum.mean_value_count(10, 2, 3)

    def test_degree_zero_and_negative(self):
        # every m^0 is 1, so every S-tuple counts; at d < 0 the powers
        # would be floats truncated into an integer array
        assert expsum.mean_value_count(5, 0, 2) == 5 ** 2
        assert expsum.mean_value_count(5, 0, 4) == 5 ** 4
        assert expsum.mean_value_count(5, 0, 6) == 5 ** 6
        quad, count = expsum.quadrature_vs_count(5, 0, 2, 64)
        assert count == 25 and quad == pytest.approx(count)
        for S in (2, 4, 6):
            with pytest.raises(ValueError, match="d >= 0"):
                expsum.mean_value_count(5, -1, S)

    def test_generic_path_budget(self, monkeypatch):
        assert 120 ** 3 <= expsum.MEAN_VALUE_BUDGET  # perfbench's (120, 2, 6)
        monkeypatch.setattr(expsum, "MEAN_VALUE_BUDGET", 5 ** 3 - 1)
        with pytest.raises(expsum.CountRefusedError):
            expsum.mean_value_count(5, 2, 6)
        assert expsum.mean_value_count(4, 2, 6) == \
            expsum.mean_value_count_naive(4, 2, 6)
        # S = 4 beyond the pair path's int64 range takes the generic path
        with pytest.raises(expsum.CountRefusedError):
            expsum.mean_value_count(12, 30, 4)

    @pytest.mark.parametrize("chunk", [None, 7])
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kernel_matches_naive(self, chunk, data):
        # chunk 7 is below x^(S/2-1) for most draws, so windows are halved
        # down to width 1 and doubled again after sparse stretches
        S = data.draw(st.sampled_from([2, 4, 6]))
        d = data.draw(st.integers(0, 5))
        x = data.draw(st.integers(1, {2: 60, 4: 25, 6: 9}[S]))
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(diophantine, "JOIN_CHUNK", chunk)
            assert expsum.mean_value_count(x, d, S) == \
                expsum.mean_value_count_naive(x, d, S)

    def test_object_dtype_matches_naive(self):
        assert 2 * 5 ** 30 >= 2 ** 63  # sums past int64: Python-int arrays
        assert expsum.mean_value_count(5, 30, 4) == \
            expsum.mean_value_count_naive(5, 30, 4)

    def test_wide_windows_keep_distinct_sums(self, monkeypatch):
        # offsets that differ by 2^32 would collide if they were cast to
        # int32: sparse sums widen the windows past 2^32, and a chunk of
        # 2^33 makes the first window of [1, 2^31 + 1] the whole range
        # [2, 2^32 + 2], narrower than 2^33 and holding both ends
        def check(powers):
            sums = Counter(a + b for a in powers for b in powers)
            assert diophantine._equal_sum_count(
                np.array(powers, dtype=np.int64), [1, 1], [1, 1]) == \
                sum(r * r for r in sums.values())

        check([1, 2 ** 40, 2 ** 40 + 2 ** 32, 2 ** 41 + 2 ** 33])
        monkeypatch.setattr(diophantine, "JOIN_CHUNK", 2 ** 33)
        check([1, 2 ** 31 + 1])

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("left, right", [([1, 1], [1, 1]),
                                             ([1, 1], [2, -1])],
                             ids=["one-form", "two-forms"])
    def test_dense_and_sparse_windows(self, monkeypatch, dtype, left, right):
        # sums of 1..40 fill their windows and are tallied by bincount;
        # sums of two 2^40 + k^2 spread thinner and are sorted
        powers = list(range(1, 41)) + [2 ** 40 + k * k for k in range(1, 21)]

        def tally(form):
            return Counter(sum(c * p for c, p in zip(form, combo)) for combo
                           in itertools.product(powers, repeat=len(form)))

        lsums, rsums = tally(left), tally(right)
        tallied = []
        bincount = np.bincount

        def spy(sums, **kwargs):
            counts = bincount(sums, **kwargs)
            tallied.append(int(counts.sum()))
            return counts

        monkeypatch.setattr(diophantine.np, "bincount", spy)
        monkeypatch.setattr(diophantine, "JOIN_CHUNK", 64)
        assert diophantine._equal_sum_count(
            np.array(powers, dtype=dtype), left, right) == \
            sum(n * rsums[v] for v, n in lsums.items())
        assert tallied
        if left == right:  # every sum lies in a window, not all dense
            assert sum(tallied) < len(powers) ** len(left)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the Linux peak-RSS field VmHWM")
    def test_memory_bounded(self):
        # O(JOIN_CHUNK + x^(S/2-1)) entries: a histogram of the whole
        # range of pair sums (7.2e7 values here) would need hundreds of MB.
        # One reused int32 window buffer keeps the child near 35-36 MB;
        # fresh full-length temporaries per window took it to 47.5 MB.
        # VmHWM, not ru_maxrss: a child started by vfork inherits the
        # parent's ru_maxrss through exec, but VmHWM is its own.
        code = ("from pslab import expsum; "
                "assert expsum.mean_value_count(6000, 2, 4) == 203864064; "
                "print(open('/proc/self/status').read())")
        src = os.path.dirname(os.path.dirname(expsum.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        peak_kib = next(int(line.split()[1]) for line in out.splitlines()
                        if line.startswith("VmHWM:"))
        assert peak_kib < 42 * 1024


class TestQuadrature:
    def test_exactness_small(self):
        quad, count = expsum.quadrature_vs_count(30, 2, 4, 8192)
        assert quad == pytest.approx(count, rel=1e-9)

    def test_s_two(self):
        quad, count = expsum.quadrature_vs_count(50, 2, 2, 8192)
        assert count == 50
        assert quad == pytest.approx(50, rel=1e-9)

    def test_aliasing_guard(self):
        with pytest.raises(expsum.AliasingError):
            expsum.quadrature_vs_count(30, 2, 4, 3600)

    def test_negative_degree_refused(self):
        # refused by the count before the grid takes inverses mod M
        with pytest.raises(ValueError, match="d >= 0"):
            expsum.quadrature_vs_count(3, -1, 4, 100)

    def test_weyl_power_grid_past_int64(self):
        # 100^10 >= 2^63: the residues come from exact Python-int powers
        grid = expsum.weyl_power_grid(100, 10, 64)
        for j in range(64):
            assert grid[j] == pytest.approx(
                expsum.weyl_sum(100, 10, Fraction(j, 64)), abs=1e-9)

    def test_weyl_power_grid_matches_weyl_sum(self):
        x, d, M = 20, 2, 64
        grid = expsum.weyl_power_grid(x, d, M)
        for j in (0, 1, 7, 33):
            assert grid[j] == pytest.approx(
                expsum.weyl_sum(x, d, Fraction(j, M)), abs=1e-9)


class TestDirichlet:
    def test_exact_rational(self):
        assert expsum.dirichlet_approx(Fraction(1, 3), 10) == (1, 3)

    def test_pi_like(self):
        assert expsum.dirichlet_approx(0.141592653, 10) == (1, 7)

    def test_zero(self):
        assert expsum.dirichlet_approx(0.0, 100) == (0, 1)

    @given(st.floats(min_value=0, max_value=1, exclude_max=True,
                     allow_nan=False),
           st.sampled_from([10, 100, 1000]))
    def test_guarantee(self, alpha, Q):
        a, q = expsum.dirichlet_approx(alpha, Q)
        assert 1 <= q <= Q
        assert math.gcd(a, q) == 1
        assert abs(alpha - a / q) <= 1 / (q * Q) + 1e-15
        assert abs(alpha - a / q) <= 1 / q ** 2 + 1e-15


class TestArcs:
    def test_major_at_zero_with_heavy_weight(self):
        # a weight with enough mass to clear the threshold at alpha = 0
        x, d = 100, 2
        N = x ** d
        f = _weight(N, {n: float(x) for n in range(1, 200)})
        label = expsum.classify_arc(0.0, f, x, d)
        assert label.kind == "major"
        assert (label.a, label.q) == (0, 1)
        assert label.witness == pytest.approx(f.mass())

    def test_minor_far_from_rationals(self):
        x, d = 1000, 2
        golden = (math.sqrt(5) - 1) / 2
        f = _weight(x ** d, {n * n: 1.0 for n in range(1, x + 1)})
        label = expsum.classify_arc(golden, f, x, d)
        assert label.kind == "minor"
        assert label.witness <= label.threshold

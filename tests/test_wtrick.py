"""Residue-trick moduli, majorants, liftings, and the smooth weight mu."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslab import cli, expsum, exponents, ps_core, wtrick
from pslab.ps_core import PSExponent, ps_primes


C2120 = PSExponent(21, 20)


class TestWParams:
    def test_degree_two(self):
        params = wtrick.w_params(10 ** 6, 2)
        assert params.W == 32
        assert params.N == 10 ** 12 // 32 + 1
        assert not params.toy

    def test_degree_three(self):
        assert wtrick.w_params(10 ** 6, 3).W == 108

    def test_window_brackets_power(self):
        for x, d in ((100, 2), (10 ** 5, 2), (50, 3)):
            params = wtrick.w_params(x, d)
            assert params.N * params.W > x ** d >= (params.N - 1) * params.W

    def test_toy_override(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=480)
        assert params.W == 480 and params.toy

    def test_x_too_small(self):
        with pytest.raises(wtrick.UndefinedWError):
            wtrick.w_params(15, 2)

    def test_prime_product(self):
        # w = (1/2) log log 10^30 = 2.12, so the product over p <= w is 2
        assert wtrick.w_params(10 ** 30, 2).W == 4 * 2 ** 3 * 2


class TestRefusals:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: wtrick.totient(0), ValueError, "n >= 1"),
        (lambda: wtrick.w_params(10 ** 4, 1), ValueError,
         "degree must be >= 2"),
        (lambda: wtrick.w_params(1000, 2, toy_w=1), ValueError,
         "toy W must be >= 2"),
        (lambda: wtrick.dth_power_units(1, 2), ValueError, "W must be >= 2"),
        (lambda: wtrick.sigma(0, 32, 2), ValueError, r"b must lie in \[1"),
        (lambda: wtrick.sigma(33, 32, 2), ValueError, r"b must lie in \[1"),
        (lambda: wtrick.build_mu(1000, 2, 1,
                                 wtrick.w_params(1000, 2, toy_w=32)),
         wtrick.InadmissibleResidueError, "no d-th root")],
        ids=["totient-0", "degree", "toy-W", "units-W", "b-below-1",
             "b-above-W", "mu-inadmissible-b"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestResidues:
    def test_square_units_mod_32(self):
        assert wtrick.dth_power_units(32, 2) == {1, 9, 17, 25}

    def test_square_units_mod_3(self):
        assert wtrick.dth_power_units(3, 2) == {1}

    def test_first_powers_are_all_units(self):
        W = 36
        units = {z for z in range(1, W + 1) if math.gcd(z, W) == 1}
        assert wtrick.dth_power_units(W, 1) == {z % W for z in units}

    def test_sigma_examples(self):
        assert wtrick.sigma(31, 32, 2) == 4
        assert wtrick.sigma(1, 32, 2) == 0
        assert wtrick.sigma(2, 3, 2) == 2

    def test_sigma_totient_identity(self):
        for W, d in ((32, 2), (108, 3), (480, 2), (60, 4)):
            total = sum(wtrick.sigma(b, W, d)
                        for b in wtrick.admissible_residues(W, d))
            assert total == wtrick.totient(W)

    def test_is_admissible(self):
        # -31 = 1 = 1^2 mod 32 is a square unit; -1 = 31 mod 32 is not
        admissible = wtrick.admissible_residues(32, 2)
        assert 31 in admissible
        assert 1 not in admissible


class TestPowerTable:
    CASES = ((2, 2), (3, 2), (32, 2), (36, 3), (60, 4), (108, 3), (480, 2),
             (97, 7))

    def test_residue_functions_match_brute_force(self):
        for W, d in self.CASES:
            powers = [pow(z, d, W) for z in range(1, W + 1)]
            units = {pow(z, d, W) for z in range(1, W + 1)
                     if math.gcd(z, W) == 1}
            assert wtrick.dth_power_units(W, d) == units
            assert wtrick.power_counts(W, d) == {
                r: powers.count(r) for r in set(powers)}
            assert wtrick.admissible_residues(W, d) == [
                b for b in range(1, W + 1) if (-b) % W in units]
            for b in range(1, W + 1):
                assert wtrick.sigma(b, W, d) == powers.count((-b) % W)

    def test_table_cached_read_only(self):
        table = wtrick._power_table(36, 3)
        assert wtrick._power_table(36, 3) is table
        with pytest.raises(ValueError):
            table[0] = 1
        assert table.tolist() == [pow(z, 3, 36) for z in range(36)]

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 7])
    def test_table_equals_python_pow(self, d):
        for W in (1, *(W for W, _ in self.CASES)):
            table = wtrick._power_table(W, d)
            assert table.dtype == np.int64
            assert table.tolist() == [pow(z, d, W) for z in range(W)], W

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_powers_exact_next_to_the_int64_bound(self, d):
        # (W - 1)^2 < 2^63 holds up to W = 3037000500; one step beyond,
        # (W - 1)^2 would wrap in int64, so pow takes over
        for W in (3037000499, 3037000500, 3037000501, 3037000502):
            z = np.array([0, 1, 2, W // 3, W // 2, W - 2, W - 1],
                         dtype=np.int64)
            got = wtrick._powers_mod(z, d, W)
            assert got.tolist() == [pow(int(k), d, W) for k in z], W

    @given(st.integers(2, 300), st.integers(2, 7),
           st.lists(st.integers(0, 10 ** 6), max_size=20),
           st.lists(st.integers(0, 3000), max_size=5), st.integers(1, 64))
    def test_class_array(self, W, d, elems, multiples, M):
        # the tally keeps each element whose class (-p^d mod W) or W is
        # admissible, read from p^d mod W*M; multiples of W are in class W
        elems = elems + [W * k for k in multiples]
        tally = wtrick.ClassTally(wtrick.WParams(d, W, 1), C2120, M, 1)
        adm = set(wtrick.admissible_residues(W, d))
        classes = [(-pow(p, d, W)) % W or W for p in elems]
        with np.errstate(divide="ignore"):  # its count of divisors: W % 0
            primes, got, _ = tally.add(elems)
        assert list(zip(primes.tolist(), got.tolist())) == [
            (p, b) for p, b in zip(elems, classes) if b in adm]


class TestMajorant:
    def test_empty_source(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        nu = wtrick.build_majorant([], 31, params, C2120)
        assert nu.mass() == 0 and len(nu) == 0

    def test_single_prime_placement(self):
        # 31^2 = 961 = 32*31 - 31, so p = 31 lands at n = 31 for b = 31
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        nu = wtrick.build_majorant([31], 31, params, C2120)
        assert set(nu.weights) == {31}
        cf = 21 / 20
        expected = (cf * wtrick.totient(32) / (4 * 32)
                    * 31 ** (2 - 1 / cf) * math.log(31))
        assert nu.weights[31] == pytest.approx(expected)

    def test_inadmissible_b(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        with pytest.raises(wtrick.InadmissibleResidueError):
            wtrick.build_majorant([31], 1, params, C2120)

    def test_support_inside_window(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = ps_primes(10 ** 4, C2120).members
        b, _ = wtrick.choose_b(primes, params, C2120)
        nu = wtrick.build_majorant(primes, b, params, C2120)
        support = nu.positions.tolist()
        assert support and support[0] >= 1 and support[-1] <= params.N

    def test_mass_matches_class_masses(self):
        # the classes partition the primes of admissible class, so the
        # class masses add up to the weight of those primes
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = ps_primes(10 ** 4, C2120).members.tolist()
        cf = 21 / 20
        total = 0.0
        for p in primes:
            if p % 2:  # -b = p^2 is the square of a unit mod 32
                sig = wtrick.sigma((-p * p) % 32, 32, 2)
                total += (cf * wtrick.totient(32) / (sig * 32)
                          * p ** (2 - 1 / cf) * math.log(p))
        masses = [wtrick.build_majorant(primes, b, params, C2120).mass()
                  for b in wtrick.admissible_residues(32, 2)]
        assert math.fsum(masses) == pytest.approx(total)

    def test_weights_and_masses_bit_exact(self):
        # one-element np.power and np.log per prime, products and the mass
        # in the loop's order
        x, c = 10 ** 4, C2120
        params = wtrick.w_params(x, 2, toy_w=32)
        primes = ps_primes(x, c).members.tolist()
        e = 2 - 1.0 / (21 / 20)
        for b in wtrick.admissible_residues(32, 2):
            norm = (21 / 20) * wtrick.totient(32) / (
                wtrick.sigma(b, 32, 2) * 32)
            expected = {}
            mass = 0.0
            for p in primes:
                if (-pow(p, 2, 32)) % 32 == b:
                    one = np.array([p])
                    w = float(norm * np.power(one, e)[0] * np.log(one)[0])
                    expected[(p ** 2 + b) // 32] = w
                    mass += w
            nu = wtrick.build_majorant(primes, b, params, c)
            assert list(nu.weights.items()) == list(expected.items())
            assert [w.hex() for w in nu.values.tolist()] == \
                [w.hex() for w in expected.values()]
            assert nu.mass().hex() == mass.hex()

    def test_positions_int64_until_p_to_the_d_passes_2_63(self):
        # 55108^4 < 2^63 < 55109^4: below the switch p^4 + b is taken in
        # int64, past it in exact Python ints; the positions, p^4/32, fit
        # int64 on both sides
        params = wtrick.w_params(60000, 4, toy_w=32)
        members = ps_primes(60000, C2120).members
        for A in (members[members <= 55108], members):
            nu = wtrick.build_majorant(A, 15, params, C2120)
            assert nu.positions.dtype == np.int64
            assert nu.positions.tolist() == [
                (p ** 4 + 15) // 32 for p in A.tolist() if p ** 4 % 32 == 17]

    def test_list_and_array_sources_agree(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        members = ps_primes(10 ** 4, C2120).members
        adm = wtrick.admissible_residues(32, 2)
        for A in (members.tolist(), members.astype(np.int64)):
            for b in adm:
                nu = wtrick.build_majorant(A, b, params, C2120)
                ref = wtrick.build_majorant(members, b, params, C2120)
                assert nu.weights == ref.weights
                assert nu.mass() == ref.mass()
        assert [wtrick.build_majorant([], b, params, C2120).mass()
                for b in adm] == [0.0] * len(adm)


class TestChooseB:
    def test_empty_source_smallest_admissible(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        b, mass = wtrick.choose_b([], params, C2120)
        assert b == min(wtrick.admissible_residues(32, 2))
        assert mass == 0

    def test_pigeonhole(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = ps_primes(10 ** 4, C2120).members
        b, mass = wtrick.choose_b(primes, params, C2120)
        masses = [wtrick.build_majorant(primes, r, params, C2120).mass()
                  for r in wtrick.admissible_residues(32, 2)]
        assert mass >= sum(masses) / len(masses)
        assert mass == max(masses)

    def test_tied_large_masses_pick_smallest_b(self):
        # twelve equal masses sum to about 4e-6 above 12 * max in floats
        masses = np.full(12, 5459983480.655616)
        assert wtrick._best_residue(np.arange(1, 24, 2), masses) == 1

    def test_some_admissible_residue_always_exists(self):
        # 1 is a d-th power of a unit, so b = W - 1 is always admissible
        for W in (2, 4, 32, 108, 480):
            for d in (2, 3, 8):
                assert W - 1 in wtrick.admissible_residues(W, d)


class TestChooseMajorant:
    """The one weight pass against the argmax of per-class majorants."""

    @pytest.mark.parametrize("W", [32, 480])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_equals_choose_then_build(self, W, d, chunk):
        x = 3000
        params = wtrick.w_params(x, d, toy_w=W)
        members = ps_primes(x, C2120).members
        for A in (members, members[::3].tolist(), []):
            # the one weight pass has the bits of a tally fed chunk primes
            # at a time
            whole = wtrick.ClassTally(params, C2120, 1, 1).add(A)[2]
            tally = wtrick.ClassTally(params, C2120, 1, 1)
            pieces = [tally.add(A[i:i + chunk])[2]
                      for i in range(0, len(A), chunk)]
            assert ([w.hex() for w in whole.tolist()]
                    == [w.hex() for piece in pieces for w in piece.tolist()])
            nu = wtrick.build_majorant(A, None, params, C2120)
            masses = {b: wtrick.build_majorant(A, b, params, C2120).mass()
                      for b in wtrick.admissible_residues(W, d)}
            b = min(masses, key=lambda r: (-masses[r], r))
            ref = wtrick.build_majorant(A, b, params, C2120)
            assert (nu.b, nu.sigma_b, nu.N) == (b, ref.sigma_b, ref.N)
            assert (nu.params, nu.c) == (params, C2120)
            assert list(nu.weights.items()) == list(ref.weights.items())
            assert nu.mass().hex() == masses[b].hex()
            assert wtrick.choose_b(A, params, C2120) == (b, nu.mass())


def _whole_array_cell(x, d, c, M, toy_w):
    """(b, sigma(b), prime count, mass, fold, FFT, sum nu^s) of a cell
    from the whole prime array: per-class majorants with their
    positions, folded by n mod M."""
    params = wtrick.w_params(x, d, toy_w=toy_w)
    members = ps_primes(x, c).members
    nus = {b: wtrick.build_majorant(members, b, params, c)
           for b in wtrick.admissible_residues(params.W, d)}
    b = min(nus, key=lambda r: (-nus[r].mass(), r))
    nu = nus[b]
    s = exponents.degree_params(d).s_bar
    return (b, nu.sigma_b, len(members), nu.mass(), nu.folded(M),
            expsum._fold(nu, M), nu.power_sum(s))


def _streamed_cell(x, d, c, M, toy_w):
    params = wtrick.w_params(x, d, toy_w=toy_w)
    s = exponents.degree_params(d).s_bar
    nu = wtrick.fold_majorant(ps_core.ps_prime_segments(x, c), params, c,
                              M, s)
    return (nu.b, nu.sigma_b, nu.prime_count, nu.mass(), nu.folded(M),
            expsum._fold(nu, M), nu.power_sum(s))


class TestClassTally:
    """The streamed tally against per-class majorants of the whole prime
    array, with 64-long sieve segments so that a cell crosses many."""

    def _check(self, x, d, c, M, toy_w):
        ref = _whole_array_cell(x, d, c, M, toy_w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ps_core, "SIEVE_SEGMENT", 64)
            got = _streamed_cell(x, d, c, M, toy_w)
        assert got[:3] == ref[:3]
        assert got[3].hex() == ref[3].hex()
        for folded, want in zip(got[4:6], ref[4:6]):
            assert len(folded) == M
            assert folded.tobytes() == want.tobytes()
        # np.power against Python's float power, in the last bits only
        assert got[6] == pytest.approx(ref[6], rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(16, 3 * 10 ** 4), st.sampled_from([2, 3, 4]),
           st.sampled_from([PSExponent(21, 20), PSExponent(31, 30),
                            PSExponent(109, 108), PSExponent(3, 2)]),
           st.sampled_from([1, 7, 64, 4096]), st.sampled_from([None, 480]))
    def test_equals_the_whole_array_fold(self, x, d, c, M, toy_w):
        self._check(x, d, c, M, toy_w)

    def test_positions_past_int64(self):
        # p^4 + b passes 2^63 from p = 55109 on, where the majorant's
        # positions are Python ints; the tally folds by p mod W*M
        self._check(14 * 10 ** 4, 4, C2120, 4096, 32)

    def test_sigma_sum_is_checked(self, monkeypatch):
        # without one admissible b the sigma(b) sum falls short of phi(W);
        # the tables are built afresh, not read from the cache
        wtrick._class_tables.cache_clear()
        adm = wtrick.admissible_residues
        monkeypatch.setattr(wtrick, "admissible_residues",
                            lambda W, d: adm(W, d)[1:])
        with pytest.raises(RuntimeError, match="phi"):
            cli.pipeline_cell(1000, 2, C2120, 32, run_avoider=False)

    def test_class_counts_are_checked(self, monkeypatch):
        # the last prime's p^d lost: it falls in class W, in no class,
        # but does not divide W (the table of z^2 mod 32 is built first)
        wtrick._power_table(32, 2)
        powers = wtrick._powers_mod

        def lossy(z, d, W):
            out = powers(z, d, W).copy()
            out[-1:] = 0
            return out

        monkeypatch.setattr(wtrick, "_powers_mod", lossy)
        with pytest.raises(RuntimeError, match="not the 123 added"):
            cli.pipeline_cell(1000, 2, C2120, 32, run_avoider=False)

    def test_reads_only_what_it_tallied(self):
        params = wtrick.w_params(1000, 2, toy_w=32)
        nu = wtrick.fold_majorant([ps_primes(1000, C2120).members], params,
                                  C2120, 64, 5)
        with pytest.raises(ValueError, match="not mod 32"):
            expsum.fourier_grid(nu, 32)
        with pytest.raises(ValueError, match="not nu\\^3"):
            nu.power_sum(3)


class TestWeightRule:
    """A prime's weight does not depend on the array it is weighed in,
    which lets build_majorant slice its weights for the chosen class."""

    @pytest.mark.parametrize("W", [32, 480])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_same_bits_alone_in_whole_and_in_subsets(self, W, d, data):
        params = wtrick.w_params(3000, d, toy_w=W)
        members = ps_primes(3000, C2120).members

        def weights(A):
            primes, _, ws = wtrick.ClassTally(params, C2120, 1, 1).add(A)
            return dict(zip(primes.tolist(), (w.hex() for w in ws.tolist())))

        whole = weights(members)
        offset = data.draw(st.integers(0, len(members) - 1))
        step = data.draw(st.integers(1, 9))
        order = np.random.default_rng(
            data.draw(st.integers(0, 2 ** 32 - 1))).permutation(len(members))
        p = int(members[offset])
        for sub in (members[offset:], members[offset::step],
                    members[order], members[order[offset:]].tolist(), [p]):
            got = weights(sub)
            assert got == {q: whole[q] for q in got}
            assert set(got) == set(whole) & set(np.asarray(sub).tolist())


class TestLift:
    """The lifting n = (p^d + b)/W, read from the majorant's support."""

    def test_round_trip(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = ps_primes(10 ** 4, C2120).members
        b, _ = wtrick.choose_b(primes, params, C2120)
        nu = wtrick.build_majorant(primes, b, params, C2120)
        recovered = [math.isqrt(32 * n - b) for n in nu.positions.tolist()]
        assert all(p * p == 32 * n - b
                   for p, n in zip(recovered, nu.positions.tolist()))
        expected = sorted(int(p) for p in primes
                          if (-pow(int(p), 2, 32)) % 32 == b % 32)
        assert recovered == expected

    def test_mismatched_class_empty(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        # 31 lies in class b = 31, so the admissible class b = 7 misses it
        assert len(wtrick.build_majorant([31], 7, params, C2120)) == 0
        # -28 = 2^2 mod 32 is a square but not of a unit: sigma(28) = 8,
        # yet no admissible class is 28, so no prime lands in it
        primes = ps_primes(10 ** 4, C2120).members
        nu = wtrick.build_majorant(primes, 28, params, C2120)
        assert (len(nu), nu.sigma_b) == (0, 8)

    def test_partition_over_classes(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = [int(p) for p in ps_primes(10 ** 4, C2120).members]
        total = sum(len(wtrick.build_majorant(primes, b, params, C2120))
                    for b in wtrick.admissible_residues(32, 2))
        coprime = [p for p in primes if math.gcd(p, 32) == 1]
        assert total == len(coprime)

    def test_lift_inside_majorant_support(self):
        params = wtrick.w_params(10 ** 4, 2, toy_w=32)
        primes = ps_primes(10 ** 4, C2120).members
        b, _ = wtrick.choose_b(primes, params, C2120)
        nu = wtrick.build_majorant(primes, b, params, C2120)
        lifted = {(int(p) ** 2 + b) // 32 for p in primes
                  if (int(p) ** 2 + b) % 32 == 0}
        assert lifted and lifted <= set(nu.weights)


class TestSequenceWeights:
    def test_mu_mass_example(self):
        # d=2, W=3, b=2, x=10: residues with z^2 = 1 mod 3 are z = 1, 2;
        # contributing m in {1,2,4,5,7,8,10}, mass = 37/2
        params = wtrick.w_params(16, 2, toy_w=3)
        mu = wtrick.build_mu(10, 2, 2, params)
        assert mu.mass() == pytest.approx(37 / 2)

    def test_mu_covers_majorant(self):
        params = wtrick.w_params(10 ** 3, 2, toy_w=32)
        primes = ps_primes(10 ** 3, C2120).members
        b, _ = wtrick.choose_b(primes, params, C2120)
        nu = wtrick.build_majorant(primes, b, params, C2120)
        mu = wtrick.build_mu(10 ** 3, 2, b, params)
        assert nu.weights and set(nu.weights) <= set(mu.weights)

    def test_mu_mass_identity(self):
        params = wtrick.w_params(10 ** 3, 2, toy_w=32)
        b = 31
        mu = wtrick.build_mu(10 ** 3, 2, b, params)
        sig = wtrick.sigma(b, 32, 2)
        expected = sum(m for m in range(1, 10 ** 3 + 1)
                       if pow(m, 2, 32) == (-b) % 32) / sig
        assert mu.mass() == pytest.approx(expected)


def _mu_loop(x, d, b, params):
    """build_mu as a per-m loop in Python ints: the oracle of its arrays."""
    W = params.W
    sig = wtrick.sigma(b, W, d)
    ms = np.arange(1, x + 1)
    ms = ms[wtrick._power_table(W, d)[ms % W] == (-b) % W].tolist()
    return wtrick.SparseWeight(params.N, [(m ** d + b) // W for m in ms],
                               [m ** (d - 1) / sig for m in ms])


class TestMuFromRoots:
    @pytest.mark.parametrize("W", [2, 7, 9, 32, 63, 117])
    def test_bit_identical_to_the_loop(self, W):
        # x = 10^6 at d = 4 puts m^3 past 2^53, where sigma in {3, 6, 12}
        # (W = 9, 63, 117) would round an int64 quotient differently
        for d in range(2, 8):
            params = wtrick.w_params(10 ** 4, d, toy_w=W)
            for b in range(1, W + 1):
                if not wtrick.sigma(b, W, d):
                    continue
                for x in (W - 1, 1000) + ((10 ** 6,) if d == 4 else ()):
                    mu, loop = (wtrick.build_mu(x, d, b, params),
                                _mu_loop(x, d, b, params))
                    # tobytes of an object array would compare pointers
                    assert mu.positions.dtype == loop.positions.dtype
                    assert mu.positions.tolist() == loop.positions.tolist()
                    assert mu.values.tobytes() == loop.values.tobytes()


class TestMassScale:
    def test_chosen_mass_meets_density_floor(self):
        # chosen majorant mass vs the transfer-density scale delta^d * N
        x = 10 ** 5
        params = wtrick.w_params(x, 2, toy_w=32)
        primes = ps_primes(x, C2120)
        _, mass = wtrick.choose_b(primes.members, params, C2120)
        cf = 21 / 20
        delta = len(primes) ** cf * math.log(x) ** cf / x  # transfer density
        assert mass >= delta ** 2 * params.N / 100


class TestDensityDelta:
    def test_near_one_for_full_prime_set(self):
        # delta = |A|^c (log x)^c / x is about 1 for all sequence primes
        x = 10 ** 5
        count = len(ps_primes(x, C2120))
        cf = 21 / 20
        delta = count ** cf * math.log(x) ** cf / x
        assert 0.5 < delta < 2


class TestSparseWeight:
    """The sorted (positions, values) representation and its checks."""

    def test_position_dtype(self):
        low = wtrick.SparseWeight(10, [1, 2 ** 63 - 1], [1.0, 2.0])
        assert low.positions.dtype == np.int64
        high = wtrick.SparseWeight(10, [1, 2 ** 63], [1.0, 2.0])
        assert high.positions.dtype == object
        assert high.positions.tolist() == [1, 2 ** 63]
        assert high.values.dtype == float

    @pytest.mark.parametrize("positions", [[3, 2], [2, 2], [2 ** 64, 5]])
    def test_unsorted_or_repeated_positions_rejected(self, positions):
        with pytest.raises(ValueError, match="strictly increasing"):
            wtrick.SparseWeight(10, positions, [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            wtrick.SparseWeight(10, [1, 2], [1.0])

    def test_weights_view_is_read_only(self):
        f = wtrick.SparseWeight(10, [2, 5], [0.5, 1.5])
        assert dict(f.weights) == {2: 0.5, 5: 1.5}
        with pytest.raises(TypeError):
            f.weights[2] = 1.0
        assert (len(f), f.mass()) == (2, 2.0)

    def test_empty(self):
        f = wtrick.SparseWeight(10, [], [])
        assert (len(f), f.mass(), f.positions.dtype) == (0, 0.0, np.int64)

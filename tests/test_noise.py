import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.noise import (
    BOLTZMANN_K,
    RESISTANCE_RANGE,
    InconsistentSpectraError,
    NoiseConfig,
    analytic_spectra,
    compose_loop,
    generate_noise,
    infer_partner_resistance,
    infer_resistor_pair,
    johnson_psd,
    measure_spectra,
    parallel_resistance,
)

CFG = NoiseConfig()


class TestJohnsonPsd:
    def test_zero_resistance(self):
        assert johnson_psd(0.0, CFG) == 0.0

    def test_hand_computed_value(self):
        # independent arithmetic: 4 * 1.380649e-23 * 1e12 * 1000
        expected = 5.522596e-08
        assert johnson_psd(1000.0, CFG) == pytest.approx(expected, rel=1e-12)

    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            johnson_psd(-1.0, CFG)

    def test_current_psd_identity(self):
        # S_i = 4kT/(R_A+R_B) must invert back through the formula
        r_a, r_b = 1e3, 1e4
        s_i = 4 * BOLTZMANN_K * CFG.t_eff / (r_a + r_b)
        assert infer_partner_resistance(s_i, r_a, CFG) == pytest.approx(r_b)


class TestGenerateNoise:
    def test_zero_psd_gives_zeros(self):
        out = generate_noise(0.0, CFG, seed=1)
        assert np.all(out == 0.0)
        assert out.size == CFG.samples_per_bit

    def test_determinism(self):
        a = generate_noise(1e-8, CFG, seed=42)
        b = generate_noise(1e-8, CFG, seed=42)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = generate_noise(1e-8, CFG, seed=1)
        b = generate_noise(1e-8, CFG, seed=2)
        assert not np.array_equal(a, b)

    def test_variance_matches_psd_times_bandwidth(self):
        # statistical estimator oracle: sample variance of n gaussians has
        # standard error sigma^2 * sqrt(2/n)
        psd = 2.5e-9
        cfg = NoiseConfig(samples_per_bit=1_000_000)
        out = generate_noise(psd, cfg, seed=7)
        target = psd * cfg.bandwidth
        se = target * math.sqrt(2.0 / out.size)
        assert abs(np.var(out) - target) < 3 * se

    def test_negative_psd_rejected(self):
        with pytest.raises(ValueError):
            generate_noise(-1e-9, CFG, seed=1)

    @pytest.mark.parametrize("n", [100, 101, 257])
    def test_array_of_psds_equals_scalar_calls(self, n):
        # One call over a (P, 2) array of PSDs draws, bit for bit, what one
        # scalar call per entry in row-major order draws; a zero PSD gives
        # +0.0 samples both ways.
        cfg = NoiseConfig(samples_per_bit=n)
        psd = np.array([[johnson_psd(cfg.r_low, cfg), 0.0],
                        [johnson_psd(cfg.r_high, cfg), 2.5e-9],
                        [0.0, johnson_psd(cfg.r_low, cfg)]])
        block = generate_noise(psd, cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        scalar = np.array([[generate_noise(float(p), cfg, rng) for p in row]
                           for row in psd])
        assert block.shape == (3, 2, n)
        assert np.array_equal(block.view(np.uint64), scalar.view(np.uint64))

    def test_array_with_negative_psd_rejected(self):
        with pytest.raises(ValueError):
            generate_noise(np.array([1e-9, -1e-9]), CFG, seed=1)


class TestComposeLoop:
    def test_symmetric_divider(self):
        c, r = 4.0, 500.0
        n = 16
        tr = compose_loop(np.full(n, c), np.zeros(n), r, r)
        assert np.allclose(tr[0], c / 2)
        assert np.allclose(tr[1], c / (2 * r))

    def test_no_potential_difference(self):
        c = 3.3
        tr = compose_loop(np.full(8, c), np.full(8, c), 1e3, 2e3)
        assert np.allclose(tr[1], 0.0)
        assert np.allclose(tr[0], c)

    def test_against_per_sample_recomputation(self):
        rng = np.random.default_rng(123)
        u_a = rng.normal(size=200)
        u_b = rng.normal(size=200)
        r_a, r_b = 1.7e3, 8.2e3
        tr = compose_loop(u_a, u_b, r_a, r_b)
        # brute-force oracle: scalar arithmetic per sample
        for t in range(200):
            i_t = (u_a[t] - u_b[t]) / (r_a + r_b)
            u_t = (u_a[t] * r_b + u_b[t] * r_a) / (r_a + r_b)
            assert tr[1, t] == pytest.approx(i_t, rel=1e-14)
            assert tr[0, t] == pytest.approx(u_t, rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_loop(np.zeros(4), np.zeros(5), 1e3, 1e3)

    def test_zero_total_resistance_rejected(self):
        with pytest.raises(ValueError):
            compose_loop(np.zeros(4), np.zeros(4), 0.0, 0.0)

    @pytest.mark.parametrize("shape", [(0,), (1, 0), (2, 1, 4), ()])
    def test_empty_or_not_1d_traces_rejected(self, shape):
        with pytest.raises(ValueError):
            compose_loop(np.zeros(shape), np.zeros(shape), 1e3, 1e3)
        with pytest.raises(ValueError):  # the trace with its 2 rows
            measure_spectra(np.zeros(shape[:-1] + (2,) + shape[-1:]), CFG)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (5, 3, 4)])
    def test_trace_without_two_signal_rows_rejected(self, shape):
        with pytest.raises(ValueError):
            measure_spectra(np.zeros(shape), CFG)

    def test_integer_input_gives_a_float64_trace(self):
        tr = compose_loop(np.arange(5), np.ones(5, dtype=np.int32), 1e3, 2e3)
        assert tr.dtype == np.float64
        assert tr.shape == (2, 5)


class TestMeasureSpectra:
    @pytest.mark.parametrize("n", [2, 3, 100, 101, 4097])
    def test_equals_numpy_var_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            v = rng.normal(rng.normal() * scale, scale, n)
            i = rng.normal(0.0, scale * 1e-4, n)
            s = measure_spectra(np.stack([v, i], -2), CFG)
            assert s[0] == float(np.var(v, ddof=1)) / CFG.bandwidth
            assert s[1] == float(np.var(i, ddof=1)) / CFG.bandwidth

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            measure_spectra(np.stack([np.ones(1), np.ones(1)], -2), CFG)

    def test_all_zero_trace(self):
        tr = np.zeros((2, 100))
        s = measure_spectra(tr, CFG)
        assert s[0] == 0.0 and s[1] == 0.0

    def test_simulated_levels_match_analytic(self):
        cfg = NoiseConfig(samples_per_bit=10_000)
        rng = np.random.default_rng(11)
        u_a = generate_noise(johnson_psd(cfg.r_low, cfg), cfg, rng)
        u_b = generate_noise(johnson_psd(cfg.r_high, cfg), cfg, rng)
        s = measure_spectra(compose_loop(u_a, u_b, cfg.r_low, cfg.r_high),
                            cfg)
        ana = analytic_spectra(cfg.r_low, cfg.r_high, cfg)
        assert s[1] == pytest.approx(ana[1], rel=0.05)
        assert s[0] == pytest.approx(ana[0], rel=0.05)


class TestBlockSolve:
    """A block of periods is solved and measured in one call each, and
    every row is bit for bit the one-period call on that row."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([2, 3, 100, 101, 257]),
           periods=st.integers(1, 6),
           scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]))
    def test_rows_equal_one_period_calls(self, seed, n, periods, scale):
        rng = np.random.default_rng(seed)
        u_a = rng.normal(rng.normal() * scale, scale, (periods, n))
        u_b = rng.normal(0.0, scale, (periods, n))
        # per-row resistances: the two bit values and arbitrary ones
        r_a, r_b = rng.choice([CFG.r_low, CFG.r_high, *10 ** rng.uniform(
            0, 6, 2)], (2, periods))
        block = compose_loop(u_a, u_b, r_a, r_b)
        block_spectra = measure_spectra(block, CFG)
        assert block.shape == (periods, 2, n)
        assert block_spectra.shape == (2, periods)
        assert block_spectra.dtype == np.float64
        for k, row in enumerate(block):
            one = compose_loop(u_a[k], u_b[k], float(r_a[k]), float(r_b[k]))
            for got, want in ((row[0], one[0]), (row[1], one[1])):
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
            want = measure_spectra(one, CFG)
            assert want.shape == (2,) and want.dtype == np.float64
            assert np.array_equal(block_spectra[:, k].view(np.uint64),
                                  want.view(np.uint64))

    def test_block_trace_accepted(self):
        tr = np.stack([np.zeros((3, 5)), np.ones((3, 5))], -2)
        assert np.array_equal(measure_spectra(tr, CFG), np.zeros((2, 3)))

    def test_block_with_a_nonpositive_loop_rejected(self):
        with pytest.raises(ValueError):
            compose_loop(np.zeros((2, 4)), np.zeros((2, 4)),
                         np.array([1e3, 0.0]), np.array([1e3, 0.0]))


class TestInferPartnerResistance:
    def test_exact_inverse(self):
        s = analytic_spectra(2.2e3, 4.7e3, CFG)
        assert infer_partner_resistance(s[1], 2.2e3, CFG) == pytest.approx(
            4.7e3, rel=1e-12)

    def test_boundary_zero(self):
        s_i = 1e-10
        r_a = 4 * BOLTZMANN_K * CFG.t_eff / s_i
        assert infer_partner_resistance(s_i, r_a, CFG) == pytest.approx(
            0.0, abs=1e-6)

    def test_simulated_mid_trace_within_ten_percent(self):
        cfg = NoiseConfig(samples_per_bit=2000)
        rng = np.random.default_rng(5)
        u_a = generate_noise(johnson_psd(cfg.r_low, cfg), cfg, rng)
        u_b = generate_noise(johnson_psd(cfg.r_high, cfg), cfg, rng)
        s = measure_spectra(compose_loop(u_a, u_b, cfg.r_low, cfg.r_high),
                            cfg)
        est = infer_partner_resistance(s[1], cfg.r_low, cfg)
        assert est == pytest.approx(cfg.r_high, rel=0.10)

    def test_nonpositive_spectrum_rejected(self):
        with pytest.raises(ValueError):
            infer_partner_resistance(0.0, 1e3, CFG)


class TestInferResistorPair:
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 1), (2, 3),
                                       (1, 2)])
    def test_not_one_pair_rejected(self, shape):
        with pytest.raises(ValueError):
            infer_resistor_pair(np.ones(shape), CFG)

    def test_exact_pair(self):
        s = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
        low, high = infer_resistor_pair(s, CFG)
        assert low == pytest.approx(CFG.r_low, rel=1e-9)
        assert high == pytest.approx(CFG.r_high, rel=1e-9)

    def test_degenerate_pair(self):
        s = analytic_spectra(5e3, 5e3, CFG)
        low, high = infer_resistor_pair(s, CFG)
        assert low == pytest.approx(5e3, rel=1e-9)
        assert high == pytest.approx(5e3, rel=1e-9)

    def test_inconsistent_spectra_rejected(self):
        four_kt = 4 * BOLTZMANN_K * CFG.t_eff
        # force s_u * s_i > (4kT)^2 / 4
        s = np.array([four_kt, four_kt])
        with pytest.raises(InconsistentSpectraError):
            infer_resistor_pair(s, CFG)

    def test_round_trip_hundred_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            r_a = 10 ** rng.uniform(2, 6)
            r_b = 10 ** rng.uniform(2, 6)
            low, high = infer_resistor_pair(analytic_spectra(r_a, r_b, CFG),
                                            CFG)
            assert low == pytest.approx(min(r_a, r_b), rel=1e-9)
            assert high == pytest.approx(max(r_a, r_b), rel=1e-9)


    def test_extreme_pair_stays_finite(self):
        # the physics domain's widest pair
        s = analytic_spectra(*RESISTANCE_RANGE, CFG)
        low, high = infer_resistor_pair(s, CFG)
        assert low == pytest.approx(RESISTANCE_RANGE[0], rel=1e-6)
        assert high == pytest.approx(RESISTANCE_RANGE[1], rel=1e-9)

    def test_equals_unscaled_formula_bit_for_bit(self):
        rng = np.random.default_rng(2025)
        for _ in range(2000):
            r_a, r_b = 10 ** rng.uniform(-3, 150, 2)
            exact = analytic_spectra(r_a, r_b, CFG)
            s = np.array([exact[0] * (1 + rng.normal(0, 1e-3)),
                          exact[1] * (1 + rng.normal(0, 1e-3))])
            s_u, s_i = s.tolist()
            root_sum = CFG.four_kt / s_i
            root_prod = s_u / s_i
            disc = root_sum * root_sum - 4.0 * root_prod
            if disc <= -1e-12 * root_sum * root_sum:
                with pytest.raises(InconsistentSpectraError):
                    infer_resistor_pair(s, CFG)
                continue
            r_big = 0.5 * (root_sum + math.sqrt(max(disc, 0.0)))
            assert infer_resistor_pair(s, CFG) == (root_prod / r_big, r_big)


class TestIdentitiesAndInvariants:
    def test_sum_product_identities(self):
        rng = np.random.default_rng(3)
        four_kt = 4 * BOLTZMANN_K * CFG.t_eff
        for _ in range(50):
            r_a = 10 ** rng.uniform(2, 6)
            r_b = 10 ** rng.uniform(2, 6)
            s = analytic_spectra(r_a, r_b, CFG)
            assert four_kt / s[1] == pytest.approx(r_a + r_b, rel=1e-9)
            assert s[0] / s[1] == pytest.approx(r_a * r_b, rel=1e-9)

    @given(r_low=st.floats(1.0, 1e6), ratio=st.floats(1.0001, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_level_separation(self, r_low, ratio):
        r_high = r_low * ratio
        low = r_low / 2
        mid = parallel_resistance(r_low, r_high)
        high = r_high / 2
        assert low < mid < high

    def test_zero_net_power_flow(self):
        cfg = NoiseConfig(samples_per_bit=1_000_000)
        rng = np.random.default_rng(8)
        u_a = generate_noise(johnson_psd(cfg.r_low, cfg), cfg, rng)
        u_b = generate_noise(johnson_psd(cfg.r_high, cfg), cfg, rng)
        tr = compose_loop(u_a, u_b, cfg.r_low, cfg.r_high)
        power = tr[0] * tr[1]
        se = power.std() / math.sqrt(power.size)
        assert abs(power.mean()) < 3 * se

    def test_mid_degeneracy_lh_vs_hl(self):
        # LH and HL must be statistically indistinguishable in s_u and s_i
        rng = np.random.default_rng(9)
        su = {"lh": [], "hl": []}
        si = {"lh": [], "hl": []}
        for _ in range(1000):
            for key, (r_a, r_b) in (("lh", (CFG.r_low, CFG.r_high)),
                                    ("hl", (CFG.r_high, CFG.r_low))):
                u_a = generate_noise(johnson_psd(r_a, CFG), CFG, rng)
                u_b = generate_noise(johnson_psd(r_b, CFG), CFG, rng)
                s = measure_spectra(compose_loop(u_a, u_b, r_a, r_b), CFG)
                su[key].append(s[0])
                si[key].append(s[1])
        for stat in (su, si):
            a, b = np.array(stat["lh"]), np.array(stat["hl"])
            se = math.hypot(a.std() / math.sqrt(a.size),
                            b.std() / math.sqrt(b.size))
            assert abs(a.mean() - b.mean()) < 3 * se


class TestNoiseConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"r_low": -1.0},
        {"r_low": 2e4},                   # r_high <= r_low
        {"t_eff": 0.0},
        {"bandwidth": 0.0},
        {"samples_per_bit": 50},
        {"classify_margin": 0.0},
        {"classify_margin": 1.0},
        # just outside the physics domain
        {"r_low": 1e-7},
        {"r_high": 2e15},
        {"t_eff": 1e-7},
        {"t_eff": 1e25},
        {"bandwidth": 1e-7},
        {"bandwidth": 2e15},
        {"bandwidth": math.nan},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NoiseConfig(**kwargs)

    def test_sample_rate_is_twice_bandwidth(self):
        # critical sampling: the one rate at which i.i.d. samples are exact
        assert NoiseConfig(bandwidth=3e5).sample_rate == 6e5
        with pytest.raises(TypeError):
            NoiseConfig(sample_rate=4e5)

    def test_boltzmann_constant_pinned(self):
        assert BOLTZMANN_K == 1.380649e-23
        assert NoiseConfig().four_kt == 4.0 * BOLTZMANN_K * CFG.t_eff

import math

import numpy as np
import pytest

from kljnsim.adversary import (
    InjectionHook,
    MitmHook,
    inject_current,
    mitm_attack,
    passive_eavesdrop,
)
from kljnsim.exchange import LoopClass, run_bit_period
from kljnsim.noise import (
    NoiseConfig,
    analytic_spectra,
    compose_loop,
    generate_noise,
    johnson_psd,
    measure_spectra,
)

CFG = NoiseConfig()


def mid_current_rms(cfg):
    s = analytic_spectra(cfg.r_low, cfg.r_high, cfg)
    return float(np.sqrt(s[1] * cfg.bandwidth))


class TestPassiveEavesdrop:
    def test_ll_period_fully_readable(self):
        rec = run_bit_period(0, 0, CFG, 11)
        est = passive_eavesdrop(rec.trace, CFG, rng=0)
        assert est.loop_class_guess is LoopClass.LL
        assert est.bit_assignment_guess == (0, 0)

    def test_hh_period_fully_readable(self):
        rec = run_bit_period(1, 1, CFG, 12)
        est = passive_eavesdrop(rec.trace, CFG, rng=0)
        assert est.bit_assignment_guess == (1, 1)

    def test_mid_assignment_is_a_coin_flip(self):
        rng = np.random.default_rng(13)
        correct = 0
        n = 2000
        for _ in range(n):
            a = int(rng.integers(0, 2))
            rec = run_bit_period(a, 1 - a, CFG, rng)
            est = passive_eavesdrop(rec.trace, CFG, rng)
            correct += est.bit_assignment_guess == (a, 1 - a)
        # 0.5 +/- 3 sigma binomial
        assert abs(correct / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_mid_pair_recovered_statistically(self):
        rng = np.random.default_rng(14)
        lows, highs = [], []
        for _ in range(500):
            rec = run_bit_period(0, 1, CFG, rng)
            est = passive_eavesdrop(rec.trace, CFG, rng)
            if est.pair_guess is not None:
                lows.append(est.pair_guess[0])
                highs.append(est.pair_guess[1])
        assert np.median(lows) == pytest.approx(CFG.r_low, rel=0.10)
        assert np.median(highs) == pytest.approx(CFG.r_high, rel=0.10)

    def test_zero_trace_gives_no_estimate(self):
        tr = np.zeros((2, 100))
        est = passive_eavesdrop(tr, CFG, rng=0)
        # field by field: dataclass == cannot compare an array field
        assert np.array_equal(est.spectra, np.zeros(2))
        assert (est.loop_class_guess, est.pair_guess,
                est.bit_assignment_guess) == (None, None, None)

    @pytest.mark.parametrize("bits", [(0, 1), None])
    def test_spectra_are_the_measured_ones(self, bits):
        # Eve's spectra are the trace's own, also where she cannot classify
        trace = (run_bit_period(*bits, CFG, 15).trace if bits
                 else np.zeros((2, 100)))
        est = passive_eavesdrop(trace, CFG, rng=0)
        assert (est.loop_class_guess is None) is (bits is None)
        assert np.array_equal(est.spectra, measure_spectra(trace, CFG))

    @pytest.mark.parametrize("shape", [(100,), (3, 100), (5, 3, 100),
                                       (2, 0), (2, 1), (3, 2, 100)])
    def test_malformed_trace_rejected(self, shape):
        with pytest.raises(ValueError):
            passive_eavesdrop(np.ones(shape), CFG, rng=0)


class TestMitmAttack:
    def test_detected_at_defaults(self):
        out = mitm_attack(CFG, 1)
        assert out.detected
        assert out.detection_sample_index is not None
        assert out.bits_retained_by_parties == 0

    def test_detection_within_ten_samples(self):
        hits = 0
        for trial in range(300):
            out = mitm_attack(CFG, (7, trial))
            hits += out.detected and out.detection_sample_index <= 10
        assert hits >= 299

    def test_every_period_kept_on_classification_alarms(self):
        # Without the two-end comparison the parties would keep every
        # period both ends classify MID, and Eve would know each such bit.
        kept = 0
        for seed in range(50):
            a_bit, b_bit = divmod(seed % 4, 2)
            rec = run_bit_period(a_bit, b_bit, CFG, seed,
                                 adversary=MitmHook((8, seed)))
            if rec.loop_class is LoopClass.MID:
                kept += 1
                assert rec.monitor.alarm
        assert kept > 0

    def test_outcome_invariant(self):
        out = mitm_attack(CFG, 9)
        if out.detected:
            assert out.detection_sample_index is not None


class TestInjectCurrent:
    def test_zero_injection_invisible(self):
        out = inject_current(CFG, np.zeros(CFG.samples_per_bit), 3)
        assert not out.detected

    def test_zero_injection_views_identical(self):
        hook = InjectionHook(np.zeros(CFG.samples_per_bit))
        rec = run_bit_period(0, 1, CFG, 6, adversary=hook)
        assert np.array_equal(rec.trace[1], rec.bob_trace[1])
        assert np.array_equal(rec.trace[0], rec.bob_trace[0])

    def test_strong_injection_caught_fast(self):
        rms = mid_current_rms(CFG)
        rng = np.random.default_rng(4)
        for trial in range(200):
            inj = rng.normal(0, 10 * rms, CFG.samples_per_bit)
            out = inject_current(CFG, inj, (5, trial))
            assert out.detected
            assert out.detection_sample_index <= 10

    def test_subthreshold_injection_invisible(self):
        rms = mid_current_rms(CFG)
        rng = np.random.default_rng(5)
        inj = rng.normal(0, 1e-9 * rms, CFG.samples_per_bit)
        out = inject_current(CFG, inj, 6)
        assert not out.detected

    @pytest.mark.parametrize("ratio", [1e3, 1e100, 1e160, 1e200, 1e300])
    def test_injection_far_above_signal_always_alarms(self, ratio):
        # From about 1e158 on the sum of the injection's squares overflows
        # float64: the monitor would have no finite RMS to compare against,
        # so such an injection is refused rather than simulated.
        rms = mid_current_rms(CFG)
        rng = np.random.default_rng(8)
        for trial in range(20):
            inj = rng.normal(0, ratio * rms, CFG.samples_per_bit)
            if ratio > 1e158:
                with pytest.raises(ValueError, match="sum of squares"):
                    inject_current(CFG, inj, (9, trial))
                continue
            out = inject_current(CFG, inj, (9, trial))
            assert out.detected
            assert out.bits_retained_by_parties == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            inject_current(CFG, np.zeros(CFG.samples_per_bit + 1), 1)


class TestLeakAccounting:
    def test_zero_leak_on_retained_bits(self):
        # Eve's assignment accuracy on retained (MID) periods is chance
        rng = np.random.default_rng(21)
        n, correct = 0, 0
        while n < 2000:
            a = int(rng.integers(0, 2))
            rec = run_bit_period(a, 1 - a, CFG, rng)
            if not rec.retained:
                continue
            est = passive_eavesdrop(rec.trace, CFG, rng)
            n += 1
            correct += est.bit_assignment_guess == (a, 1 - a)
        assert abs(correct / n - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_total_leak_on_discarded_bits(self):
        # Eve reads >= 99% of LL/HH periods, and those are exactly the
        # periods the protocol discards
        rng = np.random.default_rng(22)
        read = 0
        for _ in range(500):
            bit = int(rng.integers(0, 2))
            rec = run_bit_period(bit, bit, CFG, rng)
            assert not rec.retained
            est = passive_eavesdrop(rec.trace, CFG, rng)
            read += est.bit_assignment_guess == (bit, bit)
        assert read >= 495

    def test_mitm_hook_learns_what_parties_keep(self):
        hook = MitmHook(77)
        rec = run_bit_period(0, 1, CFG, 88, adversary=hook)
        assert rec.bob_trace is not None  # split wire: two distinct views


class TestZeroInformation:
    """On a MID period the wire carries no information on which end holds
    which resistor (Kish, Phys. Lett. A 352:178, 2006).  Eve splits N
    forced MID periods at the median of a measured spectrum and guesses
    the ends from the side each period falls on.  At N = 1e5 one binomial
    sigma is 0.0016, so chance is 0.5 +- 0.0063 at 4 sigma.  A 5 %
    temperature excess at end A (Hao, IEE Proc. Inf. Secur. 153:141, 2006)
    is the positive control: it moves both splits by about 30 sigma."""

    N = 100_000
    BLOCK = 10_000  # rows per draw: 16 MB of noise
    SIGMA = math.sqrt(0.25 / N)

    def split_accuracies(self, temperature_ratios, seed=2006):
        """{end A's temperature ratio: (s_u accuracy, s_i accuracy)} over
        the same N periods, LH or HL by a random bit.

        Eve takes each period's sample variances, ``measure_spectra``'s
        PSDs times the bandwidth; the log is monotone, so their median
        split is that of log s_u and log s_i.  A hotter end A raises s_u
        when it holds r_low and s_i when it holds r_high, so above the
        median Eve guesses those."""
        rng = np.random.default_rng(seed)
        psd = np.array([johnson_psd(CFG.r_low, CFG),
                        johnson_psd(CFG.r_high, CFG)])
        r = np.array([CFG.r_low, CFG.r_high])
        a_bits = []
        variances = {ratio: [] for ratio in temperature_ratios}
        for _ in range(self.N // self.BLOCK):
            a = rng.integers(0, 2, self.BLOCK)
            u = generate_noise(psd[np.stack([a, 1 - a], 1)], CFG, rng)
            a_bits.append(a)
            for ratio in temperature_ratios:
                trace = compose_loop(math.sqrt(ratio) * u[:, 0], u[:, 1],
                                     r[a], r[1 - a])
                variances[ratio].append((trace[:, 0].var(1, ddof=1),
                                         trace[:, 1].var(1, ddof=1)))
        a = np.concatenate(a_bits)
        out = {}
        for ratio, blocks in variances.items():
            s_u, s_i = (np.concatenate(col) for col in zip(*blocks))
            out[ratio] = (np.mean((s_u > np.median(s_u)) == (a == 0)),
                          np.mean((s_i > np.median(s_i)) == (a == 1)))
        return out

    def test_mid_wire_hides_the_ends(self):
        acc = self.split_accuracies((1.0, 1.05))
        for accuracy in acc[1.0]:  # equal temperature: chance
            assert abs(accuracy - 0.5) <= 4 * self.SIGMA
        for accuracy in acc[1.05]:  # the control: the test can see a leak
            assert accuracy > 0.5 + 8 * self.SIGMA

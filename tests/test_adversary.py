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
from kljnsim.noise import NoiseConfig, WireTrace, analytic_spectra

CFG = NoiseConfig()


def mid_current_rms(cfg):
    s = analytic_spectra(cfg.r_low, cfg.r_high, cfg)
    return float(np.sqrt(s.s_i * cfg.bandwidth))


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

    def test_zero_trace_propagates_error(self):
        tr = WireTrace(np.zeros(100), np.zeros(100))
        with pytest.raises(ValueError):
            passive_eavesdrop(tr, CFG, rng=0)


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

    def test_monitor_off_baseline(self):
        for trial in range(50):
            out = mitm_attack(CFG, (8, trial), monitor_enabled=False)
            assert not out.detected
            assert out.bits_learned == out.bits_retained_by_parties

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
        assert np.array_equal(rec.trace.current, rec.bob_trace.current)
        assert np.array_equal(rec.trace.voltage, rec.bob_trace.voltage)

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
        hook = MitmHook(CFG, 77)
        rec = run_bit_period(0, 1, CFG, 88, adversary=hook)
        assert len(hook.eve_bits) == 1
        assert rec.bob_trace is not None  # split wire: two distinct views

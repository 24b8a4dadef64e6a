import numpy as np
import pytest

from kljnsim.adversary import InjectionHook, MitmHook
from kljnsim.exchange import (
    ChannelCompromisedError,
    LoopClass,
    UnclassifiableLevelError,
    class_levels,
    classify_level,
    exchange_key,
    first_divergence_index,
    monitor_compare,
    run_bit_period,
)
from kljnsim.noise import (
    NoiseConfig,
    SpectraEstimate,
    WireTrace,
    analytic_spectra,
)

CFG = NoiseConfig()


def max_based_alarm(a: WireTrace, b: WireTrace, tolerance: float) -> bool:
    """Reference monitor: the largest per-sample |difference| of each
    channel against ``tolerance`` times that channel's pooled RMS."""
    alarm = False
    for x, y in ((a.voltage, b.voltage), (a.current, b.current)):
        rms = np.sqrt(0.5 * (np.mean(x ** 2) + np.mean(y ** 2)))
        alarm = alarm or bool(np.abs(x - y).max() > tolerance * rms)
    return alarm


class TestClassifyLevel:
    def test_exact_levels(self):
        levels = class_levels(CFG)
        for cls, spectra in levels.items():
            assert classify_level(spectra, CFG) is cls

    def test_mid_level_is_lh_and_hl(self):
        lh = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
        hl = analytic_spectra(CFG.r_high, CFG.r_low, CFG)
        assert lh == hl  # degeneracy by construction
        assert classify_level(lh, CFG) is LoopClass.MID

    def test_monte_carlo_hh_classification(self):
        rng = np.random.default_rng(17)
        hits = sum(
            run_bit_period(1, 1, CFG, rng).loop_class is LoopClass.HH
            for _ in range(1000))
        assert hits >= 990

    def test_far_measurement_unclassifiable(self):
        mid = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
        off = SpectraEstimate(s_u=mid.s_u * 1e4, s_i=mid.s_i * 1e4)
        with pytest.raises(UnclassifiableLevelError):
            classify_level(off, CFG)

    @staticmethod
    def _between(lo: SpectraEstimate, hi: SpectraEstimate,
                 t: float) -> SpectraEstimate:
        """The point a fraction ``t`` of the way from ``lo`` to ``hi`` in
        (log s_u, log s_i)."""
        return SpectraEstimate(s_u=lo.s_u * (hi.s_u / lo.s_u) ** t,
                               s_i=lo.s_i * (hi.s_i / lo.s_i) ** t)

    def test_margin_is_read_per_config(self):
        # 0.4 of the MID-HH gap from MID: inside margin 0.5, outside 0.3.
        levels = class_levels(CFG)
        point = self._between(levels[LoopClass.MID], levels[LoopClass.HH],
                              0.4)
        strict = NoiseConfig(classify_margin=0.3)
        for _ in range(2):  # alternate, so a stale cached level would show
            assert classify_level(point, CFG) is LoopClass.MID
            with pytest.raises(UnclassifiableLevelError):
                classify_level(point, strict)

    def test_levels_are_read_per_config(self):
        # 0.55 of the way from MID to HH; raising r_high by 30 % moves HH
        # far enough that the point falls nearer MID instead.
        levels = class_levels(CFG)
        point = self._between(levels[LoopClass.MID], levels[LoopClass.HH],
                              0.55)
        wider = NoiseConfig(r_high=1.3 * CFG.r_high)
        for _ in range(2):
            assert classify_level(point, CFG) is LoopClass.HH
            assert classify_level(point, wider) is LoopClass.MID

    def test_nonpositive_spectra_rejected(self):
        with pytest.raises(ValueError):
            classify_level(SpectraEstimate(0.0, 1e-10), CFG)

    @pytest.mark.parametrize("s_u,s_i", [
        (0.0, 1e-10), (1e-8, 0.0), (np.inf, 1e-10), (1e-8, np.inf)])
    def test_zero_or_infinite_spectra_unclassifiable(self, s_u, s_i):
        # a period measured so is discarded as an anomaly, never classified
        with pytest.raises(UnclassifiableLevelError):
            classify_level(SpectraEstimate(s_u, s_i), CFG)


class TestMonitorCompare:
    def test_identical_traces_silent(self):
        tr = WireTrace(np.ones(100), np.ones(100))
        rep = monitor_compare(tr, tr)
        assert not rep.alarm
        assert rep.first_divergence is None

    def test_single_sample_spike_alarms(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=200)
        i = rng.normal(size=200)
        a = WireTrace(v, i)
        v2 = v.copy()
        v2[57] += 10 * np.sqrt(np.mean(v ** 2))
        b = WireTrace(v2, i)
        rep = monitor_compare(a, b)
        assert rep.alarm
        assert first_divergence_index(a, b) == 57

    def test_same_object_equals_full_comparison(self):
        rec = run_bit_period(0, 1, CFG, 5)
        tr = rec.trace
        twin = WireTrace(tr.voltage.copy(), tr.current.copy())
        assert monitor_compare(tr, tr) == monitor_compare(tr, twin)
        assert rec.monitor == monitor_compare(tr, twin)

    def test_spike_in_a_copy_still_alarms(self):
        tr = run_bit_period(1, 0, CFG, 6).trace
        current = tr.current.copy()
        current[3] += 1e-3 * np.sqrt(np.mean(current ** 2))
        spiked = WireTrace(tr.voltage.copy(), current)
        assert monitor_compare(tr, spiked).alarm
        assert first_divergence_index(tr, spiked) == 3

    def test_split_traces_alarm_quickly(self):
        # independent noise on each half: alarm within the first 100
        # samples in >= 999/1000 trials
        rng = np.random.default_rng(3)
        early = 0
        for _ in range(1000):
            a = WireTrace(rng.normal(size=100), rng.normal(size=100))
            b = WireTrace(rng.normal(size=100), rng.normal(size=100))
            idx = first_divergence_index(a, b)
            early += idx is not None and idx < 100
        assert early >= 999

    @pytest.mark.parametrize("tolerance", [0.0, 1e-6, -1.0])
    def test_alarm_equals_max_based_reference(self, tolerance):
        rng = np.random.default_rng(41)
        v, i = rng.normal(size=(2, 200))
        base = WireTrace(v, i)
        others = [base, WireTrace(v.copy(), i.copy()),
                  WireTrace(*rng.normal(size=(2, 200)))]
        for scale in (1e-9, 1e-7, 1e-6):  # straddles tolerance 1e-6
            others.append(WireTrace(v + rng.normal(0, scale, 200),
                                    i + rng.normal(0, scale, 200)))
        for sample in (0, 199):
            for channel in ("voltage", "current"):
                spiked = {"voltage": v.copy(), "current": i.copy()}
                spiked[channel][sample] += 10.0
                others.append(WireTrace(**spiked))
        alarms = [max_based_alarm(base, other, tolerance)
                  for other in others]
        assert [monitor_compare(base, other, tolerance).alarm
                for other in others] == alarms
        assert True in alarms
        if tolerance >= 0:
            assert False in alarms

    def test_attack_reports_carry_first_divergence(self):
        mid = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
        loop_rms = np.sqrt(mid.s_i * CFG.bandwidth)
        rng = np.random.default_rng(43)
        hooks = [MitmHook(CFG, 44)] + [
            InjectionHook(rng.normal(0, ratio * loop_rms,
                                     CFG.samples_per_bit))
            for ratio in (10.0, 1e-5, 1e-9)]
        indices = []
        for seed, hook in enumerate(hooks):
            rec = run_bit_period(0, 1, CFG, seed, adversary=hook)
            indices.append(rec.monitor.first_divergence)
            assert indices[-1] == first_divergence_index(rec.trace,
                                                         rec.bob_trace)
        assert indices[0] is not None and indices[-1] is None
        assert run_bit_period(0, 1, CFG, 45).monitor.first_divergence is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("channel", ["voltage", "current"])
    def test_non_finite_sample_alarms(self, bad, channel):
        rng = np.random.default_rng(47)
        v, i = rng.normal(size=(2, 100))
        spiked = {"voltage": v.copy(), "current": i.copy()}
        spiked[channel][31] = bad
        a, b = WireTrace(v, i), WireTrace(**spiked)
        assert first_divergence_index(a, b) == 31
        assert first_divergence_index(b, a) == 31

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_signal_rescaled(self):
        rng = np.random.default_rng(48)
        v, i = 1e300 * rng.normal(size=(2, 100))
        a = WireTrace(v, i)
        assert first_divergence_index(a, WireTrace(v.copy(),
                                                   i.copy())) is None
        nudged = i.copy()
        nudged[70] *= 1 + 1e-3
        assert first_divergence_index(a, WireTrace(v.copy(), nudged)) == 70

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            monitor_compare(WireTrace(np.ones(3), np.ones(3)),
                            WireTrace(np.ones(4), np.ones(4)))


class TestRunBitPeriod:
    def test_ll_discarded(self):
        rec = run_bit_period(0, 0, CFG, 21)
        assert rec.loop_class is LoopClass.LL
        assert not rec.retained
        assert not rec.monitor.alarm

    def test_hh_discarded(self):
        rec = run_bit_period(1, 1, CFG, 22)
        assert rec.loop_class is LoopClass.HH
        assert not rec.retained

    @pytest.mark.parametrize("bits", [(0, 1), (1, 0)])
    def test_mid_retained(self, bits):
        rec = run_bit_period(*bits, CFG, 23)
        assert rec.loop_class is LoopClass.MID
        assert rec.retained
        assert not rec.monitor.alarm

    def test_shared_wire_transparency(self):
        rec = run_bit_period(0, 1, CFG, 24)
        assert rec.bob_trace is None

    def test_determinism(self):
        a = run_bit_period(0, 1, CFG, 99)
        b = run_bit_period(0, 1, CFG, 99)
        assert np.array_equal(a.trace.voltage, b.trace.voltage)
        assert np.array_equal(a.trace.current, b.trace.current)

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            run_bit_period(2, 0, CFG, 1)


class TestExchangeKey:
    def test_keys_agree_and_discard_near_half(self):
        alice, bob, stats = exchange_key(256, CFG, 1234)
        assert alice.to01() == bob.to01()
        assert len(alice) == 256
        assert abs(stats.discard_fraction - 0.5) < 0.05
        assert stats.alarms == 0

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            exchange_key(0, CFG, 1)

    def test_determinism(self):
        a1, b1, s1 = exchange_key(64, CFG, 77)
        a2, b2, s2 = exchange_key(64, CFG, 77)
        assert a1.to01() == a2.to01()
        assert b1.to01() == b2.to01()
        assert s1.periods_run == s2.periods_run

    def test_record_sink_sees_every_period(self):
        seen = []
        _, _, stats = exchange_key(16, CFG, 31, record_sink=seen.append)
        assert len(seen) == stats.periods_run

    def test_mitm_adversary_aborts(self):
        from kljnsim.adversary import MitmHook

        with pytest.raises(ChannelCompromisedError):
            exchange_key(16, CFG, 41, adversary=MitmHook(CFG, 42))

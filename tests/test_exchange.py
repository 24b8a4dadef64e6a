import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import exchange
from kljnsim.adversary import InjectionHook, MitmHook
from kljnsim.exchange import (
    ALARM_ABORT_COUNT,
    ChannelCompromisedError,
    ExchangeNotConvergedError,
    ExchangeStats,
    LoopClass,
    class_levels,
    classify_level,
    exchange_key,
    first_divergence_index,
    monitor_compare,
    run_bit_period,
    spawn_seeds,
)
from kljnsim.noise import (
    NoiseConfig,
    SpectraEstimate,
    WireTrace,
    analytic_spectra,
)
from kljnsim.privacy import BitString

CFG = NoiseConfig()


def scalar_exchange_key(target_len, cfg, seed, adversary=None,
                        record_sink=None):
    """Reference exchange: two scalar bit draws and one self-drawing
    ``run_bit_period`` per period, the loop that block draws replaced."""
    bit_rng_seed, noise_seed = spawn_seeds(seed, 2)
    bit_rng = np.random.default_rng(bit_rng_seed)
    noise_rng = np.random.default_rng(noise_seed)
    alice_bits, bob_bits = [], []
    stats = ExchangeStats()
    max_periods = 64 * target_len + 1024
    while stats.retained < target_len:
        if stats.periods_run >= max_periods:
            raise ExchangeNotConvergedError(
                f"exchange did not converge within {max_periods} periods")
        a_bit = int(bit_rng.integers(0, 2))
        b_bit = int(bit_rng.integers(0, 2))
        rec = run_bit_period(a_bit, b_bit, cfg, noise_rng,
                             adversary=adversary)
        stats.periods_run += 1
        if record_sink is not None:
            record_sink(rec)
        if rec.monitor.alarm:
            stats.alarms += 1
            if stats.alarms >= ALARM_ABORT_COUNT:
                raise ChannelCompromisedError(
                    f"{stats.alarms} alarms in {stats.periods_run} periods")
            continue
        if rec.loop_class is None:
            stats.anomalies += 1
            continue
        if rec.retained:
            stats.retained += 1
            alice_bits.append(1 - a_bit)
            bob_bits.append(b_bit)
    return (BitString(np.array(alice_bits, dtype=np.uint8), "raw_kljn"),
            BitString(np.array(bob_bits, dtype=np.uint8), "raw_kljn"), stats)


def record_bytes(rec) -> bytes:
    """Everything a period record holds, as bytes."""
    views = [rec.trace] + ([rec.bob_trace] if rec.bob_trace else [])
    return b"".join(
        [v.voltage.tobytes() + v.current.tobytes() for v in views]
        + [repr((rec.spectra_alice, rec.loop_class, rec.retained,
                 rec.monitor.first_divergence)).encode()])


def make_hook(kind, cfg, seed):
    """A fresh adversary of ``kind``: None (an honest wire), "mitm", or an
    injection of "zero" current or of "tiny" noise at 1e-9 x the loop
    current's RMS, far below the monitor tolerance."""
    if kind == "mitm":
        return MitmHook(seed)
    if kind == "zero":
        return InjectionHook(np.zeros(cfg.samples_per_bit))
    if kind == "tiny":
        mid = analytic_spectra(cfg.r_low, cfg.r_high, cfg)
        loop_rms = np.sqrt(mid.s_i * cfg.bandwidth)
        return InjectionHook(np.random.default_rng(seed).normal(
            0, 1e-9 * loop_rms, cfg.samples_per_bit))
    return None


def run_both(target_len, cfg, seed, hook=None, hook_seed=None):
    """(outcome, record bytes) of the block and the reference exchange,
    each under a fresh ``make_hook(hook, cfg, hook_seed)``; the outcome is
    the keys and stats, or the error raised."""
    results = []
    for run in (exchange_key, scalar_exchange_key):
        seen = []
        try:
            alice, bob, stats = run(target_len, cfg, seed,
                                    adversary=make_hook(hook, cfg, hook_seed),
                                    record_sink=seen.append)
            outcome = (alice.to01(), bob.to01(), stats)
        except (ChannelCompromisedError, ExchangeNotConvergedError) as err:
            outcome = (type(err), str(err))
        results.append((outcome, [record_bytes(r) for r in seen]))
    return results


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
        assert classify_level(off, CFG) is None

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
            assert classify_level(point, strict) is None

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
        assert classify_level(SpectraEstimate(0.0, 1e-10), CFG) is None

    @pytest.mark.parametrize("s_u,s_i", [
        (0.0, 1e-10), (1e-8, 0.0), (np.inf, 1e-10), (1e-8, np.inf)])
    def test_zero_or_infinite_spectra_unclassifiable(self, s_u, s_i):
        # a period measured so is discarded as an anomaly, never classified
        assert classify_level(SpectraEstimate(s_u, s_i), CFG) is None


def scalar_classes(spectra, cfg):
    """The one-period rule on each row."""
    return [classify_level(s, cfg) for s in spectra]


def ulp_walks(log_u, log_i, steps):
    """Spectra within ``steps`` ulps of exp(log_u), exp(log_i): each
    coordinate stepped up and down with the other held, enough to cross
    a boundary through that log-space point."""
    center = [math.exp(log_u), math.exp(log_i)]
    out = [SpectraEstimate(*center)]
    for axis in (0, 1):
        for direction in (math.inf, 0.0):
            point = list(center)
            for _ in range(steps):
                point[axis] = math.nextafter(point[axis], direction)
                out.append(SpectraEstimate(*point))
    return out


# (r_high, classify_margin, s_u, s_i): rows on an acceptance circle or a
# bisector where a decision taken with numpy's log and hypot alone comes
# out unlike the scalar rule's (found by a search along the boundaries,
# numpy 2.4 on x86-64).  Other builds may round these alike; then they
# only check that the block still equals the scalar rule.
ROUNDED_APART = [
    (1e4, 0.5, 2.038106788068318e-08, 4.7460303780323516e-15),
    (1e4, 0.5, 1.2766752494081442e-07, 4.417457271314897e-15),
    (80734.0, 0.78, 3.384199371469451e-09, 1.7715823286684869e-15),
    (80734.0, 0.78, 3.5934433199049825e-05, 1.3044756866412361e-16),
    (52114.0, 0.31, 2.5507863151461558e-06, 2.229424020465004e-16),
    (6528.0, 0.4, 4.445452475691702e-08, 2.0036584569350414e-14),
    (41557.0, 0.09, 1.518183881866535e-06, 6.437148912845049e-16),
    (6017.0, 0.95, 1.1289541623927375e-07, 1.0534213151108106e-14),
    (65654.0, 0.26, 4.337803253176455e-06, 3.060561715545228e-16),
    (65654.0, 0.26, 1.2468166117347192e-06, 1.7980948005732322e-16),
]

SPECIAL_SPECTRA = [0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny,
                   np.finfo(np.float64).max, np.inf, np.nan]


class TestBlockClassify:
    """``classify_level`` on a block's spectra equals the one-period rule
    on every row, bit for bit, where numpy's log and hypot and math's could
    round a decision differently: on the bisector between two levels, on
    a level's acceptance circle, and at the float edges."""

    @settings(max_examples=50, deadline=None)
    @given(r_high=st.floats(1.2e3, 1e6),
           margin=st.floats(0.01, 0.99),
           pick=st.integers(0, 2),
           t=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8),
           on_circle=st.booleans())
    def test_boundaries_equal_scalar(self, r_high, margin, pick, t,
                                     on_circle):
        cfg = NoiseConfig(r_high=r_high, classify_margin=margin)
        geometry = exchange._level_geometry(cfg)
        _, px, py, radius = geometry[pick]
        _, qx, qy, _ = geometry[(pick + 1) % 3]
        spectra = []
        for u in t:
            if on_circle:  # at angle u * pi on the circle of ``pick``
                x = px + radius * math.cos(u * math.pi)
                y = py + radius * math.sin(u * math.pi)
            else:  # on the bisector of ``pick`` and the next level
                x = 0.5 * (px + qx) - u * (qy - py)
                y = 0.5 * (py + qy) + u * (qx - px)
            spectra += ulp_walks(x, y, 24)
        assert classify_level(spectra, cfg) == scalar_classes(spectra, cfg)

    @pytest.mark.parametrize("r_high,margin,s_u,s_i", ROUNDED_APART)
    def test_rows_rounded_apart_equal_scalar(self, r_high, margin, s_u,
                                             s_i):
        cfg = NoiseConfig(r_high=r_high, classify_margin=margin)
        spectra = [SpectraEstimate(s_u, s_i)] + list(
            class_levels(cfg).values())
        assert classify_level(spectra, cfg) == scalar_classes(spectra, cfg)

    @pytest.mark.parametrize("s_u", SPECIAL_SPECTRA)
    @pytest.mark.parametrize("s_i", SPECIAL_SPECTRA + [1e-12])
    def test_special_spectra_equal_scalar(self, s_u, s_i):
        level = class_levels(CFG)[LoopClass.MID]
        spectra = [SpectraEstimate(s_u, s_i), level,
                   SpectraEstimate(s_i, s_u)]
        assert classify_level(spectra, CFG) == scalar_classes(spectra, CFG)

    def test_measured_block_equals_scalar(self):
        rng = np.random.default_rng(8)
        spectra = [run_bit_period(int(a), int(b), CFG, rng).spectra_alice
                   for a, b in rng.integers(0, 2, (400, 2))]
        classes = classify_level(spectra, CFG)
        assert classes == scalar_classes(spectra, CFG)
        assert set(classes) == {LoopClass.LL, LoopClass.MID, LoopClass.HH}


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
        hooks = [MitmHook(44)] + [
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
            exchange_key(16, CFG, 41, adversary=MitmHook(42))


class TestBlockDraws:
    """``exchange_key`` draws bits and noise a block at a time; every key,
    count, record and error equals the one-draw-per-period reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           target_len=st.one_of(st.integers(1, 8), st.integers(60, 200)),
           samples_per_bit=st.sampled_from([100, 101, 257]),
           periods_per_block=st.sampled_from([1, 3, 50, None]),
           hook=st.sampled_from([None, "mitm", "zero", "tiny"]))
    # Hostile exchanges that complete a 200-bit key, at every budget.
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=1, hook="zero")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=3, hook="zero")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=50, hook="zero")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=None, hook="zero")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=1, hook="tiny")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=3, hook="tiny")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=50, hook="tiny")
    @example(seed=11, target_len=200, samples_per_bit=100,
             periods_per_block=None, hook="tiny")
    def test_equals_scalar_reference(self, seed, target_len,
                                     samples_per_bit, periods_per_block,
                                     hook):
        cfg = NoiseConfig(samples_per_bit=samples_per_bit)
        budget = exchange.NOISE_BLOCK_BYTES if periods_per_block is None \
            else 16 * samples_per_bit * periods_per_block
        with mock.patch.object(exchange, "NOISE_BLOCK_BYTES", budget):
            (block, block_recs), (ref, ref_recs) = run_both(
                target_len, cfg, seed, hook, seed + 1)
        assert block == ref
        assert block_recs == ref_recs
        if hook == "mitm":
            assert ref[0] is ChannelCompromisedError
            assert len(ref_recs) == ALARM_ABORT_COUNT
        elif hook is not None:  # below tolerance: the key completes
            assert len(ref[0]) == target_len

    def test_budget_crosses_blocks_at_default_size(self):
        # about 600 periods wanted, at most 62 a block: several blocks
        assert exchange.NOISE_BLOCK_BYTES // (16 * CFG.samples_per_bit) < 600
        (block, block_recs), (ref, ref_recs) = run_both(300, CFG, 2024)
        assert block == ref and block_recs == ref_recs
        assert len(ref[0]) == 300

    def test_not_converged_at_the_same_period(self):
        # almost nothing classifies at this margin: the period budget ends it
        cfg = NoiseConfig(classify_margin=0.001)
        (block, block_recs), (ref, ref_recs) = run_both(4, cfg, 6)
        assert block == ref == (ExchangeNotConvergedError,
                                "exchange did not converge within 1280 "
                                "periods")
        assert block_recs == ref_recs and len(ref_recs) == 1280

    @pytest.mark.parametrize("target_len,samples_per_bit", [
        (2560, 100), (64, 10_000)])
    def test_peak_memory_bounded(self, target_len, samples_per_bit):
        # One uncapped block, both ends' noise for 2 x target_len periods,
        # would alone take 8.2 MB and 20.5 MB here.  Capped, the block and
        # the one before it (still referenced while the next is drawn) stay
        # well under the bound.
        cfg = NoiseConfig(samples_per_bit=samples_per_bit)
        exchange_key(4, cfg, 0)  # first-call caches are not the exchange's
        tracemalloc.start()
        try:
            exchange_key(target_len, cfg, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestBlockSolve:
    """An honest exchange solves, measures, classifies and monitors each
    block in one call each, and still calls ``run_bit_period`` once per
    period, up to the period that completes the key."""

    @staticmethod
    def _counting(target_len, seed, adversary=None, record_sink=None):
        """Run ``exchange_key`` with its callees counted; returns the
        mocks by name and the stats (None when the exchange aborts)."""
        names = ("generate_noise", "compose_loop", "measure_spectra",
                 "classify_level", "monitor_compare", "run_bit_period")
        with contextlib.ExitStack() as stack:
            mocks = {name: stack.enter_context(mock.patch.object(
                exchange, name, wraps=getattr(exchange, name)))
                for name in names}
            try:
                stats = exchange_key(target_len, CFG, seed,
                                     adversary=adversary,
                                     record_sink=record_sink)[2]
            except ChannelCompromisedError:
                stats = None
        return mocks, stats

    def test_one_solve_per_block_one_call_per_period(self):
        mocks, stats = self._counting(300, 2024)  # several blocks
        blocks = mocks["generate_noise"].call_count
        assert blocks > 1
        assert mocks["compose_loop"].call_count == blocks
        assert mocks["measure_spectra"].call_count == blocks
        periods = mocks["run_bit_period"]
        assert periods.call_count == stats.periods_run
        assert all("solved" in call.kwargs for call in periods.call_args_list)
        drawn = sum(call.args[0].shape[0]
                    for call in mocks["compose_loop"].call_args_list)
        assert stats.periods_run <= drawn

    def test_adversary_hook_runs_only_to_the_abort(self):
        hook = mock.Mock(wraps=MitmHook(42))
        mocks, stats = self._counting(256, 41, hook)
        assert stats is None  # a cut wire aborts the exchange
        # The first block is drawn at full size, but it is solved lazily:
        # the hook sees no period past the one that aborts.
        first_psds = mocks["generate_noise"].call_args_list[0].args[0]
        max_block = exchange.NOISE_BLOCK_BYTES // (16 * CFG.samples_per_bit)
        assert first_psds.shape == (min(2 * 256, max_block), 2)
        assert first_psds.shape[0] > ALARM_ABORT_COUNT
        assert hook.call_count == ALARM_ABORT_COUNT
        assert mocks["run_bit_period"].call_count == ALARM_ABORT_COUNT
        assert all("solved" in call.kwargs
                   for call in mocks["run_bit_period"].call_args_list)

    def test_classify_and_monitor_once_per_block(self):
        mocks, stats = self._counting(300, 2024)
        blocks = mocks["generate_noise"].call_count
        assert blocks > 1
        classify = mocks["classify_level"].call_args_list
        assert len(classify) == blocks
        assert [len(call.args[0]) for call in classify] == [
            call.args[0].shape[0]
            for call in mocks["generate_noise"].call_args_list]
        monitor = mocks["monitor_compare"].call_args_list
        assert len(monitor) == blocks
        assert all(call.args[0] is call.args[1] for call in monitor)

    @pytest.mark.parametrize("target_len,seed", [(1, 3), (37, 5), (300, 7)])
    def test_records_stop_at_the_cut(self, target_len, seed):
        records = []
        mocks, stats = self._counting(target_len, seed,
                                      record_sink=records.append)
        assert mocks["run_bit_period"].call_count == stats.periods_run
        assert len(records) == stats.periods_run
        assert sum(rec.retained for rec in records) == target_len
        assert records[-1].retained  # nothing past the completing period
        assert stats.anomalies == sum(rec.loop_class is None
                                      for rec in records)

    def test_adversary_classifies_and_monitors_per_period(self):
        mocks, stats = self._counting(256, 41, MitmHook(42))
        assert stats is None
        periods = mocks["run_bit_period"].call_count
        assert periods == ALARM_ABORT_COUNT
        # each end classifies its own view, and the views are compared
        assert mocks["classify_level"].call_count == 2 * periods
        assert mocks["monitor_compare"].call_count == periods

    @pytest.mark.parametrize("kind", [None, "mitm", "zero"])
    def test_period_returns_are_the_sink_records(self, kind):
        # The benchmark's tracer counts periods, retained bits, alarms and
        # anomalies from what each ``run_bit_period`` call returns.  Those
        # returns must be the records the sink gets, and their sums the
        # exchange's stats (for an aborted exchange, its message's).  The
        # narrow margin leaves some periods unclassified.
        cfg = NoiseConfig(classify_margin=0.2)
        returned, sunk = [], []
        period = exchange.run_bit_period

        def observed(*args, **kwargs):
            returned.append(period(*args, **kwargs))
            return returned[-1]

        with mock.patch.object(exchange, "run_bit_period", observed):
            try:
                stats = exchange_key(200, cfg, 17, make_hook(kind, cfg, 42),
                                     sunk.append)[2]
            except ChannelCompromisedError as err:
                stats = str(err)
        assert len(returned) == len(sunk) > 0
        assert all(ret is rec for ret, rec in zip(returned, sunk))
        derived = ExchangeStats(
            periods_run=len(returned),
            retained=sum(rec.retained for rec in returned),
            alarms=sum(rec.monitor.alarm for rec in returned),
            anomalies=sum(not rec.monitor.alarm and rec.loop_class is None
                          for rec in returned))
        if kind == "mitm":
            assert derived.alarms == ALARM_ABORT_COUNT
            assert stats == (f"{derived.alarms} alarms in "
                             f"{derived.periods_run} periods")
        else:
            assert derived == stats
            assert derived.retained == 200
            assert derived.anomalies > 0

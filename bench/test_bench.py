"""Self-tests of the benchmark's arithmetic, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from harness import (  # noqa: E402
    op_latencies,
    percentile,
    samples_beyond,
    span_totals,
    tail_percentile,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([7.0], 99) == 7.0

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        for n in [*range(1, 1100), 9999, 10000]:
            q = tail_percentile(n)
            higher = [g for g in harness.TAIL_GRID if q is None or g > q]
            assert all(samples_beyond(n, g) < 10 for g in higher)
            if q is not None:
                assert samples_beyond(n, q) >= 10

    def test_samples_beyond_counts_the_sorted_tail(self):
        for n in (40, 99, 100, 1000, 3000):
            ordered = list(range(n))
            for q in harness.TAIL_GRID:
                assert sum(x > percentile(ordered, q) for x in ordered) \
                    == samples_beyond(n, q)

    def test_p90_withheld_below_100_ops(self):
        assert all(tail_percentile(n) in (None, 75.0) for n in range(100))
        assert tail_percentile(99) == 75.0
        assert tail_percentile(100) == 90.0
        assert tail_percentile(39) is None
        assert tail_percentile(1000) == 99.0

    def test_workload_tails_are_fixed_by_their_minimum_ops(self):
        tails = {name: wl.tail for name, wl in run.WORKLOADS.items()}
        assert tails == {"exchange-campaign": 90.0, "card-lifetime": 75.0,
                         "attack-suite": 99.0}


class TestSelfTime:
    def test_nested_spans(self):
        # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,6]; D[11,12].
        names = ["A", "B", "C", "B", "D"]
        parents = [-1, 0, 1, 0, -1]
        starts = [0.0, 1.0, 2.0, 5.0, 11.0]
        ends = [10.0, 4.0, 3.0, 6.0, 12.0]
        totals, root_s = span_totals(names, parents, starts, ends)
        assert totals == {"A": [1, 6.0], "B": [2, 3.0], "C": [1, 1.0],
                          "D": [1, 1.0]}
        assert root_s == 11.0

    def test_self_times_sum_to_root_time(self):
        names = ["A", "B", "B", "B"]
        parents = [-1, 0, 1, 2]
        starts = [0.0, 0.5, 1.0, 1.5]
        ends = [8.0, 7.0, 6.0, 5.0]
        totals, root_s = span_totals(names, parents, starts, ends)
        assert sum(s for _, s in totals.values()) == pytest.approx(root_s)
        # Recursion into B counts B's time once: 8 - 1.5 owned by A.
        assert totals["B"] == [3, pytest.approx(6.5)]
        assert totals["A"] == [1, pytest.approx(1.5)]

    def test_child_before_parent_rejected(self):
        with pytest.raises(ValueError):
            span_totals(["A", "B"], [1, -1], [0.0, 0.0], [1.0, 1.0])


class TestRecordArrival:
    def test_fake_stream(self):
        # Three ops, then a summary record that is not an op.
        stamps = [0.25, 0.5, 1.25, 1.5]
        assert op_latencies(stamps, [True, True, True, False]) \
            == [0.25, 0.25, 0.75]

    def test_non_op_records_do_not_split_an_op(self):
        assert op_latencies([1.0, 2.0, 4.0], [True, False, True],
                            t_start=0.5) == [0.5, 3.0]

    def test_backwards_stamps_rejected(self):
        with pytest.raises(ValueError):
            op_latencies([2.0, 1.0], [True, True])


class TestChecks:
    def exchange_stream(self, **trial):
        trials = [{"schema": "kljn.exchange_trial", "agreement": True,
                   "alarms": 0, **trial}] * run.EXCHANGE_TRIALS
        return [trials + [{"schema": "kljn.exchange_summary",
                           "all_agree": True, "total_alarms": 0}]]

    def test_exchange(self):
        assert run.check_exchange(self.exchange_stream(), 0) == 0
        assert run.check_exchange(self.exchange_stream(alarms=1), 0) \
            == run.EXCHANGE_TRIALS

    def card_streams(self, seed, status_of=None):
        faults = run.card_faults(seed)
        sessions = []
        for i in range(run.CARD_SESSIONS):
            fault = faults.get(i)
            status = "broken" if fault in ("wrong_key", "mitm_auth") \
                else "closed"
            if status_of:
                status = status_of.get(i, status)
            sessions.append({"schema": "kljn.session", "session": i,
                             "status": status, "fault": fault,
                             "refreshed": fault is None,
                             "generation": 7, "broken_count": 2})
        summary = {"schema": "kljn.lifetime_summary", "segment_reuse": False}
        card = {"schema": "kljn.keystore_card", "generation": 7,
                "broken_count": 2}
        return [sessions + [summary], [card]]

    def test_card_fault_outcomes(self):
        assert sorted(run.card_faults(5).values()) == sorted(run.FAULT_KINDS)
        assert run.check_card(self.card_streams(5), 5) == 0
        broken_slot = next(i for i, k in run.card_faults(5).items()
                           if k == "wrong_key")
        assert run.check_card(
            self.card_streams(5, {broken_slot: "closed"}), 5) == 1


class TestTracer:
    def test_every_span_is_expected_on_some_workload(self):
        from tracer import SPAN_NAMES
        expected = {s for wl in run.WORKLOADS.values()
                    for s in wl.expected_spans}
        assert expected == set(SPAN_NAMES)

    def test_every_binding_is_wrapped_and_restored(self):
        import kljnsim.cli
        import kljnsim.exchange
        from kljnsim.noise import NoiseConfig
        from tracer import SPAN_NAMES, Tracer

        modules = [m for n, m in sys.modules.items()
                   if n == "kljnsim" or n.startswith("kljnsim.")]
        classes = [kljnsim.cli.Emitter, kljnsim.cli.Keystore,
                   kljnsim.cli.MitmHook]

        def bindings():
            return ({(id(m), k): v for m in modules
                     for k, v in vars(m).items()},
                    [dict(vars(c)) for c in classes])

        before = bindings()
        original = kljnsim.exchange.run_bit_period
        tr = Tracer()
        tr.install()
        try:
            for m in modules:
                assert all(v is not original for v in vars(m).values())
            # adversary binds run_bit_period and MitmHook by from-import.
            kljnsim.cli.mitm_attack(NoiseConfig(), (1, 0))
        finally:
            tr.uninstall()
        assert bindings() == before
        spans = tr.report()["spans"]
        assert set(spans) == set(SPAN_NAMES)
        for name in ("adversary.mitm_attack", "exchange.run_bit_period",
                     "adversary.MitmHook.call",
                     "exchange.first_divergence_index"):
            assert spans[name][0] == 1, name
        assert tr.counts["adversary.attacks"] == 1
        assert tr.counts["noise.samples"] == 4 * NoiseConfig().samples_per_bit

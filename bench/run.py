"""kljnsim benchmark: drives the README CLI on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The load is a closed loop with
one client: each CLI command runs in a fresh child process (bench/child.py)
started only after the previous one has ended, and within a command each
op (exchange trial, card session, attack trial) starts when the previous
one has finished.  One rep is the workload's command list; reps repeat
with the same arguments until S seconds have passed and the workload's
minimum rep count is met, so every rep must print the same bytes.

Every stream is checked record by record (schema, per-op outcome) and its
sha256 is compared with bench/digests.json when the seed is pinned there.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced reps alternate and it holds the per-layer
metrics.  The metric names and units are those listed in BENCHMARK.json.
The line before it records the provenance of the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from harness import op_latencies, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
WORK_PARENT = ROOT / ".bench_work"

DEADLINE_S = 170.0     # a run must end within 180 s
SETUP_PROBES = 5       # timed start-ups per run, besides every rep's own
TRACED_REPS_MIN = 2    # computed counts must repeat across traced reps
COVERAGE_MIN = 0.85    # share of traced CLI wall inside root spans

EXCHANGE_TRIALS = 50
ATTACK_TRIALS = 1000
ATTACK_KINDS = ("passive", "mitm", "injection")
CARD_SESSIONS = 10
FAULT_KINDS = ("wrong_key", "mitm_auth", "mitm_refresh")


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


# ---------------------------------------------------------------- workloads

def exchange_commands(seed, keystore):
    return [["exchange", "--target_bits", "256",
             "--trials", str(EXCHANGE_TRIALS), "--seed", str(seed)]]


def attack_commands(seed, keystore):
    return [["attack", kind, "--trials", str(ATTACK_TRIALS),
             "--seed", str(seed)]
            + (["--amplitude", "10"] if kind == "injection" else [])
            for kind in ATTACK_KINDS]


def card_faults(seed) -> dict[int, str]:
    """One session of each fault kind, at positions drawn from the seed."""
    slots = random.Random(seed).sample(range(CARD_SESSIONS), len(FAULT_KINDS))
    return dict(sorted(zip(slots, FAULT_KINDS)))


def card_commands(seed, keystore):
    faults = ",".join(f"{i}:{k}" for i, k in card_faults(seed).items())
    return [["card-lifetime", "--n_sessions", str(CARD_SESSIONS),
             "--faults", faults, "--keystore", keystore,
             "--seed", str(seed)],
            ["keystore-inspect", "--keystore", keystore]]


def check_exchange(streams, seed) -> int:
    (recs,) = streams
    trials = [r for r in recs if r["schema"] == "kljn.exchange_trial"]
    failed = sum(not (r["agreement"] is True and r["alarms"] == 0)
                 for r in trials)
    summary = recs[-1]
    failed += len(trials) != EXCHANGE_TRIALS
    failed += not (summary["schema"] == "kljn.exchange_summary"
                   and summary["all_agree"] is True
                   and summary["total_alarms"] == 0)
    return failed


def check_attack(streams, seed) -> int:
    failed = 0
    for kind, recs in zip(ATTACK_KINDS, streams):
        trials = [r for r in recs if r["schema"] == "kljn.attack_trial"]
        failed += len(trials) != ATTACK_TRIALS
        failed += sum(r["kind"] != kind for r in trials)
        if kind == "passive":
            # Eve's end assignment on secure periods is a fair coin.
            n = len(trials)
            hits = sum(r["assignment_correct"] is True for r in trials)
            failed += abs(hits / n - 0.5) > 4 * 0.5 / math.sqrt(n)
        else:
            failed += sum(r["detected"] is not True for r in trials)
    return failed


def check_card(streams, seed) -> int:
    lifetime, inspect = streams
    faults = card_faults(seed)
    sessions = [r for r in lifetime if r["schema"] == "kljn.session"]
    failed = len(sessions) != CARD_SESSIONS
    for r in sessions:
        fault = faults.get(r["session"])
        if fault is None:
            ok = r["status"] == "closed" and r["refreshed"] is True
        elif fault == "mitm_refresh":
            ok = r["status"] == "closed" and r["refreshed"] is False
        else:
            ok = r["status"] == "broken"
        failed += not (ok and r["fault"] == fault)
    summary = lifetime[-1]
    failed += not (summary["schema"] == "kljn.lifetime_summary"
                   and summary["segment_reuse"] is False)
    cards = [r for r in inspect if r["schema"] == "kljn.keystore_card"]
    last = sessions[-1]
    failed += not (len(cards) == 1
                   and cards[0]["generation"] == last["generation"]
                   and cards[0]["broken_count"] == last["broken_count"])
    return failed


@dataclass(frozen=True)
class Workload:
    commands: Callable      # (seed, keystore path) -> list of CLI argv
    op_schema: str          # the per-op record
    ops_per_rep: int
    check: Callable         # (parsed streams, seed) -> failed checks
    min_reps: int           # fixes the tail level; more steadies figures
    expected_spans: tuple   # spans that must see calls in a traced rep
    journal: bool = False   # the rep writes a keystore journal

    @property
    def tail(self) -> float:
        """The tail percentile reported: the highest that a run's
        guaranteed op count supports (p90 needs 100 ops, p99 1000)."""
        return tail_percentile(self.ops_per_rep * self.min_reps)


PERIOD_SPANS = ("noise.generate_noise", "noise.compose_loop",
                "noise.measure_spectra", "exchange.run_bit_period",
                "exchange.classify_level", "exchange.monitor_compare",
                "cli.Emitter.emit")

WORKLOADS = {
    # Many short honest exchanges: all wall time in the per-period stack.
    "exchange-campaign": Workload(
        exchange_commands, "kljn.exchange_trial", EXCHANGE_TRIALS,
        check_exchange, 2,
        PERIOD_SPANS + ("exchange.exchange_key",)),
    # The only workload exercising tags, privacy, card and the journal.
    "card-lifetime": Workload(
        card_commands, "kljn.session", CARD_SESSIONS, check_card, 6,
        PERIOD_SPANS + ("exchange.exchange_key", "adversary.MitmHook.call",
                        "privacy.amplify", "tags.poly_tag",
                        "tags.segment_to_key", "card.run_session",
                        "card.authenticate_session", "card.run_transaction",
                        "card.refresh_key_c", "card.Keystore.journal",
                        "card.Keystore.load"),
        journal=True),
    # Single adversarial bit periods: per-call fixed costs dominate.
    "attack-suite": Workload(
        attack_commands, "kljn.attack_trial",
        ATTACK_TRIALS * len(ATTACK_KINDS), check_attack, 1,
        PERIOD_SPANS + ("noise.infer_resistor_pair",
                        "exchange.first_divergence_index",
                        "adversary.passive_eavesdrop",
                        "adversary.mitm_attack", "adversary.inject_current",
                        "adversary.MitmHook.call",
                        "adversary.InjectionHook.call")),
}


# ------------------------------------------------------------------ running

@contextlib.contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()


class Runner:
    """Starts child processes inside one work directory, under a deadline."""

    def __init__(self, work: Path, deadline: float, validate: Callable):
        self.work = work
        self.deadline = deadline
        self.validate = validate
        self.setup_s: list[float] = []

    def spawn(self, args: list[str], record_setup: bool = True):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(CHILD), *args],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("child passed the run deadline") from None
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchError(f"child {args[:1]} failed to start or exited "
                             f"with {proc.returncode}")
        if record_setup:
            self.setup_s.append(setup)

    def command(self, argv: list[str], trace: bool) -> dict:
        trailer = self.work / "trailer.json"
        self.spawn(["run", str(trailer), *(["--trace"] if trace else []),
                    json.dumps(argv)], record_setup=not trace)
        out = json.loads(trailer.read_text(encoding="utf-8"))
        trailer.unlink()
        if out["rc"] != 0:
            raise BenchError(f"kljnsim {' '.join(argv)} exited {out['rc']}")
        return out

    def rep(self, wl: Workload, seed: int, trace: bool) -> dict:
        """Run the workload's commands once, check and digest the output."""
        journal = self.work / "cards.jsonl"
        journal.unlink(missing_ok=True)
        outs = [self.command(argv, trace)
                for argv in wl.commands(seed, str(journal))]
        stream = "".join(o["stream"] for o in outs).encode("utf-8")
        latencies: list[list[float]] = []   # per command
        parsed = []
        failed = ops = 0
        for o in outs:
            lines = o["stream"].splitlines()
            if len(lines) != len(o["stamps"]):
                raise BenchError("stream writes are not one record each")
            recs = []
            is_op = []
            for line in lines:
                try:
                    rec = json.loads(line)
                    self.validate(rec)
                except ValueError:
                    failed += 1
                    is_op.append(False)
                    continue
                recs.append(rec)
                is_op.append(rec["schema"] == wl.op_schema)
            latencies.append(op_latencies(o["stamps"], is_op))
            ops += sum(is_op)
            parsed.append(recs)
        try:
            failed += wl.check(parsed, seed)
        except (KeyError, TypeError, IndexError, ValueError,
                ZeroDivisionError):
            failed += 1
        return {
            "stream_sha256": hashlib.sha256(stream).hexdigest(),
            "journal_sha256": hashlib.sha256(journal.read_bytes())
            .hexdigest() if wl.journal else None,
            "journal_bytes": journal.stat().st_size if wl.journal else 0,
            "ops": ops,
            "failed": failed,
            "wall_s": sum(o["wall_s"] for o in outs),
            "latencies": latencies,
            "maxrss_kb": max(o["maxrss_kb"] for o in outs),
            "traces": [o["trace"] for o in outs] if trace else None,
        }


def digest_of(rep: dict) -> dict:
    """What must repeat exactly for one seed: the stream and the journal."""
    out = {"stream": rep["stream_sha256"]}
    if rep["journal_sha256"] is not None:
        out["journal"] = rep["journal_sha256"]
    return out


# ------------------------------------------------------------------ metrics

def end_to_end(wl: Workload, reps: list[dict], setup_s: list[float]):
    """Throughput is the median across reps and the tail the median across
    windows of ``min_reps`` consecutive reps (the fewest that hold enough
    ops for the tail level), so a burst of load from outside the benchmark
    that hits a minority of them does not move the figure.

    The p50 is taken per command over the whole run and weighted by op
    count.  With one op command it is the plain median; attack-suite mixes
    three kinds of unequal cost, where a median of the mix would sit in the
    gap between two kinds and jump across it."""
    windows = [reps[i:i + wl.min_reps]
               for i in range(0, len(reps) - wl.min_reps + 1, wl.min_reps)]
    windows[-1] += reps[len(windows) * wl.min_reps:]
    per_command = [[x for lat in cmd for x in lat]
                   for cmd in zip(*(r["latencies"] for r in reps))]
    n_ops = sum(len(c) for c in per_command)
    q = wl.tail
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
        "op_p50_ms": 1e3 * sum(len(c) * percentile(c, 50)
                               for c in per_command if c) / n_ops,
        "op_tail_ms": 1e3 * statistics.median(
            percentile([x for r in w for lat in r["latencies"] for x in lat],
                       q)
            for w in windows),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps)
        / 1024.0,
    }
    return values, {"tail_percentile": q, "tail_windows": len(windows),
                    "latency_samples": n_ops}


def per_layer(wl: Workload, plain: list[dict], traced: list[dict]):
    """Per-rep layer figures from the traced reps; raises if they differ in
    anything that must repeat, or miss an expected span."""
    def summed(rep):
        calls: dict = {}
        self_s: dict = {}
        counts: dict = {}
        root = 0.0
        for t in rep["traces"]:
            root += t["root_s"]
            for name, (n, s) in t["spans"].items():
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + s
            for name, n in t["counts"].items():
                counts[name] = counts.get(name, 0) + n
        counts["card.journal.bytes"] = rep["journal_bytes"]
        return calls, self_s, counts, root / rep["wall_s"]

    sums = [summed(r) for r in traced]
    calls, _, counts, _ = sums[0]
    for other_calls, _, other_counts, _ in sums[1:]:
        if other_calls != calls or other_counts != counts:
            raise BenchError("calls or computed counts differ between "
                             "traced reps of one seed")
    missing = [s for s in wl.expected_spans if calls[s] == 0]
    if missing:
        raise BenchError(f"expected spans saw no calls: {missing}")
    coverage = statistics.median(s[3] for s in sums)
    if coverage < COVERAGE_MIN:
        raise BenchError(f"root spans cover only {coverage:.1%} of the "
                         "traced CLI wall time")

    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = statistics.median(s[1][name]
                                                     for s in sums)
    tag_kb = counts["tags.poly_tag.bytes"] / 1024.0
    values.update({
        "noise.samples": counts["noise.samples"],
        "noise.bytes": 8 * counts["noise.samples"],
        "exchange.retained_ratio": counts["exchange.retained"]
        / max(1, counts["exchange.periods"]),
        "exchange.alarms": counts["exchange.alarms"],
        "exchange.anomalies": counts["exchange.anomalies"],
        "adversary.detected_ratio": counts["adversary.detected"]
        / max(1, counts["adversary.attacks"]),
        "tags.poly_tag.bytes": counts["tags.poly_tag.bytes"],
        "tags.poly_tag.us_per_kb": 1e6 * values["tags.poly_tag.self_s"]
        / tag_kb if tag_kb else 0.0,
        "card.journal.bytes": counts["card.journal.bytes"],
        "trace.overhead_ratio": statistics.median(r["wall_s"]
                                                  for r in traced)
        / statistics.median(r["wall_s"] for r in plain),
        "trace.coverage": coverage,
    })
    computed = ["noise.samples", "noise.bytes", "tags.poly_tag.bytes",
                "card.journal.bytes"]
    return values, {"computed": computed, "traced_reps": len(traced)}


# --------------------------------------------------------------------- main

def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            runner: Runner):
    runner.spawn(["probe"], record_setup=False)   # fills caches, .pyc
    for _ in range(SETUP_PROBES):
        runner.spawn(["probe"])
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    while True:
        plain.append(runner.rep(wl, seed, trace=False))
        if trace:
            traced.append(runner.rep(wl, seed, trace=True))
        done = time.monotonic() - t0 >= seconds
        if trace and done and len(traced) >= TRACED_REPS_MIN:
            break
        if not trace and done and len(plain) >= wl.min_reps:
            break
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kljnsim" / "cli.py").is_file():
        print(f"no kljnsim source under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    from kljnsim.records import validate_record

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    try:
        with work_dir() as work:
            runner = Runner(work, deadline, validate_record)
            plain, traced = measure(wl, args.seed, args.seconds,
                                    bool(args.trace), runner)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    reps = plain + traced
    digests = [digest_of(r) for r in reps]
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) \
        .get(args.workload, {}).get(str(args.seed))
    digest_ok = all(d == digests[0] for d in digests) \
        and pinned in (None, digests[0])
    if not digest_ok:
        print(f"digest mismatch: reps gave {digests}, pinned {pinned}",
              file=sys.stderr)
    info = {**provenance(), "workload": args.workload, "seed": args.seed,
            "commands": wl.commands(args.seed, "KEYSTORE"),
            "reps": len(plain), "ops": sum(r["ops"] for r in plain),
            "digest": digests[0], "digest_pinned": pinned is not None}
    try:
        if args.trace:
            values, extra = per_layer(wl, plain, traced)
            listed = spec["per_layer"]
        else:
            values, extra = end_to_end(wl, plain, runner.setup_s)
            extra["setup_samples"] = len(runner.setup_s)
            listed = spec["end_to_end"]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    info.update(extra)
    attempted = max(1, sum(r["ops"] for r in reps))
    failed = min(attempted, sum(r["failed"] for r in reps))
    correct = digest_ok and failed == 0
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repository hygiene checks: the source is read for dead names, every
numeric setting has a bound, the benchmark's span list is checked
against an in-process traced run, and its pinned digests against
in-process runs of its commands."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from kljnsim import card, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kljnsim"

# Defined but referenced nowhere else, on purpose, with the reason.
UNREFERENCED_ALLOWED = {
    # The paper's partner-resistance inversion; acceptance criterion 04
    # checks it.
    "infer_partner_resistance",
    # AuthResult.reason: why a session broke, channel_alarm or
    # tag_mismatch; the session record has no field for it, and
    # tests/test_card.py checks it.
    "reason",
    # TransactionResult.ciphertext: the transaction's output, what the
    # card sends the terminal; acceptance criterion 11 reads the pad from
    # it.
    "ciphertext",
    # TransactionResult.decrypted_matches: run_session ignores it, so a
    # transaction whose round trip fails is not reported (the open
    # silent-bit-error defect, ROADMAP item 3).
    "decrypted_matches",
    # The derived child seed's generate_state: only numpy calls it, when a
    # bit generator is seeded with the child.
    "generate_state",
}


def defined_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every function, method and class ``path`` defines,
    and of every name a module-level assignment binds, dunders left
    out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [(node.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [(name.id, name.lineno) for target in targets
                  for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(name, line) for name, line in names
            if not (name.startswith("__") and name.endswith("__"))]


def member_names(path: Path) -> set[tuple[str, int]]:
    """(name, line) of every method and property a class in ``path``
    defines, and of every field of a dataclass there, dunders left
    out."""
    members = set()
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(ast.unparse(d).split("(")[0] == "dataclass"
                        for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add((node.name, node.lineno))
            elif dataclass and isinstance(node, ast.AnnAssign):
                members.add((node.target.id, node.lineno))
    return {(name, line) for name, line in members
            if not (name.startswith("__") and name.endswith("__"))}


def attribute_reads(paths: list[Path]) -> set[str]:
    """Every name that code in ``paths`` reads as an attribute,
    ``obj.name``."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def name_reads(paths: list[Path]) -> set[str]:
    """Every name that code in ``paths`` loads, ``name``, or imports,
    ``from module import name``."""
    return {node.id if isinstance(node, ast.Name) else node.name
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.alias)}


def test_every_defined_name_is_referenced():
    """A function, class or module constant that no code in the package
    or the benchmark names (loads, reads as an attribute or imports) is
    dead code, and so is a method, property or dataclass field that no
    code there reads as an attribute: a local variable, a keyword argument
    or a word in prose of the same name does not use it.  The package's
    ``__init__.py`` re-exports every public name, so it does not count as
    a reference."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    sources = [*modules, *sorted((ROOT / "bench").glob("*.py"))]
    read = attribute_reads(sources)
    named = read | name_reads(sources)
    unreferenced = set()
    for module in modules:
        members = member_names(module)
        unreferenced |= {name for name, _ in members if name not in read}
        unreferenced |= {name for name, line in defined_names(module)
                         if (name, line) not in members
                         and name not in named}
    assert unreferenced == UNREFERENCED_ALLOWED


def test_import_leaves_numpy_random_unloaded():
    """Importing the CLI does not load ``numpy.random``: a run pays for it
    only when it draws, and every benchmarked command starts by importing
    the CLI, which would otherwise add to its start-up time and peak
    memory."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, kljnsim.cli; "
         "print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(PACKAGE.parent),
                          os.environ.get("PYTHONPATH")]))})
    assert probe.stdout == "False\n"


def test_public_names_declared_only_in_init():
    """``__init__.py`` declares the package's public API; an ``__all__``
    in a submodule would declare it a second time."""
    declaring = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "__init__.py"
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name) and target.id == "__all__"]
    assert declaring == []


def test_every_numeric_setting_is_bounded():
    """A numeric setting with no row in the CLI's bounds table would
    accept any size, however much it allocates."""
    numeric = {f.name for f in fields(cli.RunConfig)
               if f.type in ("int", "float")}
    assert (numeric | {"samples_per_bit"}) - set(cli._BOUNDS) == set()


# Cut trial counts for the traced run: enough trials that every layer runs.
CUT_TRIALS = "2"


def cut_counts(argv: list[str]) -> list[str]:
    """A benchmark command with fewer trials: ``--trials`` cut to
    CUT_TRIALS, and ``--n_sessions`` to the last session with a fault."""
    argv = list(argv)
    if "--trials" in argv:
        argv[argv.index("--trials") + 1] = CUT_TRIALS
    if "--n_sessions" in argv:
        faults = argv[argv.index("--faults") + 1].split(",")
        argv[argv.index("--n_sessions") + 1] = str(
            1 + max(int(f.split(":")[0]) for f in faults))
    return argv


@pytest.fixture
def bench_modules(monkeypatch):
    """``bench/run.py`` and ``bench/tracer.py``, imported as the benchmark
    imports them, with ``bench/`` on the path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("run"), importlib.import_module("tracer")


def traced_run(bench_modules, workload: str, tmp_path) -> dict:
    """Run a workload's commands once in process, with fewer trials, under
    the benchmark's tracer; returns the tracer's report."""
    bench_run, bench_tracer = bench_modules
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for argv in bench_run.WORKLOADS[workload].commands(
                23, str(tmp_path / "cards.jsonl")):
            assert cli.main(cut_counts(argv)) == 0
    finally:
        tracer.uninstall()
    return tracer.report()


@pytest.mark.parametrize("workload", ["exchange-campaign", "card-lifetime",
                                      "attack-suite"])
def test_every_expected_span_is_called(workload, bench_modules, tmp_path,
                                       capsys):
    """A traced benchmark run fails on an expected span with no calls, and
    only the traced runs check it; this runs each workload's commands once
    in process, with fewer trials, under the benchmark's tracer."""
    spans = traced_run(bench_modules, workload, tmp_path)["spans"]
    capsys.readouterr()
    expected = bench_modules[0].WORKLOADS[workload].expected_spans
    assert [name for name in expected if spans[name][0] == 0] == []


def test_traced_periods_equal_the_stream(bench_modules, tmp_path, capsys):
    """The tracer counts periods and retained bits at ``run_bit_period``,
    which ``exchange_key`` calls once per counted period; the counts must
    be the ones the exchanges themselves report."""
    counts = traced_run(bench_modules, "exchange-campaign",
                        tmp_path)["counts"]
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    trials = [r for r in records if r["schema"] == "kljn.exchange_trial"]
    assert len(trials) == int(CUT_TRIALS)
    assert counts["exchange.periods"] == sum(r["periods"] for r in trials)
    assert counts["exchange.retained"] == sum(r["retained"] for r in trials)


def test_traced_tag_bytes_equal_the_tagged_buffers(bench_modules, tmp_path,
                                                   monkeypatch, capsys):
    """The tracer counts tag bytes at ``poly_tag``; an honest session tags
    its one shared buffer once, and only a session whose ends diverged or
    hold unequal segments tags twice.  So no (buffer, segment) pair is
    tagged twice, and the count is the length of the pairs the sessions
    tagged, each once."""
    tagged = []  # (buffer, segment) per tag; holds each buffer alive
    authenticate_tag = card.authenticate_tag

    def spy(data, segment):
        tagged.append((data, segment))
        return authenticate_tag(data, segment)

    monkeypatch.setattr(card, "authenticate_tag", spy)
    counts = traced_run(bench_modules, "card-lifetime", tmp_path)["counts"]
    capsys.readouterr()
    pairs = {(id(data), segment.tobytes()): len(data)
             for data, segment in tagged}
    assert len(pairs) == len(tagged)
    # the wrong_key session tags one shared buffer with two segments
    assert len({id(data) for data, _ in tagged}) < len(tagged)
    assert counts["tags.poly_tag.bytes"] == sum(pairs.values())


@pytest.mark.parametrize("seed", [0, 5, 23])
@pytest.mark.parametrize("workload", ["exchange-campaign", "card-lifetime",
                                      "attack-suite"])
def test_streams_equal_the_benchmark_pins(workload, seed, bench_modules,
                                          tmp_path, capsys):
    """A benchmark run is incorrect when a rep's stream, or card-lifetime's
    journal, differs from its pin in ``bench/digests.json``; this runs
    each workload's commands once in process, at full size, and compares
    the same sha256 digests with the pins."""
    bench_run = bench_modules[0]
    journal = tmp_path / "cards.jsonl"
    for argv in bench_run.WORKLOADS[workload].commands(seed, str(journal)):
        assert cli.main(argv) == 0
    stream = capsys.readouterr().out.encode("utf-8")
    digest = bench_run.digest_of({
        "stream_sha256": hashlib.sha256(stream).hexdigest(),
        "journal_sha256": hashlib.sha256(journal.read_bytes()).hexdigest()
        if bench_run.WORKLOADS[workload].journal else None})
    pins = json.loads(bench_run.DIGESTS.read_text(encoding="utf-8"))
    assert digest == pins[workload][str(seed)]


def test_record_headers_only_in_records():
    """A dict display with a ``"schema"`` or ``"version"`` key outside
    ``records.py`` writes a record layout out again: every record is built
    from its ``records.RECORDS`` entry, so each field list stays in one
    place."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "records.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Dict)
             and any(isinstance(key, ast.Constant)
                     and key.value in ("schema", "version")
                     for key in node.keys)]
    assert found == []

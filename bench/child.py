"""One fresh CLI process, as a user starts it.

    python3 bench/child.py probe
    python3 bench/child.py run TRAILER [--trace] '<json list of CLI arguments>'

Both modes import ``kljnsim.cli`` and then write ``ready`` on stdout, so
the parent can time interpreter start-up plus import.  ``run`` then calls
``kljnsim.cli.main`` on the arguments with ``sys.stdout`` replaced by a
recorder that stamps each record as it reaches the stream, and writes a
JSON trailer to the file TRAILER: exit code, wall time of ``main``, record
stamps, the stream itself, peak RSS and, with ``--trace``, the span report.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import kljnsim.cli  # noqa: E402

sys.stdout.write("ready\n")
sys.stdout.flush()

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402


class Recorder:
    """Stands in for stdout: keeps every write and when it happened."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run(argv: list[str], trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rec = Recorder()
    real_stdout, sys.stdout = sys.stdout, rec
    t0 = time.perf_counter()
    try:
        rc = kljnsim.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - t0
        sys.stdout = real_stdout
    out = {
        "rc": rc,
        "wall_s": wall,
        "stamps": [t - t0 for t in rec.stamps],
        "stream": "".join(rec.parts),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
    return out


if __name__ == "__main__":
    if sys.argv[1] == "run":
        result = run(json.loads(sys.argv[-1]), "--trace" in sys.argv[3:-1])
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)

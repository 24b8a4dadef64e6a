"""Re-pin the stream digests in bench/digests.json.

    python3 bench/pin.py FIRST LAST

Runs one rep of every workload for each seed FIRST..LAST, checks it, and
records its stream sha256 (and, for card-lifetime, its journal sha256).
Re-pin only after a deliberate stream change: the benchmark holds every
later commit to these bytes.
"""

import json
import sys
import time

import run


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, str(run.ROOT / "src"))
    from kljnsim.records import validate_record

    pins = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    with run.work_dir() as work:
        for name, wl in run.WORKLOADS.items():
            for seed in range(first, last + 1):
                runner = run.Runner(work, time.monotonic() + run.DEADLINE_S,
                                    validate_record)
                rep = runner.rep(wl, seed, trace=False)
                if rep["failed"]:
                    print(f"{name} seed {seed}: {rep['failed']} failed "
                          "checks; nothing pinned", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = run.digest_of(rep)
    for name in pins:
        pins[name] = dict(sorted(pins[name].items(), key=lambda kv:
                                 int(kv[0])))
    run.DIGESTS.write_text(json.dumps(pins, indent=1) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer that wraps kljnsim's public functions from outside.

``exchange``, ``adversary``, ``card``, ``cli`` and the package itself bind
many of these functions with ``from .x import name``, so patching only the
defining module would miss their calls.  ``Tracer.install`` therefore
replaces the function at every ``kljnsim`` namespace that binds it.  Methods
live on their class, which every namespace shares, so one patch covers
them.  Only the traced benchmark run imports this module.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from harness import span_totals

# layer -> public callables to wrap, as "function" or "Class.method".
TARGETS = {
    "noise": ("generate_noise", "compose_loop", "measure_spectra",
              "infer_resistor_pair"),
    "exchange": ("exchange_key", "run_bit_period", "classify_level",
                 "monitor_compare", "first_divergence_index"),
    "adversary": ("passive_eavesdrop", "mitm_attack", "inject_current",
                  "MitmHook.__call__", "InjectionHook.__call__"),
    "privacy": ("amplify",),
    "tags": ("poly_tag", "segment_to_key"),
    "card": ("run_session", "authenticate_session", "run_transaction",
             "refresh_key_c", "Keystore.journal", "Keystore.load"),
    "cli": ("Emitter.emit",),
}


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.replace('.__call__', '.call')}"


SPAN_NAMES = tuple(span_name(layer, t)
                   for layer, targets in TARGETS.items() for t in targets)

# Counts taken from the wrapped calls' arguments and return values.
COUNT_NAMES = ("noise.samples", "exchange.periods", "exchange.retained",
               "exchange.alarms", "exchange.anomalies", "adversary.attacks",
               "adversary.detected", "tags.poly_tag.bytes")


class Tracer:
    """Records one span per wrapped call, in memory, plus derived counts."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._observers = {
            "noise.generate_noise": self._saw_noise,
            "exchange.run_bit_period": self._saw_period,
            "adversary.mitm_attack": self._saw_attack,
            "adversary.inject_current": self._saw_attack,
            "tags.poly_tag": self._saw_tag,
        }

    # -- derived counts -------------------------------------------------
    def _saw_noise(self, args, result):
        self.counts["noise.samples"] += result.size

    def _saw_period(self, args, rec):
        c = self.counts
        c["exchange.periods"] += 1
        c["exchange.retained"] += rec.retained
        if rec.monitor.alarm:
            c["exchange.alarms"] += 1
        elif rec.loop_class is None:
            c["exchange.anomalies"] += 1

    def _saw_attack(self, args, outcome):
        self.counts["adversary.attacks"] += 1
        self.counts["adversary.detected"] += outcome.detected

    def _saw_tag(self, args, result):
        self.counts["tags.poly_tag.bytes"] += len(args[0])

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = SPAN_NAMES.index(name)
        observe = self._observers.get(name)
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every loaded kljnsim namespace binding it."""
        import kljnsim.cli  # noqa: F401  (loads every layer)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "kljnsim" or n.startswith("kljnsim.")]
        for layer, targets in TARGETS.items():
            home = sys.modules[f"kljnsim.{layer}"]
            for target in targets:
                name = span_name(layer, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, name))
                    else:
                        wrapped = self._wrap(raw, name)
                    self._set(cls, meth, wrapped)
                    continue
                fn = getattr(home, target)
                wrapped = self._wrap(fn, name)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def report(self) -> dict:
        """Per-span calls and self time, root-span time, derived counts."""
        totals, root_s = span_totals(self.names, self.parents, self.starts,
                                     self.ends)
        spans = {name: totals.get(nid, [0, 0.0])
                 for nid, name in enumerate(SPAN_NAMES)}
        return {"spans": spans, "root_s": root_s, "counts": self.counts}

"""Eve: passive spectral eavesdropping and two active attacks.

Passive Eve measures the same wire the parties do.  On LL/HH periods she
reads both bits (the parties discard exactly those), and on MID periods
she can recover the unordered resistor pair but has zero physical
information about which end holds which: her bit assignment is a coin
flip.

Active attacks and how the two-end comparison catches them:

* man-in-the-middle: Eve cuts the wire and runs an independent loop
  toward each party.  The parties' instantaneous values then come from
  different stochastic processes and diverge beyond tolerance essentially
  at the first sample.
* current injection: Eve feeds her own current into a mid-wire node,
  split equally toward both ends, so the two ends see currents differing
  by the full injected waveform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exchange import (
    AdversaryHook,
    BitExchangeRecord,
    LoopClass,
    _bit_resistance,
    classify_level,
    run_bit_period,
    spawn_seeds,
)
from .noise import (
    InconsistentSpectraError,
    NoiseConfig,
    WireTrace,
    compose_loop,
    generate_noise,
    infer_resistor_pair,
    johnson_psd,
    measure_spectra,
)


@dataclass
class EveEstimate:
    """What passive Eve extracts from one bit period."""

    loop_class_guess: Optional[LoopClass]
    pair_guess: Optional[tuple[float, float]]
    bit_assignment_guess: Optional[tuple[int, int]]  # (alice, bob)


@dataclass
class AttackOutcome:
    detected: bool
    detection_sample_index: Optional[int]
    bits_learned: int
    bits_retained_by_parties: int

    def __post_init__(self):
        if self.detected and self.detection_sample_index is None:
            raise ValueError("detected attacks must carry a sample index")


def passive_eavesdrop(trace: WireTrace, cfg: NoiseConfig,
                      rng=None) -> EveEstimate:
    """Everything Eve can get from listening to one period's wire trace.

    She reuses the public classification thresholds.  For LL/HH she knows
    both bits; for MID she knows the pair values but assigns ends by a
    coin flip (``rng`` seeds that flip).  A period she cannot classify
    gives her nothing: every field is None, and ``rng`` is not drawn from.
    Pair inference may fail on a noisy period whose spectra have no real
    solution; she records None.
    """
    spectra = measure_spectra(trace, cfg)
    loop_class = classify_level(spectra, cfg)
    if loop_class is None:
        return EveEstimate(None, None, None)
    try:
        pair = infer_resistor_pair(spectra, cfg)
    except InconsistentSpectraError:
        pair = None
    if loop_class is LoopClass.LL:
        assignment = (0, 0)
    elif loop_class is LoopClass.HH:
        assignment = (1, 1)
    else:
        flip = int(np.random.default_rng(rng).integers(0, 2))
        assignment = (flip, 1 - flip)
    return EveEstimate(loop_class_guess=loop_class, pair_guess=pair,
                       bit_assignment_guess=assignment)


class MitmHook:
    """Wire-cutting adversary: one independent KLJN loop toward each end.

    Eve plays Bob toward the real Alice and Alice toward the real Bob,
    choosing her own random resistors and noise each period.  She learns
    both parties' bits outright (each party's loop leaks its resistance to
    her via the current spectrum of a loop she half-owns).
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, u_a, u_b, r_a, r_b, cfg):
        bit_to_a = int(self.rng.integers(0, 2))
        bit_to_b = int(self.rng.integers(0, 2))
        r_eve_a = _bit_resistance(bit_to_a, cfg)
        r_eve_b = _bit_resistance(bit_to_b, cfg)
        u_eve_a = generate_noise(johnson_psd(r_eve_a, cfg), cfg, self.rng)
        u_eve_b = generate_noise(johnson_psd(r_eve_b, cfg), cfg, self.rng)
        view_a = compose_loop(u_a, u_eve_a, r_a, r_eve_a)
        view_b = compose_loop(u_eve_b, u_b, r_eve_b, r_b)
        return view_a, view_b


class InjectionHook:
    """Mid-wire current injection, split equally toward both ends."""

    def __init__(self, injection: np.ndarray):
        self.injection = np.asarray(injection, dtype=np.float64)

    def __call__(self, u_a, u_b, r_a, r_b, cfg):
        if self.injection.size != u_a.size:
            raise ValueError(
                f"injection length {self.injection.size} != "
                f"samples_per_bit {u_a.size}")
        base = compose_loop(u_a, u_b, r_a, r_b)
        half = 0.5 * self.injection
        view_a = WireTrace(voltage=base.voltage,
                           current=base.current + half)
        view_b = WireTrace(voltage=base.voltage,
                           current=base.current - half)
        return view_a, view_b


def _attack_period(cfg: NoiseConfig, bits_seed, period_seed,
                   hook: AdversaryHook, monitor_enabled: bool,
                   bits_learned: Callable[[BitExchangeRecord, int], int],
                   ) -> AttackOutcome:
    """One bit period of random bits under an active ``hook``;
    ``bits_learned(record, retained)`` counts what Eve got from it."""
    bit_rng = np.random.default_rng(bits_seed)
    a_bit = int(bit_rng.integers(0, 2))
    b_bit = int(bit_rng.integers(0, 2))
    rec = run_bit_period(a_bit, b_bit, cfg, period_seed, adversary=hook)
    detected = monitor_enabled and rec.monitor.alarm
    if monitor_enabled:
        retained = int(rec.retained)
    else:
        # Without the comparison the parties retain on classification alone.
        retained = int(rec.loop_class is LoopClass.MID)
    return AttackOutcome(
        detected=detected,
        detection_sample_index=rec.monitor.first_divergence
        if detected else None,
        bits_learned=bits_learned(rec, retained),
        bits_retained_by_parties=retained,
    )


def mitm_attack(cfg: NoiseConfig, seed,
                monitor_enabled: bool = True) -> AttackOutcome:
    """One bit period under a man-in-the-middle, with or without defense.

    With the monitor on, the two ends' exchanged instantaneous values
    disagree and the period is discarded; the outcome records the sample
    index at which the divergence first broke tolerance.  With the monitor
    off, the parties keep any period both of them classified MID, and Eve
    knows every such bit.
    """
    bits_seed, hook_seed, period_seed = spawn_seeds(seed, 3)
    # Eve sits in both loops: every bit the parties keep is hers.
    return _attack_period(cfg, bits_seed, period_seed,
                          MitmHook(hook_seed), monitor_enabled,
                          lambda rec, retained: retained)


def inject_current(cfg: NoiseConfig, injection: np.ndarray,
                   seed) -> AttackOutcome:
    """One bit period with Eve's current fed into the wire.

    The ends see currents differing by the injected waveform; detection
    happens when any injected sample exceeds the monitor tolerance.  Below
    tolerance the attack is invisible and, with the equal split into this
    symmetric loop, buys Eve nothing beyond passive listening; the
    outcome's ``bits_learned`` counts exactly the insecure (LL/HH)
    knowledge she would have had anyway.
    """
    bits_seed, period_seed = spawn_seeds(seed, 2)
    return _attack_period(
        cfg, bits_seed, period_seed, InjectionHook(injection), True,
        lambda rec, retained: int(rec.loop_class in (LoopClass.LL,
                                                     LoopClass.HH)))


__all__ = [
    "EveEstimate",
    "AttackOutcome",
    "passive_eavesdrop",
    "MitmHook",
    "InjectionHook",
    "mitm_attack",
    "inject_current",
]

"""Per-bit KLJN exchange: resistor choice, classification, discard, monitor.

Each bit period both parties connect the resistor encoding their random bit
(0 -> r_low, 1 -> r_high), the loop runs for ``samples_per_bit`` samples,
and both ends estimate the wire spectra.  Like-bit periods (LL, HH) sit at
singular noise levels and are discarded; opposite-bit periods land on the
shared MID level, indistinguishable from outside, and yield one secure bit
after the pre-agreed inversion (end A inverts).

Classification places the measured (log s_u, log s_i) point against the
three analytic level pairs; using both coordinates separates adjacent
levels ~3x better than either alone, since the weak voltage gap (LL vs MID)
pairs with the strong current gap and vice versa.  Spectra and level
pairs are float64 arrays in the layout ``noise`` gives.

The active-attack defense ("monitor") compares the instantaneous voltage
and current values seen by the two ends over an authenticated channel; any
per-sample difference beyond a tolerance raises an alarm and the bit is
discarded.  The comparison is one pass per bit period: it finds the first
sample over tolerance, and the alarm is whether there is one.

A bit period has one result, its ``BitExchangeRecord``, which holds each
end's view as a ``(2, n)`` wire trace (``noise`` gives the layout); a
period that cannot be classified has ``loop_class`` None, as
``classify_level`` gives None for spectra it cannot place.
``exchange_key`` draws a block of periods at once.  On an honest wire it
also solves, measures, classifies and monitors the block at once, and
each record views its period of the one ``(P, 2, n)`` block trace; under
an adversary it solves one period after another.  Either way one loop
counts each record and cuts at the period that completes the key or at
the last tolerated alarm.  Every result is bit for bit that of one period
at a time.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional

import numpy as np

from .noise import (
    NoiseConfig,
    analytic_spectra,
    compose_loop,
    generate_noise,
    johnson_psd,
    measure_spectra,
)

# Adversary hook: given one period's two generator traces and resistances,
# return the wire traces seen by end A and end B, each a (2, n) array.
# ``None`` means an ideal shared wire.
AdversaryHook = Callable[
    [np.ndarray, np.ndarray, float, float, NoiseConfig],
    tuple[np.ndarray, np.ndarray],
]

# Alarmed periods tolerated before an exchange is declared hostile.
ALARM_ABORT_COUNT = 3

MONITOR_TOLERANCE = 1e-6  # relative to signal RMS

# Largest block of noise an exchange draws ahead, in bytes (but at least one
# period's).  A long exchange so holds about one block of generator
# voltages, and on an honest wire that block's solved trace, instead of all
# of them at once.  Results do not depend on it.
NOISE_BLOCK_BYTES = 100_000

# A block is classified with numpy's log and hypot, which may differ from
# math's in the last ulp or so.  Every log of a positive finite double lies
# in [-745, 710], so every distance is below 2100 and such a difference
# below 1e-11; a row whose decision hinges on less than this slack is left
# to the scalar rule, so the block gives the scalar result bit for bit.
_EXACT_SLACK = 1e-9


class ChannelCompromisedError(RuntimeError):
    """Alarm rate during an exchange exceeded the abort threshold.
    ``stats`` is the exchange's ExchangeStats at the abort."""

    def __init__(self, stats: ExchangeStats):
        super().__init__(
            f"{stats.alarms} alarms in {stats.periods_run} periods")
        self.stats = stats


class ExchangeNotConvergedError(RuntimeError):
    """The period budget ran out before the target key length was
    retained (settings under which almost no period classifies)."""


class LoopClass(enum.Enum):
    LL = "LL"
    MID = "MID"  # LH or HL; physically indistinguishable
    HH = "HH"

    def __str__(self) -> str:  # keeps CLI records compact
        return self.value


# Read once per period: an Enum member lookup costs several times a global.
_MID = LoopClass.MID


@dataclass(frozen=True)
class MonitorReport:
    """Result of the two-end instantaneous comparison."""

    first_divergence: Optional[int]  # first sample over tolerance

    @property
    def alarm(self) -> bool:
        return self.first_divergence is not None


_SILENT = MonitorReport(None)  # frozen, so every silent period shares it


@dataclass
class BitExchangeRecord:
    """What one bit period produced: the ends' views, each a ``(2, n)``
    wire trace, the class they agree on and the monitor report.  The
    spectra each end measured are only classified, not kept."""

    trace: np.ndarray                       # end A's view
    # The class both ends agree on; None when either end cannot classify
    # its view, or the two disagree.
    loop_class: Optional[LoopClass]
    monitor: MonitorReport
    bob_trace: Optional[np.ndarray] = None  # set only when views differ

    @property
    def retained(self) -> bool:
        """The period yields a secure bit: MID, and no alarm."""
        return self.loop_class is _MID and not self.monitor.alarm


@dataclass
class ExchangeStats:
    periods_run: int = 0
    retained: int = 0
    alarms: int = 0
    anomalies: int = 0  # unclassifiable periods

    @property
    def discard_fraction(self) -> float:
        if self.periods_run == 0:
            return 0.0
        return 1.0 - self.retained / self.periods_run


def spawn_seeds(seed, n: int) -> list:
    """``n`` independent child seeds of ``seed``.

    ``seed`` is an int or a tuple of ints, which seeds a SeedSequence, or
    a SeedSequence or a ``trial_seeds`` item, which is spawned from
    directly.  Child i gives ``np.random.default_rng`` the very PCG64
    state that ``SeedSequence(seed).spawn(n)[i]`` gives it; a
    ``trial_seeds`` item of trial t of a run seeded s stands for
    ``SeedSequence((s, t))``.
    """
    if not isinstance(seed, (np.random.SeedSequence, TrialSeed)):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


# numpy's SeedSequence hash, which ``trial_seeds`` runs over many trials
# at once: the entropy pool size and the hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy in
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating the state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Trials whose child seeds one numpy pass derives.  Chunks start at its
# multiples, so none straddles a multiple of 2**32: the trial indices of a
# chunk share every entropy word but the lowest.
SEED_CHUNK = 256


def trial_seeds(seed: int, trials: range) -> Iterator[TrialSeed]:
    """The seed of each trial t of ``trials`` in a run seeded ``seed``,
    standing for ``SeedSequence((seed, t))`` (see ``spawn_seeds``).

    ``seed`` and the trials are non-negative ints, and ``trials`` has step
    1.  The children are derived SEED_CHUNK trials at a time, in one
    numpy pass of numpy's own hash, when a chunk's first trial spawns;
    each trial's child objects are built when it spawns.
    """
    if trials.step != 1 or (trials and trials.start < 0):
        raise ValueError(f"trials must be a step-1 range of non-negative "
                         f"ints, got {trials}")
    head = _uint32_words(seed)
    start = trials.start
    while start < trials.stop:
        stop = min(trials.stop, (start // SEED_CHUNK + 1) * SEED_CHUNK)
        chunk = functools.lru_cache(maxsize=1)(
            functools.partial(_child_states, head, range(start, stop)))
        for k in range(stop - start):
            yield TrialSeed(chunk, k)
        start = stop


class TrialSeed:
    """A ``trial_seeds`` item: ``spawn(n)`` gives its first n children,
    and may be called once."""

    __slots__ = ("_chunk", "_index")

    def __init__(self, chunk: Callable[[int], np.ndarray], index: int):
        self._chunk = chunk  # n -> the chunk's (T, n, 4) PCG64 state words
        self._index = index

    def spawn(self, n: int) -> list:
        if self._chunk is None:
            raise RuntimeError("a trial seed spawns its children once")
        states, self._chunk = self._chunk(n)[self._index], None
        child = _derived_seed_type()
        return [child(state) for state in states]


def _uint32_words(n: int) -> list[int]:
    """numpy's entropy words of a non-negative int: uint32, least first."""
    if n < 0:
        raise ValueError(f"seed entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's ``hashmix`` over uint32 arrays: each call hashes with the
    next constant of ``const``, ``const * mult``, ... (mod 2**32)."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _child_states(head: list[int], trials: range, n: int) -> np.ndarray:
    """The ``(T, n, 4)`` uint64 PCG64 state words of the n children of
    each of the T trials of a chunk, in a run whose seed has the entropy
    words ``head``: numpy's ``mix_entropy`` and ``generate_state(4,
    np.uint64)``, one uint32 step at a time over all trials and
    children."""
    start = trials.start
    low = (start & _MASK32) + np.arange(len(trials), dtype=np.uint32)
    high = _uint32_words(start >> 32) if start >> 32 else []
    run = [*head, low, *high]
    # numpy pads the run entropy of a spawned child to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    # a (T, 1) column of the trials' low words, (1, 1) constants, and the
    # spawn key word, child i of each trial, a (n,) row
    entropy = [np.array(w, dtype=np.uint32).reshape(-1, 1) for w in run]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64)
             for k in range(2 * _POOL_SIZE)]
    # little-endian pairs of uint32 words
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])],
                    axis=-1)


@functools.cache
def _derived_seed_type() -> type:
    """The seed type of a ``trial_seeds`` child, made on first use:
    importing ``numpy.random`` with this module would load it into every
    run of the package, at a cost in start-up time and peak memory."""
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeed(ISeedSequence):
        """A child seed whose PCG64 state words are already derived."""

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # Only PCG64's request: another bit generator must not be
            # seeded with these words.
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a derived seed holds PCG64's 4 uint64 state words, "
                    f"not {n_words} of {np.dtype(dtype)}")
            return self._state

    return DerivedSeed


def class_levels(cfg: NoiseConfig) -> dict[LoopClass, np.ndarray]:
    """Analytic ``(2,)`` (s_u, s_i) level pair for each loop class."""
    pairs = {
        LoopClass.LL: (cfg.r_low, cfg.r_low),
        LoopClass.MID: (cfg.r_low, cfg.r_high),
        LoopClass.HH: (cfg.r_high, cfg.r_high),
    }
    return {cls: analytic_spectra(ra, rb, cfg)
            for cls, (ra, rb) in pairs.items()}


@functools.lru_cache(maxsize=64)
def _level_geometry(cfg: NoiseConfig,
                    ) -> tuple[tuple[LoopClass, float, float, float], ...]:
    """(class, log s_u, log s_i, acceptance radius) per level, in class
    order; the radius is ``classify_margin`` times the level's gap to its
    nearest neighbor.  Cached: ``classify_level`` runs every period."""
    pts = [(cls, *map(math.log, lv.tolist()))
           for cls, lv in class_levels(cfg).items()]
    return tuple(
        (cls, px, py, cfg.classify_margin * min(
            math.hypot(px - qx, py - qy)
            for other, qx, qy in pts if other is not cls))
        for cls, px, py in pts)


def classify_level(s: np.ndarray, cfg: NoiseConfig,
                   ) -> Optional[LoopClass] | list[Optional[LoopClass]]:
    """Assign measured spectra to the nearest analytic level.

    Distance is Euclidean in (log s_u, log s_i).  A measurement farther
    from its nearest level than ``classify_margin`` times that level's gap
    to its own nearest neighbor is rejected as unclassifiable, and so is
    a zero spectrum (a variance that underflowed has no place in log
    space).

    One period's ``(2,)`` spectra give its class, or None when it is
    unclassifiable.  A block's ``(2, P)`` spectra give a list with one
    class per column; every entry is bit for bit the one-period call's.
    Any other shape raises ValueError.
    """
    shape = np.shape(s)
    if shape == (2,):
        return _classify_one(*s.tolist(), _level_geometry(cfg))
    if len(shape) != 2 or shape[0] != 2:
        raise ValueError(f"not (2,) or (2, P) spectra: shape {shape}")
    return _classify_block(s, _level_geometry(cfg))


def _classify_one(s_u: float, s_i: float, geometry) -> Optional[LoopClass]:
    """The scalar rule: ``classify_level`` of one period's spectra."""
    if s_u <= 0 or s_i <= 0:
        return None
    mx, my = math.log(s_u), math.log(s_i)
    best = None
    for cls, px, py, radius in geometry:
        dist = math.hypot(mx - px, my - py)
        if best is None or dist < best_dist:  # ties keep the earlier class
            best, best_dist, best_radius = cls, dist, radius
    # A NaN distance is not beyond the radius, so NaN spectra still get a
    # class; giving them None would change streams.
    return None if best_dist > best_radius else best


def _classify_block(spectra: np.ndarray,
                    geometry) -> list[Optional[LoopClass]]:
    """``classify_level`` of each period of a block, in numpy.

    ``argmin`` keeps the first minimum, the scalar tie rule.  A period
    whose two nearest levels, or whose nearest level and that level's
    radius, lie within ``_EXACT_SLACK`` of each other is decided by the
    scalar rule instead, and so is a period with a spectrum that is not
    positive and finite: all its distances are inf or NaN, which makes its
    margin NaN.
    """
    classes, *columns = zip(*geometry)
    px, py, radius = np.array(columns)
    with np.errstate(all="ignore"):
        mx, my = np.log(spectra)
        # One row per level, one column per period.
        dist = np.hypot(mx - px[:, None], my - py[:, None])
        best = dist.argmin(axis=0)
        dist.sort(axis=0)
        nearest = dist[0]
        best_radius = radius[best]
        margin = np.minimum(dist[1] - nearest,
                            np.abs(nearest - best_radius))
    by_code = classes + (None,)  # the last code: beyond the nearest radius
    codes = np.where(nearest <= best_radius, best, len(classes))
    out = [by_code[k] for k in codes.tolist()]
    for k in np.flatnonzero(~(margin > _EXACT_SLACK)).tolist():
        out[k] = _classify_one(*spectra[:, k].tolist(), geometry)
    return out


def monitor_compare(end_a_view: np.ndarray,
                    end_b_view: np.ndarray) -> MonitorReport:
    """Compare the instantaneous values seen by the two ends.

    Alarm iff ``first_divergence_index`` finds a sample over tolerance.  A
    shared ideal wire gives exactly zero differences, so the honest-channel
    false-alarm rate is structurally zero.  When both ends hold the very
    same (finite) trace object, the shared silent report is returned
    without comparing the trace to itself.
    """
    if end_a_view is end_b_view:
        return _SILENT
    return MonitorReport(first_divergence_index(end_a_view, end_b_view))


def first_divergence_index(end_a_view: np.ndarray,
                           end_b_view: np.ndarray) -> Optional[int]:
    """Index of the first sample whose two-end difference breaks tolerance.

    Both views hold one period: two ``(2, n)`` traces of equal shape with
    n >= 1 (any other shapes raise ValueError).  A sample breaks tolerance
    when its absolute voltage or current difference exceeds
    ``MONITOR_TOLERANCE`` times the RMS of that signal pooled over both
    views.  Returns None when no sample does (no alarm).

    The check fails closed: a non-finite sample in either view breaks
    tolerance by itself.  A signal whose samples are all finite but whose
    mean square is not lies outside the physics domain (``noise``) and
    raises ValueError.
    """
    shape = end_a_view.shape
    if (shape != end_b_view.shape or len(shape) != 2 or shape[0] != 2
            or shape[1] == 0):
        raise ValueError(
            f"monitor views must be two (2, n) periods of equal shape, got "
            f"{shape} and {end_b_view.shape}")
    over = np.zeros(shape[1], dtype=bool)
    # A mean square that overflows is the ValueError below, not a warning.
    with np.errstate(over="ignore"):
        for a, b in zip(end_a_view, end_b_view):  # voltage, then current
            # np.mean(a ** 2) spelled out, the same sum and divide bit for bit
            mean_sq = 0.5 * (np.add.reduce(a * a, axis=None) / a.size
                             + np.add.reduce(b * b, axis=None) / b.size)
            if math.isfinite(mean_sq):
                over |= np.abs(a - b) > MONITOR_TOLERANCE * math.sqrt(mean_sq)
                continue
            finite = np.isfinite(a) & np.isfinite(b)
            if finite.all():
                raise ValueError(
                    f"monitor views' mean square {mean_sq} is not finite: "
                    f"the signal lies outside the physics domain")
            over |= ~finite
    first = int(over.argmax())
    return first if over[first] else None


def _bit_resistance(bit: int, cfg: NoiseConfig) -> float:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return cfg.r_high if bit else cfg.r_low


def _solve_period(u_a: np.ndarray, u_b: np.ndarray, r_a: float, r_b: float,
                  cfg: NoiseConfig, adversary: Optional[AdversaryHook],
                  ) -> BitExchangeRecord:
    """Solve, measure, classify and monitor one period from its two
    generator traces, on a shared wire or through ``adversary``."""
    if adversary is None:
        view_a = view_b = compose_loop(u_a, u_b, r_a, r_b)
    else:
        view_a, view_b = adversary(u_a, u_b, r_a, r_b, cfg)
    shared = view_b is view_a
    class_a = classify_level(measure_spectra(view_a, cfg), cfg)
    class_b = class_a if shared else classify_level(
        measure_spectra(view_b, cfg), cfg)
    # Positional: keyword arguments double the cost of a record.
    return BitExchangeRecord(view_a, class_a if class_a is class_b else None,
                             monitor_compare(view_a, view_b),
                             None if shared else view_b)


def run_bit_period(alice_bit: int, bob_bit: int, cfg: NoiseConfig, seed,
                   adversary: Optional[AdversaryHook] = None,
                   solved: Optional[BitExchangeRecord] = None,
                   ) -> BitExchangeRecord:
    """Simulate one full bit period and return its record.

    Maps bits to resistors at both ends, draws two independent noise
    sequences from ``seed``, solves the loop (or lets the adversary hook
    supply the two ends' views), measures and classifies at both ends, and
    runs the monitor comparison.  Pure function of (inputs, seed).

    ``solved``, when given, is a record ``exchange_key`` already built,
    and is returned unchanged; the bits, ``seed`` and ``adversary`` are not
    read.  It is there only so that the benchmark's tracer, which counts
    periods at this call, sees every period of an exchange.
    """
    if solved is not None:
        return solved
    r_a = _bit_resistance(alice_bit, cfg)
    r_b = _bit_resistance(bob_bit, cfg)
    rng = np.random.default_rng(seed)
    u_a = generate_noise(johnson_psd(r_a, cfg), cfg, rng)
    u_b = generate_noise(johnson_psd(r_b, cfg), cfg, rng)
    return _solve_period(u_a, u_b, r_a, r_b, cfg, adversary)


def exchange_key(target_len: int, cfg: NoiseConfig, seed,
                 adversary: Optional[AdversaryHook] = None,
                 record_sink: Optional[
                     Callable[[BitExchangeRecord], None]] = None,
                 ) -> tuple[np.ndarray, np.ndarray, ExchangeStats]:
    """Run bit periods until ``target_len`` secure bits are retained.

    Both ends draw independent uniform bits each period.  End A inverts
    her retained bits (the pre-agreed side), so both returned keys, bit
    arrays (see ``privacy``), are identical.  ``record_sink`` receives
    every period's record, in order (the card protocol collects the
    monitor data to authenticate this way).

    Bits and generator voltages come from two generators private to the
    exchange, drawn a block of periods at a time: about twice the bits
    still needed (half the periods are discarded), at most
    NOISE_BLOCK_BYTES of noise.  A block draw yields exactly the values
    that one draw per period would, in the same order, so the result does
    not depend on the block sizes; what a last block draws past the end
    of the exchange is thrown away.

    Each block gives one period's record after another, in one of two
    ways.  On an honest wire the block is solved at once: one
    ``compose_loop`` over its generator rows, one ``measure_spectra`` over
    the block trace, one ``classify_level`` over its spectra and one
    ``monitor_compare`` of the shared trace with itself, each bit for bit
    the one-period results.  Under an adversary each period is solved in
    turn, its hook called only when the period is reached.  One loop then
    counts each record and cuts at the period that completes the key.

    Raises
    ------
    ChannelCompromisedError
        Once ALARM_ABORT_COUNT alarmed periods accumulate.
    ExchangeNotConvergedError
        When ``64 * target_len + 1024`` periods retain too few bits.
    """
    if target_len < 1:
        raise ValueError(f"target_len must be >= 1, got {target_len}")
    bit_rng_seed, noise_seed = spawn_seeds(seed, 2)
    bit_rng = np.random.default_rng(bit_rng_seed)
    noise_rng = np.random.default_rng(noise_seed)
    r_of_bit = np.array([cfg.r_low, cfg.r_high])
    psd_of_bit = np.array([johnson_psd(cfg.r_low, cfg),
                           johnson_psd(cfg.r_high, cfg)])
    max_block = max(1, NOISE_BLOCK_BYTES // (16 * cfg.samples_per_bit))

    alice_bits: list[int] = []
    bob_bits: list[int] = []
    stats = ExchangeStats()
    max_periods = 64 * target_len + 1024  # generous; expected use is ~2x
    while stats.retained < target_len:
        room = max_periods - stats.periods_run  # periods left in the budget
        if room <= 0:
            raise ExchangeNotConvergedError(
                f"exchange did not converge within {max_periods} periods")
        block = min(2 * (target_len - stats.retained), max_block)
        # Let the last block go before the next is drawn: the last record
        # views one of its rows, and the block's records hold the rest.
        trace = rec = period = records = None
        bits = bit_rng.integers(0, 2, (block, 2))
        noise = generate_noise(psd_of_bit[bits], cfg, noise_rng)
        pairs = bits.tolist()[:room]
        r = r_of_bit[bits]
        if adversary is None:
            trace = compose_loop(noise[:, 0], noise[:, 1], r[:, 0], r[:, 1])
            # Both ends hold the one shared trace: silent for every period.
            records = map(BitExchangeRecord, trace,
                          classify_level(measure_spectra(trace, cfg), cfg),
                          repeat(monitor_compare(trace, trace)))
        else:
            # Lazy: the hook runs only for the periods the loop reaches.
            records = (_solve_period(u_a, u_b, r_a, r_b, cfg, adversary)
                       for (u_a, u_b), (r_a, r_b) in zip(noise, r.tolist()))
        noise = None  # only the block trace, or the generator, reads it now
        for (a_bit, b_bit), period in zip(pairs, records):
            rec = run_bit_period(a_bit, b_bit, cfg, None, solved=period)
            stats.periods_run += 1
            if record_sink is not None:
                record_sink(rec)
            if rec.monitor.alarm:
                stats.alarms += 1
                if stats.alarms >= ALARM_ABORT_COUNT:
                    raise ChannelCompromisedError(stats)
            elif rec.loop_class is None:
                stats.anomalies += 1
            elif rec.retained:
                stats.retained += 1
                alice_bits.append(1 - a_bit)  # pre-agreed inversion
                bob_bits.append(b_bit)
                if stats.retained == target_len:
                    break

    return (np.array(alice_bits, dtype=np.uint8),
            np.array(bob_bits, dtype=np.uint8), stats)

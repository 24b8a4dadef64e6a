"""Command-line front end for exchange campaigns, attack studies, and card
lifetimes.

Subcommands: exchange | attack | card-lifetime | rate | keystore-inspect.

Configuration comes from built-in defaults, then a flat key=value config
file (--config), then the KLJN_SEED environment variable (seed only), then
explicit command-line flags; later sources win.  Output is one JSON record
per line, UTF-8, the summary last; identical config and seed reproduce the
stream byte for byte.

Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 security abort.
Output is strict JSON: the physics settings lie in the domain ``noise``
states and ``amplitude`` is at most 1e6, or the run exits 2 before it
starts.  Only a run that exits 0 replaces an --output_path file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .adversary import MitmHook, inject_current, mitm_attack, \
    passive_eavesdrop
from .card import (
    CardIdentity,
    CardRefusedError,
    DuplicateCardError,
    Keystore,
    initialize_card,
    run_session,
)
from .exchange import ChannelCompromisedError, ExchangeNotConvergedError, \
    LoopClass, class_levels, exchange_key, run_bit_period, spawn_seeds, \
    trial_seeds
from .noise import NoiseConfig, infer_resistor_pair
from .records import RECORDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SECURITY = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a command run needs: ``noise``, the run's NoiseConfig,
    and the rest, flat so that with NoiseConfig's own fields it maps 1:1
    onto the key=value config file and the --key flags.  Key C's sample
    count N_d is not a setting: ``derived_n_d`` gives it."""

    m_max: int = 5
    trials: int = 10
    seed: int = 12345
    output_path: str = ""          # "" -> stdout
    target_bits: int = 256
    payload_bytes: int = 16
    amplitude: float = 10.0        # injection, in units of loop-current RMS
    n_sessions: int = 3
    faults: str = ""               # "IDX:KIND,..." KIND in wrong_key|...
    keystore: str = "keystore.jsonl"
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    @property
    def key_b_bits(self) -> int:
        """Key B size: twice the payload's bits."""
        return 2 * 8 * self.payload_bytes

    @property
    def injection_rms(self) -> float:
        """The injected current's RMS: ``amplitude`` times the loop
        current's RMS at the MID level."""
        s_i = class_levels(self.noise)[LoopClass.MID].tolist()[1]
        return self.amplitude * float(np.sqrt(s_i * self.noise.bandwidth))

    def derived_n_d(self) -> int:
        # voltage+current samples over the expected authentication exchange
        return 2 * self.noise.samples_per_bit * 2 * self.key_b_bits


_FIELD_TYPES = {f.name: f.type for f in (*fields(NoiseConfig),
                                         *fields(RunConfig))
                if f.name != "noise"}

# (least, greatest) accepted value of each numeric setting; NoiseConfig
# checks the physics.  amplitude x the domain's largest loop current
# keeps an injection's squares finite.  The sizes that allocate are capped:
# - m_max: key C is 64 one-byte bits per segment, and a refresh exchanges
#   512 secure bits per segment, so 10 000 keeps its key lists near 80 MB;
# - n_sessions: each session's seed (about 400 bytes) is drawn up front;
# - payload_bytes x samples_per_bit: each end's monitor data is about 512 x
#   their product bytes, held once (honest ends share it), so at
#   16 x 10 000 a card-lifetime run peaks near 115 MiB.
_BOUNDS = {"trials": (1, math.inf), "target_bits": (1, math.inf),
           "seed": (0, math.inf), "amplitude": (0, 1e6),
           "m_max": (1, 10_000), "n_sessions": (0, 100_000),
           "payload_bytes": (1, math.inf),
           "samples_per_bit": (100, 10_000),
           "payload_bytes x samples_per_bit": (100, 16 * 10_000)}


def _coerce(key: str, value: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    typ = _FIELD_TYPES[key]
    try:
        if typ == "int":
            return int(value)
        if typ == "float":
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"{value!r} is not a finite number")
            return number
        return value
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {err}") from err


def load_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), raw.strip())
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = {f.name: f.default for f in (*fields(NoiseConfig),
                                          *fields(RunConfig))
              if f.name in _FIELD_TYPES}
    if args.config:
        merged.update(load_config_file(args.config))
    env_seed = os.environ.get("KLJN_SEED")
    if env_seed is not None:
        merged["seed"] = _coerce("seed", env_seed)
    for key in _FIELD_TYPES:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = _coerce(key, str(cli_val))
    # Checked before anything is built, so a size above its cap never
    # reaches an allocation.
    values = {**merged, "payload_bytes x samples_per_bit":
              merged["payload_bytes"] * merged["samples_per_bit"]}
    for key, (least, greatest) in _BOUNDS.items():
        if not least <= values[key] <= greatest:
            bound = f">= {least}" if values[key] < least else f"<= {greatest}"
            raise ConfigError(f"{key} must be {bound}, got {values[key]}")
    physics = {f.name: merged.pop(f.name) for f in fields(NoiseConfig)}
    cfg = RunConfig(**merged, noise=NoiseConfig(**physics))
    # The settings one command alone reads are checked here too, so a
    # settings error is found before the command does any work.
    if args.command == "card-lifetime":
        _parse_faults(cfg.faults, cfg.n_sessions)
    elif args.command == "keystore-inspect" and not cfg.keystore:
        raise ConfigError("keystore-inspect requires --keystore")
    # The files a run reads, which its records must not replace.
    inputs = {"--config file": args.config}
    if args.command in ("card-lifetime", "keystore-inspect"):
        inputs["--keystore journal"] = cfg.keystore
    out = cfg.output_path
    for name, path in inputs.items():
        if out and path and _same_file(out, path):
            raise ConfigError(f"--output_path {out!r} is the {name}; "
                              f"writing the records there would overwrite it")
    return cfg


def _same_file(a: str, b: str) -> bool:
    """Paths ``a`` and ``b`` name one file: by the same path, or through
    a symlink or a hard link."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


class Emitter:
    """Writes one JSON record per line, to stdout or a file.  A file's
    records go to a temporary file beside it, which replaces it when the
    ``with`` block ends without an exception and is deleted otherwise."""

    # one encoder for all records: json.dumps with options builds one a call
    _encoder = json.JSONEncoder(separators=(",", ":"), allow_nan=False)

    def __init__(self, output_path: str):
        self.output_path = output_path
        self._fh = None

    def __enter__(self):
        if self.output_path:
            if os.path.isdir(self.output_path):  # else found after the run
                raise IsADirectoryError(f"{self.output_path!r} is a directory")
            self._fh = open(f"{self.output_path}.{os.getpid()}.tmp", "w",
                            encoding="utf-8", newline="\n")
        return self

    def __exit__(self, exc_type, *exc):
        if self._fh is not None:
            self._fh.close()
            if exc_type is None:
                os.replace(self._fh.name, self.output_path)
            else:
                os.unlink(self._fh.name)

    def emit(self, name: str, *values) -> None:
        """Write one record of table entry ``name`` (``records.RECORDS``),
        its field values given in table order."""
        obj = RECORDS[name].record(values)
        try:
            line = self._encoder.encode(obj)
        except ValueError as err:
            raise ConfigError(
                f"a {name} record holds a non-finite number ({err}); the "
                f"settings leave the simulated float range") from err
        (self._fh or sys.stdout).write(line + "\n")


def _round(x: float, digits: int = 10) -> float:
    """Stabilize float fields so records stay compact and reproducible."""
    return round(float(x), digits)


def cmd_exchange(cfg: RunConfig, emitter: Emitter) -> None:
    total_periods = 0
    total_alarms = 0
    discards = []
    all_agree = True
    for trial in range(cfg.trials):
        alice, bob, stats = exchange_key(cfg.target_bits, cfg.noise,
                                         cfg.seed + trial)
        agreement = np.array_equal(alice, bob)
        all_agree = all_agree and agreement
        total_periods += stats.periods_run
        total_alarms += stats.alarms
        discards.append(stats.discard_fraction)
        emitter.emit("exchange_trial", trial, stats.periods_run,
                     stats.retained, _round(stats.discard_fraction),
                     agreement, stats.alarms, stats.anomalies)
    emitter.emit("exchange_summary", cfg.trials,
                 _round(float(np.mean(discards))), all_agree, total_alarms,
                 total_periods)


def cmd_attack(kind: str, cfg: RunConfig, emitter: Emitter) -> None:
    noise = cfg.noise
    if kind == "passive":
        _attack_passive(cfg, emitter)
        return
    # trial t's seed stands for SeedSequence((cfg.seed, t))
    seeds = trial_seeds(cfg.seed, range(cfg.trials))
    if kind == "mitm":
        outcomes = (mitm_attack(noise, seed) for seed in seeds)
    else:  # each trial's waveform is drawn just before the trial
        rms = cfg.injection_rms
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x171)))
        outcomes = (inject_current(
            noise, rng.normal(0.0, rms, noise.samples_per_bit), seed)
            for seed in seeds)
    indices = []  # the detected trials' first divergence
    for trial, out in enumerate(outcomes):
        if out.detected:
            indices.append(out.detection_sample_index)
        emitter.emit("active_trial", kind, trial, out.detected,
                     out.detection_sample_index, out.bits_learned,
                     out.bits_retained_by_parties)
    median = int(np.median(indices)) if indices else None
    emitter.emit(f"{kind}_summary", kind, cfg.trials,
                 _round(len(indices) / cfg.trials),
                 median if kind == "mitm" else _round(cfg.amplitude))


def _attack_passive(cfg: RunConfig, emitter: Emitter) -> None:
    noise = cfg.noise
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xE5E)))
    correct = 0
    pair_su = []
    pair_si = []
    for trial in range(cfg.trials):
        a_bit = int(rng.integers(0, 2))
        b_bit = 1 - a_bit  # forced secure periods: that is where Eve matters
        rec = run_bit_period(a_bit, b_bit, noise, rng)
        # Eve measures the very trace the parties classified: a period
        # they cannot classify (and discard) gives her no guess either.
        est = passive_eavesdrop(rec.trace, noise, rng)
        ok = est.bit_assignment_guess == (a_bit, b_bit)
        correct += ok
        pair_su.append(est.spectra[0])
        pair_si.append(est.spectra[1])
        pair = est.pair_guess
        emitter.emit("passive_trial", "passive", trial, False,
                     est.loop_class_guess and str(est.loop_class_guess),
                     bool(ok), _round(pair[0], 3) if pair else None,
                     _round(pair[1], 3) if pair else None)
    pooled = np.array([np.mean(pair_su), np.mean(pair_si)])
    try:
        pooled_pair = [_round(r, 3) for r in
                       infer_resistor_pair(pooled, noise)]
    except ValueError:  # the pooled spectra admit no real pair
        pooled_pair = [None, None]
    emitter.emit("passive_summary", "passive", cfg.trials, 0.0,
                 _round(correct / cfg.trials), *pooled_pair)


def _parse_faults(script: str, n_sessions: int) -> dict[int, str]:
    """The --faults script as {session index: fault kind}."""
    faults = {}
    for part in script.split(","):
        part = part.strip()
        if not part:
            continue
        idx, _, kind = part.partition(":")
        kind = kind.strip()
        if kind not in ("wrong_key", "mitm_auth", "mitm_refresh"):
            raise ConfigError(f"unknown fault kind {kind!r}")
        try:
            index = int(idx)
        except ValueError as err:
            raise ConfigError(f"bad fault session index {idx!r}") from err
        if index in faults:
            raise ConfigError(
                f"fault session index {index} is given twice ({faults[index]}"
                f" and {kind}); a session takes at most one fault")
        faults[index] = kind
    stray = sorted(i for i in faults if not 0 <= i < n_sessions)
    if stray:
        raise ConfigError(
            f"fault session index {stray[0]} lies outside 0.."
            f"{n_sessions - 1} (n_sessions={n_sessions})")
    return faults


def cmd_card_lifetime(cfg: RunConfig, emitter: Emitter) -> None:
    faults = _parse_faults(cfg.faults, cfg.n_sessions)
    store = Keystore.load(cfg.keystore) if cfg.keystore else Keystore()
    identity = CardIdentity("4000000000000000", "SIMULATED HOLDER", "12/30")
    provision_seed, clone_seed, *session_seeds = spawn_seeds(
        cfg.seed, 2 + cfg.n_sessions)
    try:
        card, record = initialize_card(identity, cfg.m_max,
                                       cfg.derived_n_d(), provision_seed,
                                       keystore=store)
    except DuplicateCardError as err:
        raise ConfigError(f"{cfg.keystore}: {err}; a new lifetime needs a "
                          f"fresh --keystore") from err
    payload = bytes(i % 256 for i in range(cfg.payload_bytes))
    clone_rng = np.random.default_rng(clone_seed)

    consumed_segments: list[tuple[int, int]] = []
    statuses = []
    key_b_sessions = 0
    for i in range(cfg.n_sessions):
        fault = faults.get(i)
        acting_card = card
        auth_adv = refresh_adv = None
        if fault == "wrong_key":  # a clone: this identity, a wrong key C
            acting_card, _ = initialize_card(identity, cfg.m_max,
                                             cfg.derived_n_d(), clone_rng)
        elif fault == "mitm_auth":
            auth_adv = MitmHook((cfg.seed, 0xA117, i))
        elif fault == "mitm_refresh":
            refresh_adv = MitmHook((cfg.seed, 0x4EF4, i))
        try:
            ledger = run_session(acting_card, store, cfg.noise,
                                 session_seeds[i], payload, cfg.key_b_bits,
                                 auth_adversary=auth_adv,
                                 refresh_adversary=refresh_adv)
        except CardRefusedError as err:
            statuses.append("refused")
            emitter.emit("refused_session", i, "refused", fault, str(err),
                         record.broken_count_mirror, record.canceled,
                         card.generation)
            continue
        status = ledger.phase
        statuses.append(status)
        if ledger.consumed_segment is not None:
            consumed_segments.append(ledger.consumed_segment)
        if ledger.key_b_bits_used:
            key_b_sessions += 1
        emitter.emit("session", i, status, fault,
                     record.broken_count_mirror, record.canceled,
                     card.generation, list(ledger.consumed_segment)
                     if ledger.consumed_segment else None,
                     ledger.refreshed, ledger.key_b_bits_used)
    segment_reuse = len(consumed_segments) != len(set(consumed_segments))
    closed, refused = statuses.count("closed"), statuses.count("refused")
    # key_b_reuse is structurally impossible: a fresh B, zeroized after use
    emitter.emit("lifetime_summary", cfg.n_sessions, closed,
                 len(statuses) - closed - refused, refused, record.canceled,
                 card.generation, segment_reuse, False, key_b_sessions)


def cmd_rate(cfg: RunConfig, emitter: Emitter) -> None:
    noise = cfg.noise
    _alice, _bob, stats = exchange_key(cfg.target_bits, noise, cfg.seed)
    sim_seconds = stats.periods_run * noise.samples_per_bit \
        / noise.sample_rate
    rate = stats.retained / sim_seconds
    emitter.emit("rate_report", _round(rate, 4), 1000.0,
                 _round(noise.bit_period_seconds, 12), cfg.target_bits,
                 stats.periods_run, _round(sim_seconds, 8),
                 _round(1024.0 / rate, 6), _round(rate / 8.0, 4))


def cmd_keystore_inspect(cfg: RunConfig, emitter: Emitter) -> None:
    store = Keystore.load(cfg.keystore)
    if store.torn_tail:
        print(f"notice: {cfg.keystore}: skipped a torn last line",
              file=sys.stderr)
    for number in sorted(store.records):  # each card without its key C
        emitter.emit("keystore_card", *RECORDS["keystore_card"].values(
            store.records[number].to_journal()))
    emitter.emit("keystore_summary", len(store.records))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Johnson-noise key exchange and card protocol simulator")
    # Each command's flags, declared once and copied in through parents=;
    # attack's kind comes first, ahead of them.
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", help="flat key=value config file")
    for key, typ in _FIELD_TYPES.items():
        settings.add_argument(f"--{key}", default=None, metavar=typ.upper())
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("kind", choices=["passive", "mitm", "injection"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (("exchange", "run key-exchange trials"),
                          ("attack", "run an attack study"),
                          ("card-lifetime", "simulate full card sessions"),
                          ("rate", "report the secure-bit rate"),
                          ("keystore-inspect", "dump keystore state")):
        sub.add_parser(name, help=summary, parents=[kind, settings]
                       if name == "attack" else [settings])
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:  # a removed setting among them, such as --n_d
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        cfg = build_config(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with Emitter(cfg.output_path) as emitter:
            if args.command == "exchange":
                cmd_exchange(cfg, emitter)
            elif args.command == "attack":
                cmd_attack(args.kind, cfg, emitter)
            elif args.command == "card-lifetime":
                cmd_card_lifetime(cfg, emitter)
            elif args.command == "rate":
                cmd_rate(cfg, emitter)
            elif args.command == "keystore-inspect":
                cmd_keystore_inspect(cfg, emitter)
    except ChannelCompromisedError as err:
        print(f"security abort: {err}", file=sys.stderr)
        return EXIT_SECURITY
    except (ConfigError, ExchangeNotConvergedError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

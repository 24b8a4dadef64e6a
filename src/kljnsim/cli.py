"""Command-line front end for exchange campaigns, attack studies, and card
lifetimes.

Subcommands: exchange | attack | card-lifetime | rate | keystore-inspect.

Configuration comes from built-in defaults, then a flat key=value config
file (--config), then the KLJN_SEED environment variable (seed only), then
explicit command-line flags; later sources win.  Output is one JSON record
per line, UTF-8, the summary last; identical config and seed reproduce the
stream byte for byte.

Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 security abort.
Output is strict JSON: a record that would carry an infinite or NaN number
(settings so extreme that the physics leaves float range) is not written,
and the run ends with exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .adversary import MitmHook, inject_current, mitm_attack, \
    passive_eavesdrop
from .card import (
    CardIdentity,
    CardRefusedError,
    CardState,
    DuplicateCardError,
    Keystore,
    Terminal,
    initialize_card,
    run_session,
)
from .exchange import ChannelCompromisedError, ExchangeNotConvergedError, \
    class_levels, exchange_key, run_bit_period, spawn_seeds
from .noise import NoiseConfig, SpectraEstimate, analytic_spectra, \
    infer_resistor_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SECURITY = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a command run needs; flat so it maps 1:1 onto the
    key=value config file and the --key flags."""

    r_low: float = NoiseConfig.r_low
    r_high: float = NoiseConfig.r_high
    t_eff: float = NoiseConfig.t_eff
    bandwidth: float = NoiseConfig.bandwidth
    sample_rate: float = 0.0       # 0 -> 2 x bandwidth
    samples_per_bit: int = NoiseConfig.samples_per_bit
    classify_margin: float = NoiseConfig.classify_margin
    m_max: int = 5
    n_d: int = 0                   # 0 -> derived from session geometry
    trials: int = 10
    seed: int = 12345
    output_path: str = ""          # "" -> stdout
    target_bits: int = 256
    payload_bytes: int = 16
    amplitude: float = 10.0        # injection, in units of loop-current RMS
    n_sessions: int = 3
    faults: str = ""               # "IDX:KIND,..." KIND in wrong_key|...
    keystore: str = "keystore.jsonl"

    # Smallest accepted value; NoiseConfig checks the physics parameters.
    _MINIMUMS = {"trials": 1, "target_bits": 1, "m_max": 1,
                 "payload_bytes": 1, "n_sessions": 0, "seed": 0,
                 "amplitude": 0}
    # Largest accepted samples_per_bit.  A card authentication holds every
    # period's voltage and current, about 8 KB x samples_per_bit at the
    # default payload, so 10 000 samples (100x the default) keeps it near
    # 100 MB.
    _MAX_SAMPLES_PER_BIT = 10_000

    def __post_init__(self):
        for key, low in self._MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(
                    f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.samples_per_bit > self._MAX_SAMPLES_PER_BIT:
            raise ConfigError(
                f"samples_per_bit must be <= {self._MAX_SAMPLES_PER_BIT}, "
                f"got {self.samples_per_bit}")
        if self.n_d < 0 or self.n_d == 1:
            raise ConfigError(
                f"n_d must be 0 (derived) or >= 2, got {self.n_d}")

    def noise_config(self) -> NoiseConfig:
        sample_rate = self.sample_rate or 2.0 * self.bandwidth
        noise = NoiseConfig(
            r_low=self.r_low, r_high=self.r_high, t_eff=self.t_eff,
            bandwidth=self.bandwidth, sample_rate=sample_rate,
            samples_per_bit=self.samples_per_bit,
            classify_margin=self.classify_margin,
        )
        # Classification works in log space: a level that underflows to 0
        # or is undefined (NaN) cannot be placed there.  (An infinite one
        # can: it is simply never nearest.)
        for cls, level in class_levels(noise).items():
            if not (level.s_u > 0 and level.s_i > 0):
                raise ConfigError(
                    f"the {cls} noise level (s_u={level.s_u}, "
                    f"s_i={level.s_i}) leaves float range; t_eff, r_low "
                    f"and r_high are too extreme")
        return noise

    @property
    def key_b_bits(self) -> int:
        """Key B size: twice the payload's bits."""
        return 2 * 8 * self.payload_bytes

    def derived_n_d(self) -> int:
        if self.n_d:
            return self.n_d
        # voltage+current samples over the expected authentication exchange
        return 2 * self.samples_per_bit * 2 * self.key_b_bits


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


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
    merged: dict = {}
    if args.config:
        merged.update(load_config_file(args.config))
    env_seed = os.environ.get("KLJN_SEED")
    if env_seed is not None:
        merged["seed"] = _coerce("seed", env_seed)
    for key in _FIELD_TYPES:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = _coerce(key, str(cli_val))
    return RunConfig(**merged)


class Emitter:
    """Writes one JSON object per line, to stdout or a file."""

    def __init__(self, output_path: str):
        self.output_path = output_path
        self._fh = None

    def __enter__(self):
        if self.output_path:
            self._fh = open(self.output_path, "w", encoding="utf-8",
                            newline="\n")
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()

    def emit(self, obj: dict) -> None:
        try:
            line = json.dumps(obj, separators=(",", ":"), allow_nan=False)
        except ValueError as err:
            raise ConfigError(
                f"a {obj.get('schema')} record holds a non-finite number "
                f"({err}); the settings leave the simulated float range"
            ) from err
        if self._fh is not None:
            self._fh.write(line + "\n")
        else:
            sys.stdout.write(line + "\n")


def _round(x: float, digits: int = 10) -> float:
    """Stabilize float fields so records stay compact and reproducible."""
    return round(float(x), digits)


def cmd_exchange(cfg: RunConfig, emitter: Emitter) -> int:
    noise = cfg.noise_config()
    total_periods = 0
    total_alarms = 0
    discards = []
    all_agree = True
    for trial in range(cfg.trials):
        alice, bob, stats = exchange_key(cfg.target_bits, noise,
                                         cfg.seed + trial)
        agreement = alice.to01() == bob.to01()
        all_agree = all_agree and agreement
        total_periods += stats.periods_run
        total_alarms += stats.alarms
        discards.append(stats.discard_fraction)
        emitter.emit({
            "schema": "kljn.exchange_trial", "version": 1,
            "trial": trial,
            "periods": stats.periods_run,
            "retained": stats.retained,
            "discard_fraction": _round(stats.discard_fraction),
            "agreement": agreement,
            "alarms": stats.alarms,
            "anomalies": stats.anomalies,
        })
    emitter.emit({
        "schema": "kljn.exchange_summary", "version": 1,
        "trials": cfg.trials,
        "mean_discard_fraction": _round(float(np.mean(discards))),
        "all_agree": all_agree,
        "total_alarms": total_alarms,
        "total_periods": total_periods,
    })
    return EXIT_OK


def cmd_attack(kind: str, cfg: RunConfig, emitter: Emitter) -> int:
    noise = cfg.noise_config()
    if kind == "passive":
        return _attack_passive(cfg, noise, emitter)
    if kind == "mitm":
        return _attack_active(
            "mitm", lambda trial: mitm_attack(noise, (cfg.seed, trial)),
            lambda indices: {"median_detection_index":
                             int(np.median(indices)) if indices else None},
            cfg, emitter)
    mid = analytic_spectra(noise.r_low, noise.r_high, noise)
    loop_rms = float(np.sqrt(mid.s_i * noise.bandwidth))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x171)))

    def injection_trial(trial):
        injection = rng.normal(0.0, cfg.amplitude * loop_rms,
                               noise.samples_per_bit) \
            if cfg.amplitude > 0 else np.zeros(noise.samples_per_bit)
        return inject_current(noise, injection, (cfg.seed, trial))

    return _attack_active(
        "injection", injection_trial,
        lambda indices: {"amplitude_rms_ratio": _round(cfg.amplitude)},
        cfg, emitter)


def _attack_passive(cfg: RunConfig, noise: NoiseConfig,
                    emitter: Emitter) -> int:
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
        pair_su.append(rec.spectra_alice.s_u)
        pair_si.append(rec.spectra_alice.s_i)
        pair = est.pair_guess
        emitter.emit({
            "schema": "kljn.attack_trial", "version": 1,
            "kind": "passive", "trial": trial,
            "detected": False,
            "loop_class": est.loop_class_guess and str(est.loop_class_guess),
            "assignment_correct": bool(ok),
            "pair_low": _round(pair[0], 3) if pair else None,
            "pair_high": _round(pair[1], 3) if pair else None,
        })
    pooled = SpectraEstimate(s_u=float(np.mean(pair_su)),
                             s_i=float(np.mean(pair_si)))
    try:
        pooled_pair = [_round(r, 3) for r in
                       infer_resistor_pair(pooled, noise)]
    except ValueError:  # the pooled spectra admit no real pair
        pooled_pair = [None, None]
    emitter.emit({
        "schema": "kljn.attack_summary", "version": 1,
        "kind": "passive", "trials": cfg.trials,
        "detection_rate": 0.0,
        "assignment_accuracy": _round(correct / cfg.trials),
        "pooled_pair_low": pooled_pair[0],
        "pooled_pair_high": pooled_pair[1],
    })
    return EXIT_OK


def _attack_active(kind: str, run_trial, summary_fields, cfg: RunConfig,
                   emitter: Emitter) -> int:
    """Trial loop shared by the active attacks: ``run_trial(trial)`` gives
    an AttackOutcome, ``summary_fields(detection indices)`` the summary
    record's kind-specific tail."""
    detected = 0
    indices = []
    for trial in range(cfg.trials):
        out = run_trial(trial)
        detected += out.detected
        if out.detection_sample_index is not None:
            indices.append(out.detection_sample_index)
        emitter.emit({
            "schema": "kljn.attack_trial", "version": 1,
            "kind": kind, "trial": trial,
            "detected": out.detected,
            "detection_sample_index": out.detection_sample_index,
            "bits_learned": out.bits_learned,
            "bits_retained_by_parties": out.bits_retained_by_parties,
        })
    emitter.emit({
        "schema": "kljn.attack_summary", "version": 1,
        "kind": kind, "trials": cfg.trials,
        "detection_rate": _round(detected / cfg.trials),
        **summary_fields(indices),
    })
    return EXIT_OK


def _parse_faults(script: str) -> dict[int, str]:
    faults = {}
    if not script:
        return faults
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
    return faults


def cmd_card_lifetime(cfg: RunConfig, emitter: Emitter) -> int:
    noise = cfg.noise_config()
    faults = _parse_faults(cfg.faults)
    stray = sorted(i for i in faults if not 0 <= i < cfg.n_sessions)
    if stray:
        raise ConfigError(
            f"fault session index {stray[0]} lies outside 0.."
            f"{cfg.n_sessions - 1} (n_sessions={cfg.n_sessions})")
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
    counts = {"closed": 0, "broken": 0, "refused": 0}
    key_b_sessions = 0
    for i in range(cfg.n_sessions):
        fault = faults.get(i)
        terminal = Terminal(key_b_bits=cfg.key_b_bits)
        acting_card = card
        auth_adv = refresh_adv = None
        if fault == "wrong_key":
            fake, _ = initialize_card(
                CardIdentity("clone", "EVE", "01/01"),
                cfg.m_max, cfg.derived_n_d(), clone_rng)
            acting_card = CardState(identity=identity, key_c=fake.key_c)
        elif fault == "mitm_auth":
            auth_adv = MitmHook((cfg.seed, 0xA117, i))
        elif fault == "mitm_refresh":
            refresh_adv = MitmHook((cfg.seed, 0x4EF4, i))
        try:
            ledger = run_session(acting_card, terminal, store, noise,
                                 session_seeds[i], payload,
                                 auth_adversary=auth_adv,
                                 refresh_adversary=refresh_adv)
        except CardRefusedError as err:
            counts["refused"] += 1
            emitter.emit({
                "schema": "kljn.session", "version": 1,
                "session": i, "status": "refused", "fault": fault,
                "reason": str(err),
                "broken_count": record.broken_count_mirror,
                "canceled": record.canceled,
                "generation": card.generation,
            })
            continue
        status = ledger.phase
        counts["closed" if status == "closed" else "broken"] += 1
        if ledger.consumed_segment is not None:
            consumed_segments.append(ledger.consumed_segment)
        if ledger.key_b_bits_used:
            key_b_sessions += 1
        emitter.emit({
            "schema": "kljn.session", "version": 1,
            "session": i, "status": status, "fault": fault,
            "broken_count": record.broken_count_mirror,
            "canceled": record.canceled,
            "generation": card.generation,
            "segment": list(ledger.consumed_segment)
            if ledger.consumed_segment else None,
            "refreshed": ledger.refreshed,
            "key_b_bits_used": ledger.key_b_bits_used,
        })
    segment_reuse = len(consumed_segments) != len(set(consumed_segments))
    emitter.emit({
        "schema": "kljn.lifetime_summary", "version": 1,
        "sessions": cfg.n_sessions,
        "closed": counts["closed"],
        "broken": counts["broken"],
        "refused": counts["refused"],
        "canceled": record.canceled,
        "generations": card.generation,
        "segment_reuse": segment_reuse,
        "key_b_reuse": False,  # structurally impossible: fresh B, zeroized
        "key_b_sessions": key_b_sessions,
    })
    return EXIT_OK


def cmd_rate(cfg: RunConfig, emitter: Emitter) -> int:
    noise = cfg.noise_config()
    _alice, _bob, stats = exchange_key(cfg.target_bits, noise, cfg.seed)
    sim_seconds = stats.periods_run * noise.samples_per_bit \
        / noise.sample_rate
    rate = stats.retained / sim_seconds
    emitter.emit({
        "schema": "kljn.rate_report", "version": 1,
        "secure_bit_rate": _round(rate, 4),
        "reference_rate": 1000.0,
        "bit_period_seconds": _round(noise.bit_period_seconds, 12),
        "target_bits": cfg.target_bits,
        "periods": stats.periods_run,
        "simulated_seconds": _round(sim_seconds, 8),
        "seconds_for_1024_secure_bits": _round(1024.0 / rate, 6),
        "amplified_bit_rate": _round(rate / 8.0, 4),
    })
    return EXIT_OK


def cmd_keystore_inspect(cfg: RunConfig, emitter: Emitter) -> int:
    if not cfg.keystore:
        raise ConfigError("keystore-inspect requires --keystore")
    store = Keystore.load(cfg.keystore)
    if store.torn_tail:
        print(f"notice: {cfg.keystore}: skipped a torn last line",
              file=sys.stderr)
    for number in sorted(store.records):
        card = store.records[number].to_journal()
        del card["c_hex"]  # inspection does not dump key material
        emitter.emit({**card, "schema": "kljn.keystore_card"})
    emitter.emit({"schema": "kljn.keystore_summary", "version": 1,
                  "cards": len(store.records)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Johnson-noise key exchange and card protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        for key, typ in _FIELD_TYPES.items():
            p.add_argument(f"--{key}", default=None, metavar=typ.upper())

    p_ex = sub.add_parser("exchange", help="run key-exchange trials")
    add_common(p_ex)
    p_at = sub.add_parser("attack", help="run an attack study")
    p_at.add_argument("kind", choices=["passive", "mitm", "injection"])
    add_common(p_at)
    p_cl = sub.add_parser("card-lifetime", help="simulate full card sessions")
    add_common(p_cl)
    p_rt = sub.add_parser("rate", help="report the secure-bit rate")
    add_common(p_rt)
    p_ki = sub.add_parser("keystore-inspect", help="dump keystore state")
    add_common(p_ki)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        cfg.noise_config()  # validate physics parameters early -> exit 2
    except (ConfigError, ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    # Physics values near the float limits overflow inside numpy.  Those
    # results are handled (the monitor fails closed, non-finite records
    # exit 2), so numpy's own warnings would only leak internals onto
    # stderr; one errstate for the whole command costs nothing per period.
    try:
        with Emitter(cfg.output_path) as emitter, \
                np.errstate(over="ignore", invalid="ignore"):
            if args.command == "exchange":
                return cmd_exchange(cfg, emitter)
            if args.command == "attack":
                return cmd_attack(args.kind, cfg, emitter)
            if args.command == "card-lifetime":
                return cmd_card_lifetime(cfg, emitter)
            if args.command == "rate":
                return cmd_rate(cfg, emitter)
            if args.command == "keystore-inspect":
                return cmd_keystore_inspect(cfg, emitter)
            raise AssertionError(f"unhandled command {args.command}")
    except ChannelCompromisedError as err:
        print(f"security abort: {err}", file=sys.stderr)
        return EXIT_SECURITY
    except (ConfigError, ExchangeNotConvergedError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

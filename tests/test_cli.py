import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import cli
from kljnsim.card import CardIdentity, Keystore, ServerRecord, \
    initialize_card
from kljnsim.exchange import ChannelCompromisedError
from kljnsim.records import SchemaError, validate_record


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


# The repository's src, put first on a CLI child's PYTHONPATH: the child
# imports the same kljnsim as the tests, with or without PYTHONPATH set.
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_proc(argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("KLJN_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kljnsim.cli", *argv],
        capture_output=True, env=env, cwd=cwd)


def strict_json(line: str):
    """Parse one record, refusing the NaN/Infinity tokens of lax JSON."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(line, parse_constant=reject)


FAST = ["--target_bits", "32", "--trials", "3", "--samples_per_bit", "100"]


class TestExchangeCommand:
    def test_records_and_summary(self, capsys):
        code, records = run_main(["exchange", *FAST, "--seed", "5"], capsys)
        assert code == 0
        assert len(records) == 4
        for rec in records[:-1]:
            assert rec["schema"] == "kljn.exchange_trial"
            assert rec["agreement"] is True
        summary = records[-1]
        assert summary["schema"] == "kljn.exchange_summary"
        assert summary["all_agree"] is True
        assert summary["total_alarms"] == 0

    def test_all_records_validate(self, capsys):
        _, records = run_main(["exchange", *FAST, "--seed", "5"], capsys)
        for rec in records:
            validate_record(rec)

    def test_invalid_bandwidth_exits_2(self, capsys):
        code = cli.main(["exchange", "--bandwidth", "0"])
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        code = cli.main(["exchange", *FAST, "--seed", "5",
                         "--output_path", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_summary_discard_fraction_near_half(self, capsys):
        code, records = run_main(
            ["exchange", "--trials", "30", "--target_bits", "64",
             "--seed", "77"], capsys)
        assert code == 0
        assert 0.45 <= records[-1]["mean_discard_fraction"] <= 0.55

    def test_security_abort_exits_4(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ChannelCompromisedError("forced")

        monkeypatch.setattr(cli, "exchange_key", boom)
        assert cli.main(["exchange", *FAST]) == 4


class TestAttackCommand:
    def test_passive_summary(self, capsys):
        code, records = run_main(
            ["attack", "passive", "--trials", "200", "--seed", "3"], capsys)
        assert code == 0
        summary = records[-1]
        assert summary["kind"] == "passive"
        assert abs(summary["assignment_accuracy"] - 0.5) < 0.15
        assert summary["pooled_pair_low"] == pytest.approx(1e3, rel=0.1)
        assert summary["pooled_pair_high"] == pytest.approx(1e4, rel=0.1)
        for rec in records:
            validate_record(rec)

    def test_mitm_summary(self, capsys):
        code, records = run_main(
            ["attack", "mitm", "--trials", "50", "--seed", "3"], capsys)
        assert code == 0
        summary = records[-1]
        assert summary["detection_rate"] == 1.0
        assert summary["median_detection_index"] <= 10

    def test_injection_zero_amplitude_never_alarms(self, capsys):
        code, records = run_main(
            ["attack", "injection", "--trials", "50", "--amplitude", "0",
             "--seed", "3"], capsys)
        assert code == 0
        assert records[-1]["detection_rate"] == 0.0

    def test_unknown_kind_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["attack", "replay"])
        assert exc.value.code == 2

    def test_records_validate(self, capsys):
        _, records = run_main(
            ["attack", "injection", "--trials", "10", "--seed", "1"],
            capsys)
        for rec in records:
            validate_record(rec)


class TestCardLifetimeCommand:
    ARGS = ["card-lifetime", "--n_sessions", "3", "--m_max", "2",
            "--payload_bytes", "8", "--seed", "21"]

    def test_clean_lifetime(self, tmp_path, capsys):
        code, records = run_main(
            [*self.ARGS, "--keystore", str(tmp_path / "ks.jsonl")], capsys)
        assert code == 0
        summary = records[-1]
        assert summary["closed"] == 3
        assert summary["generations"] == 3  # one key-C refresh per session
        assert summary["segment_reuse"] is False
        assert summary["key_b_reuse"] is False
        assert (tmp_path / "ks.jsonl").exists()
        for rec in records:
            validate_record(rec)

    def test_wrong_key_faults_cancel(self, tmp_path, capsys):
        code, records = run_main(
            [*self.ARGS, "--n_sessions", "4",
             "--faults", "0:wrong_key,1:wrong_key",
             "--keystore", str(tmp_path / "ks.jsonl")], capsys)
        assert code == 0
        summary = records[-1]
        assert summary["broken"] == 2
        assert summary["refused"] == 2
        assert summary["canceled"] is True

    def test_mitm_refresh_fault_aborts_without_breaking(self, tmp_path,
                                                        capsys):
        code, records = run_main(
            [*self.ARGS, "--faults", "1:mitm_refresh",
             "--keystore", str(tmp_path / "ks.jsonl")], capsys)
        assert code == 0
        sessions = [r for r in records if r["schema"] == "kljn.session"]
        assert sessions[1]["status"] == "closed"
        assert sessions[1]["refreshed"] is False
        assert sessions[1]["broken_count"] == 0
        # next session still succeeds on the old generation's next segment
        assert sessions[2]["status"] == "closed"

    def test_bad_fault_kind_exits_2(self, tmp_path, capsys):
        code = cli.main([*self.ARGS, "--faults", "0:replay",
                         "--keystore", str(tmp_path / "ks.jsonl")])
        assert code == 2

    def test_unwritable_keystore_exits_3(self, tmp_path, capsys):
        code = cli.main(
            [*self.ARGS, "--keystore", str(tmp_path / "nodir" / "ks.jsonl")])
        assert code == 3

    def test_rerun_on_live_keystore_exits_2(self, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        assert cli.main([*self.ARGS, "--n_sessions", "2",
                         "--keystore", str(ks)]) == 0
        journal = ks.read_bytes()
        capsys.readouterr()
        code = cli.main([*self.ARGS, "--n_sessions", "1",
                         "--keystore", str(ks)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert ks.read_bytes() == journal  # the live card is not re-provisioned

    def test_torn_journal_tail_refused_exits_3(self, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        ks.write_text('{"schema": "kljn.card_rec', encoding="utf-8")
        code = cli.main([*self.ARGS, "--keystore", str(ks)])
        assert code == 3
        assert capsys.readouterr().out == ""
        assert ks.read_text(encoding="utf-8") == '{"schema": "kljn.card_rec'


class TestRateCommand:
    def test_report_fields(self, capsys):
        code, records = run_main(["rate", "--target_bits", "256",
                                  "--seed", "2"], capsys)
        assert code == 0
        rep = records[-1]
        validate_record(rep)
        assert rep["reference_rate"] == 1000.0
        assert 250 <= rep["secure_bit_rate"] <= 4000

    def test_rate_halves_when_samples_double(self, capsys):
        _, fast = run_main(["rate", "--target_bits", "256", "--seed", "2"],
                           capsys)
        _, slow = run_main(["rate", "--target_bits", "256", "--seed", "2",
                            "--samples_per_bit", "200"], capsys)
        ratio = slow[-1]["secure_bit_rate"] / fast[-1]["secure_bit_rate"]
        assert ratio == pytest.approx(0.5, rel=0.05)


# Journal field values of the wrong type or below their least value, each
# in an otherwise valid card record, and their test ids.
WRONGLY_TYPED = [
    {"card_number": [1]}, {"card_number": {"n": 4}}, {"holder_name": [1]},
    {"expiry": {"a": 1}}, {"generation": "x"}, {"generation": -5},
    {"canceled": "no"}, {"segment_len": 0}, {"cursor": True},
    {"broken_count": -3}, {"c_len": 1.0}, {"m_max": False}]
WRONGLY_TYPED_IDS = [
    "list_number", "object_number", "list_holder", "object_expiry",
    "text_generation", "negative_generation", "text_canceled",
    "zero_segment_len", "bool_cursor", "negative_broken_count",
    "float_c_len", "bool_m_max"]


class TestKeystoreInspect:
    def test_inspect_after_lifetime(self, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        cli.main(["card-lifetime", "--n_sessions", "2", "--m_max", "2",
                  "--payload_bytes", "8", "--seed", "4",
                  "--keystore", str(ks)])
        capsys.readouterr()
        code, records = run_main(["keystore-inspect", "--keystore",
                                  str(ks)], capsys)
        assert code == 0
        assert records[-1] == {"schema": "kljn.keystore_summary",
                               "version": 1, "cards": 1}
        card = records[0]
        validate_record(card)
        assert card["generation"] == 2
        assert "c_hex" not in card  # inspection does not dump secrets

    def test_missing_keystore_arg_exits_2(self, capsys):
        assert cli.main(["keystore-inspect", "--keystore", ""]) == 2

    @staticmethod
    def provisioned(tmp_path):
        ks = tmp_path / "ks.jsonl"
        initialize_card(CardIdentity("4000000000000000", "HOLDER", "12/30"),
                        2, 2048, 5, keystore=Keystore(ks))
        return ks

    def test_torn_tail_skipped_with_notice(self, tmp_path, capsys):
        ks = self.provisioned(tmp_path)
        code, intact = run_main(["keystore-inspect", "--keystore", str(ks)],
                                capsys)
        assert code == 0
        with open(ks, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "kljn.card_rec')  # cut short, no newline
        code = cli.main(["keystore-inspect", "--keystore", str(ks)])
        captured = capsys.readouterr()
        assert code == 0
        assert [json.loads(x) for x in captured.out.splitlines()] == intact
        assert "torn" in captured.err

    @pytest.mark.parametrize("bad", [
        "not json", '{"schema": "kljn.card_rec', '{"card_number": "4"}',
        *WRONGLY_TYPED], ids=["text", "cut_short", "missing_fields",
                              *WRONGLY_TYPED_IDS])
    def test_unreadable_inner_line_exits_3(self, tmp_path, capsys, bad):
        ks = self.provisioned(tmp_path)
        if not isinstance(bad, str):  # a valid record with these fields
            line = json.loads(ks.read_text(encoding="utf-8").splitlines()[0])
            bad = json.dumps({**line, **bad})
        ks.write_text(bad + "\n" + ks.read_text(encoding="utf-8"),
                      encoding="utf-8")
        assert cli.main(["keystore-inspect", "--keystore", str(ks)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", WRONGLY_TYPED, ids=WRONGLY_TYPED_IDS)
    def test_wrongly_typed_last_line_is_a_torn_tail(self, tmp_path, capsys,
                                                    bad):
        ks = self.provisioned(tmp_path)
        intact = run_main(["keystore-inspect", "--keystore", str(ks)],
                          capsys)[1]
        line = json.loads(ks.read_text(encoding="utf-8").splitlines()[0])
        with open(ks, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**line, **bad}))  # no newline
        code, records = run_main(["keystore-inspect", "--keystore", str(ks)],
                                 capsys)
        assert code == 0
        assert records == intact

    @pytest.mark.parametrize("command", [
        ["keystore-inspect"], ["card-lifetime", "--n_sessions", "1"]])
    def test_deeply_nested_line_exits_3(self, tmp_path, capsys, command):
        # json.loads raises RecursionError, not ValueError, on this line
        ks = tmp_path / "ks.jsonl"
        ks.write_text("[" * 200_000 + "\n", encoding="utf-8")
        assert cli.main([*command, "--keystore", str(ks)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a card record" in captured.err


class TestConfigHandling:
    def test_config_file_plus_cli_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 111\ntrials = 2\ntarget_bits = 32\n"
                       "# comment line\n")
        code, records = run_main(["exchange", "--config", str(cfg),
                                  "--trials", "1"], capsys)
        assert code == 0
        assert len(records) == 2  # CLI trials=1 beat the file's 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed = 9\n")
        assert cli.main(["exchange", "--config", str(cfg)]) == 2

    def test_env_seed_matches_explicit_seed(self):
        by_env = run_proc(["exchange", *FAST],
                          env_extra={"KLJN_SEED": "777"})
        by_flag = run_proc(["exchange", *FAST, "--seed", "777"])
        assert by_env.returncode == by_flag.returncode == 0
        assert by_env.stdout == by_flag.stdout

    def test_cli_seed_beats_env(self):
        flagged = run_proc(["exchange", *FAST, "--seed", "1"],
                           env_extra={"KLJN_SEED": "777"})
        plain = run_proc(["exchange", *FAST, "--seed", "1"])
        assert flagged.stdout == plain.stdout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Stream digests pinned when the streams were last deliberately changed, so a
# change to any byte fails here, not only a difference between two reruns.
PINNED_STREAMS = {
    "exchange --trials 2 --target_bits 32 --seed 9":
        "f43541017b4cb7fdbdfbcf7a19e90d2f2956c47bc1c93609535543b5fe892c4d",
    "attack passive --trials 20 --seed 9":
        "a5e0a957e3bb54fa47f73e8da3e164279b8dd1453266bc7479c8de30c67286bd",
    "attack mitm --trials 20 --seed 9":
        "557291890a2493b11c2572df9afde662011c358a14d3c810eda4d6454244bd5c",
    "attack injection --trials 20 --seed 9":
        "ac84aae95aa5b23cbee5dc4a0c17a5fb9e70ac9790b564a3a8b9eaf2595073bb",
    "rate --target_bits 64 --seed 9":
        "0cd04c5d4cdcf89d2b76e3953efd254ce44c00738e8ac35adc085ed2bd0470b1",
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [a.split() for a in PINNED_STREAMS])
    def test_rerun_is_byte_identical(self, argv):
        first = run_proc(argv)
        second = run_proc(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert sha256(first.stdout) == PINNED_STREAMS[" ".join(argv)]

    def test_card_lifetime_pinned(self, tmp_path):
        # A clean refreshing session, one fault of each kind, then a refusal
        # once every segment of the generation is spent.
        ks = str(tmp_path / "ks.jsonl")
        life = run_proc(["card-lifetime", "--n_sessions", "5", "--m_max", "3",
                         "--payload_bytes", "8", "--seed", "31", "--faults",
                         "1:wrong_key,2:mitm_auth,3:mitm_refresh",
                         "--keystore", ks])
        inspect = run_proc(["keystore-inspect", "--keystore", ks])
        assert life.returncode == inspect.returncode == 0
        assert sha256(life.stdout) == (
            "75f62334b12d47321346019c8dbcd1ffeedd9d67658b907582e585536c087fc7")
        assert sha256((tmp_path / "ks.jsonl").read_bytes()) == (
            "b22aa2a18b83792d5597d22da9a6f9f535dce7372594dbeab6d42d427066569e")
        assert sha256(inspect.stdout) == (
            "c92d434d1777a04972d542cdfe67c13668d84546daf97f2c76e415e3dd55162d")

    def test_card_lifetime_rerun_identical(self, tmp_path):
        argv = ["card-lifetime", "--n_sessions", "2", "--m_max", "2",
                "--payload_bytes", "8", "--seed", "31", "--keystore"]
        a = run_proc([*argv, str(tmp_path / "a.jsonl")])
        b = run_proc([*argv, str(tmp_path / "b.jsonl")])
        assert a.stdout == b.stdout
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize("argv", [
        ["attack", "mitm", "--trials", "0"],
        ["attack", "passive", "--trials", "0"],
        ["attack", "injection", "--trials", "-2"],
        ["exchange", "--trials", "0"],
        ["exchange", "--target_bits", "0"],
        ["exchange", "--seed", "-1"],
        ["rate", "--target_bits", "0"],
        ["card-lifetime", "--n_sessions", "-1"],
        ["card-lifetime", "--m_max", "0"],
        ["card-lifetime", "--payload_bytes", "0"],
        ["card-lifetime", "--n_d", "1"],
        ["card-lifetime", "--faults", "x:wrong_key"],
    ])
    def test_exits_2_without_output(self, argv, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        assert cli.main([*argv, "--keystore", str(ks)]) == 2
        assert capsys.readouterr().out == ""
        assert not ks.exists()

    @pytest.mark.parametrize("n_sessions,faults", [
        ("1", "5:wrong_key"),
        ("1", "-1:mitm_auth"),
        ("1", "5:wrong_key,-1:mitm_auth"),
        ("3", "0:wrong_key,3:mitm_refresh"),
        ("0", "0:wrong_key"),
    ], ids=["past_end", "negative", "both", "one_past_last", "no_sessions"])
    def test_fault_index_outside_sessions_exits_2(self, n_sessions, faults,
                                                  tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        code = cli.main(["card-lifetime", "--n_sessions", n_sessions,
                         f"--faults={faults}", "--keystore", str(ks)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not ks.exists()

    @pytest.mark.parametrize("faults", [
        "0:wrong_key,0:mitm_auth", "2:mitm_refresh,2:mitm_refresh",
        "1:wrong_key, 01:mitm_auth"])
    def test_fault_index_given_twice_exits_2(self, faults, tmp_path, capsys):
        # one session cannot take two faults; neither is dropped silently
        ks = tmp_path / "ks.jsonl"
        code = cli.main(["card-lifetime", "--n_sessions", "3",
                         f"--faults={faults}", "--keystore", str(ks)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "given twice" in captured.err
        assert not ks.exists()

    @pytest.mark.parametrize("argv,stdout_sha256", [
        (["attack", "injection", "--amplitude", "1e300", "--trials", "2"],
         "885624b5399c3b97b629e137a95ff857cdf55efbd2803ce6b10ff7eb7fd4beef"),
        (["exchange", "--r_high", "1e300", "--trials", "2"],
         "fc781e634d2dd0a55e89c131871e5e06040d89b77ed6483bdc87012657037cf8"),
    ])
    def test_overflow_prints_no_numpy_warning(self, argv, stdout_sha256):
        # The overflow is handled (the monitor fails closed), so stderr
        # stays empty; stdout is the stream these commands always printed.
        proc = run_proc(argv)
        assert proc.returncode == 0
        assert b"RuntimeWarning" not in proc.stderr
        assert proc.stderr == b""
        assert sha256(proc.stdout) == stdout_sha256

    @pytest.mark.parametrize("amplitude", ["-1", "-1e-9"])
    def test_negative_amplitude_exits_2(self, amplitude, capsys):
        code = cli.main(["attack", "injection", f"--amplitude={amplitude}",
                         "--trials", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "amplitude" in captured.err

    @pytest.mark.parametrize("argv", [
        ["attack", "injection", "--amplitude", "nan"],
        ["exchange", "--r_low", "nan"],
        ["exchange", "--t_eff", "inf"],
        ["rate", "--bandwidth", "nan"],
        ["rate", "--r_high", "1e400"],
    ])
    def test_non_finite_number_exits_2(self, argv, capsys):
        assert cli.main([*argv, "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_non_finite_config_file_value_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("sample_rate = inf\n")
        assert cli.main(["rate", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_samples_per_bit_above_bound_exits_2(self, capsys):
        # rejected while the config is built: nothing is allocated
        code = cli.main(["exchange", "--samples_per_bit", "100000000000",
                         "--trials", "1", "--target_bits", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples_per_bit must be <= 10000" in captured.err

    def test_non_finite_record_is_not_written(self, capsys):
        with pytest.raises(cli.ConfigError, match="non-finite"):
            cli.Emitter("").emit({"schema": "kljn.rate_report",
                                  "secure_bit_rate": float("inf")})
        assert capsys.readouterr().out == ""

    def test_non_finite_record_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_round", lambda x, digits=10: math.nan)
        assert cli.main(["rate", "--target_bits", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("argv,check", [
        (["attack", "injection", "--amplitude", "1e300"],
         lambda summary: summary["detection_rate"] == 1.0),
        (["attack", "passive", "--r_high", "1e300"],
         lambda summary: 1e299 < summary["pooled_pair_high"] < 1e301),
    ])
    def test_extreme_values_give_strict_json(self, argv, check, capsys):
        assert cli.main([*argv, "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert check(strict_json(out.splitlines()[-1]))

    def test_levels_out_of_float_range_exit_2(self, capsys):
        # 4kT / (2 r_high) underflows to 0: no level to classify against
        assert cli.main(["rate", "--r_high", "1.7e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leaves float range" in captured.err

    def test_unclassifiable_passive_period_gives_no_guess(self, capsys):
        code, records = run_main(["attack", "passive", "--trials", "20",
                                  "--classify_margin", "0.01"], capsys)
        assert code == 0
        blind = [r for r in records[:-1] if r["loop_class"] is None]
        assert blind
        assert not any(r["assignment_correct"] for r in blind)
        assert all(r["pair_low"] is None for r in blind)

    @pytest.mark.parametrize("command", ["exchange", "rate"])
    def test_exchange_that_cannot_converge_exits_2(self, command, capsys):
        code = cli.main([command, "--r_high", "1000.001", "--trials", "1",
                         "--target_bits", "16"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "did not converge" in captured.err


EXTREME_VALUES = {
    "r_low": ["1e-300", "1", "1e100", "1e300"],
    "r_high": ["1e-299", "1100", "1e150", "1e300", "1.7e308"],
    "t_eff": ["1e-300", "1", "1e300"],
    "bandwidth": ["1e-300", "1e-5", "1e300"],
    "sample_rate": ["0", "1e306"],
    "classify_margin": ["0.001", "0.01", "0.99"],
    "amplitude": ["0", "1e-300", "1e200", "1e308"],
    "n_d": ["2", "1000000000000"],
}
SMALL_COMMANDS = [
    ["exchange", "--trials", "1", "--target_bits", "4"],
    ["rate", "--target_bits", "4"],
    ["attack", "passive", "--trials", "3"],
    ["attack", "mitm", "--trials", "3"],
    ["attack", "injection", "--trials", "3"],
    ["card-lifetime", "--n_sessions", "1", "--payload_bytes", "1",
     "--m_max", "1", "--keystore", ""],
]


# One valid journal line, unterminated, and the strategies that damage it.
CARD_RECORD = initialize_card(
    CardIdentity("4000000000000000", "HOLDER", "12/30"), 2, 2048, 5,
)[1].to_journal()
CARD_LINE = json.dumps(CARD_RECORD).encode()


def card_line_with(fields: dict) -> bytes:
    return json.dumps({**CARD_RECORD, **fields}).encode()


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
JOURNAL_LINES = st.one_of(
    st.just(CARD_LINE),  # drawn more than once: a duplicated line
    st.integers(0, len(CARD_LINE)).map(lambda k: CARD_LINE[:k]),
    st.tuples(st.integers(0, len(CARD_LINE) - 1),
              st.binary(min_size=1, max_size=1)).map(
        lambda kb: CARD_LINE[:kb[0]] + kb[1] + CARD_LINE[kb[0] + 1:]),
    st.tuples(st.sampled_from(list(ServerRecord.FIELDS)), ANY_JSON).map(
        lambda fv: card_line_with({fv[0]: fv[1]})),
    st.binary(max_size=40),  # mostly not UTF-8
)
JOURNALS = st.builds(lambda lines, end: b"\n".join(lines) + end,
                     st.lists(JOURNAL_LINES, min_size=1, max_size=4),
                     st.sampled_from([b"\n", b""]))

CONFIG_LINES = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(sorted(cli._FIELD_TYPES)) | st.text(max_size=8),
              st.text(max_size=12) | st.integers(-5, 10**6).map(str)
              | st.floats().map(repr)),
    st.text(max_size=20))
CONFIG_BODIES = st.lists(CONFIG_LINES, max_size=5).map(
    lambda lines: "\n".join(lines).encode()) | st.binary(max_size=40)


def with_examples(name, values):
    """Apply ``@example(name=value)`` for each value."""
    def decorate(test):
        for value in values:
            test = example(**{name: value})(test)
        return test
    return decorate


def exit_and_stdout(argv, file_bytes: bytes) -> tuple[int, str, str]:
    """Run ``cli.main`` in process with ``file_bytes`` written to the path
    that ``argv``'s ``{}`` placeholder names; (exit code, stdout, stderr).
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(file_bytes)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([arg.format(path) for arg in argv])
    return code, out.getvalue(), err.getvalue()


class TestNoInputEndsInATraceback:
    @given(command=st.sampled_from(SMALL_COMMANDS),
           flags=st.lists(st.sampled_from(
               [(key, value) for key, values in EXTREME_VALUES.items()
                for value in values]), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_strict_json(self, command, flags):
        argv = [*command, *(f"--{key}={value}" for key, value in flags)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), err.getvalue()
        for line in out.getvalue().splitlines():
            validate_record(strict_json(line))

    @with_examples("journal", [
        b"[" * 200_000 + b"\n",  # too deep for json.loads
        *(card_line_with(bad) + b"\n" for bad in WRONGLY_TYPED)])
    @given(journal=JOURNALS)
    @settings(max_examples=100, deadline=None)
    def test_journal_bytes(self, journal):
        code, out, err = exit_and_stdout(
            ["keystore-inspect", "--keystore", "{}"], journal)
        assert code in (0, 2, 3), err
        for line in out.splitlines():
            validate_record(strict_json(line))

    @given(body=CONFIG_BODIES)
    @settings(max_examples=60, deadline=None)
    def test_config_file_bodies(self, body):
        # --output_path= keeps the stream on stdout whatever the file says
        code, out, err = exit_and_stdout(
            ["exchange", "--trials", "1", "--target_bits", "8",
             "--output_path=", "--config", "{}"], body)
        assert code in (0, 2, 3), err
        for line in out.splitlines():
            validate_record(strict_json(line))


class TestRecordSchemas:
    def test_unknown_schema_rejected(self):
        with pytest.raises(SchemaError):
            validate_record({"schema": "kljn.bogus", "version": 1})

    def test_missing_fields_rejected(self):
        with pytest.raises(SchemaError):
            validate_record({"schema": "kljn.rate_report", "version": 1})

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError):
            validate_record({"schema": "kljn.keystore_summary", "cards": 0})

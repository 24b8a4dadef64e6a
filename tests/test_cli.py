import argparse
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
from kljnsim.adversary import AttackOutcome
from kljnsim.card import CardIdentity, Keystore, initialize_card
from kljnsim.exchange import ChannelCompromisedError, ExchangeStats
from kljnsim.noise import BANDWIDTH_RANGE, RESISTANCE_RANGE, T_EFF_RANGE
from kljnsim.records import RECORDS, SchemaError, validate_record


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

# Physics outside the domain NoiseConfig states, at which the analytic MID
# loop-current RMS is inf.
INF_LOOP_RMS = ["--r_low", "1e-30", "--r_high", "1e-29", "--bandwidth",
                "1e300"]


def assert_exit_keeps_output(argv, tmp_path, code=2,
                             earlier=b"earlier run\n"):
    """A run that exits ``code``, not 0, leaves an existing --output_path
    file ``tmp_path/out.jsonl`` with its bytes, ``earlier``, whether the
    error is found before the command runs or while it runs."""
    out = tmp_path / "out.jsonl"
    out.write_bytes(earlier)
    assert cli.main([*argv, "--output_path", str(out)]) == code
    assert out.read_bytes() == earlier
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith("out.jsonl.")]  # no temporary file left


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
        assert os.listdir(tmp_path) == ["stream.jsonl"]  # no temporary file

    def test_summary_discard_fraction_near_half(self, capsys):
        code, records = run_main(
            ["exchange", "--trials", "30", "--target_bits", "64",
             "--seed", "77"], capsys)
        assert code == 0
        assert 0.45 <= records[-1]["mean_discard_fraction"] <= 0.55

    def test_security_abort_exits_4(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ChannelCompromisedError(
                ExchangeStats(periods_run=3, alarms=3))

        monkeypatch.setattr(cli, "exchange_key", boom)
        assert cli.main(["exchange", *FAST]) == 4

    def test_security_abort_keeps_output_file(self, tmp_path, monkeypatch,
                                              capsys):
        # The first trial's record is made before the abort: stdout prints
        # it, but the output file is not replaced by a partial run.
        real = cli.exchange_key
        calls = []

        def abort_at_second_trial(*args):
            calls.append(args)
            if len(calls) % 2 == 0:
                raise ChannelCompromisedError(
                    ExchangeStats(periods_run=3, alarms=3))
            return real(*args)

        monkeypatch.setattr(cli, "exchange_key", abort_at_second_trial)
        code, records = run_main(["exchange", *FAST], capsys)
        assert code == 4
        assert [r["schema"] for r in records] == ["kljn.exchange_trial"]
        assert_exit_keeps_output(["exchange", *FAST], tmp_path, code=4)


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

    def test_mitm_summary_without_detection(self, capsys, monkeypatch):
        # No trial detected: no detection index to take the median of.
        monkeypatch.setattr(cli, "mitm_attack",
                            lambda noise, seed: AttackOutcome(None, 0, 1))
        assert cli.main(["attack", "mitm", "--trials", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for line in lines:
            validate_record(json.loads(line))
        assert '"detection_rate":0.0' in lines[-1]
        assert '"median_detection_index":null' in lines[-1]

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

    @pytest.mark.parametrize("output", ["nodir/out.jsonl", "."],
                             ids=["missing_directory", "directory"])
    def test_unwritable_output_exits_3_before_keystore(self, tmp_path,
                                                       capsys, output):
        ks = tmp_path / "ks.jsonl"
        code = cli.main([*self.ARGS, "--keystore", str(ks), "--output_path",
                         str(tmp_path / output)])
        assert code == 3
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert not ks.exists()  # no card was provisioned

    def test_rerun_on_live_keystore_exits_2(self, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        assert cli.main([*self.ARGS, "--n_sessions", "2",
                         "--keystore", str(ks)]) == 0
        journal = ks.read_bytes()
        capsys.readouterr()
        rerun = [*self.ARGS, "--n_sessions", "1", "--keystore", str(ks)]
        assert cli.main(rerun) == 2
        assert capsys.readouterr().out == ""
        assert ks.read_bytes() == journal  # the live card is not re-provisioned
        assert_exit_keeps_output(rerun, tmp_path)
        assert ks.read_bytes() == journal

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


# One valid journal line, unterminated: the card ``provisioned`` writes.
CARD_RECORD = initialize_card(
    CardIdentity("4000000000000000", "HOLDER", "12/30"), 2, 2048, 5,
)[1].to_journal()
CARD_LINE = json.dumps(CARD_RECORD).encode()


def card_line_with(fields: dict) -> bytes:
    return json.dumps({**CARD_RECORD, **fields}).encode()


# Journal field values of the wrong type or below their least value, a
# foreign schema or version, a c_hex that is not what ``to_journal``
# writes for c_len bits (among them a c_len far too large to allocate),
# and a field the card record does not have, each in an otherwise valid
# card record, and their test ids.
WRONGLY_TYPED = [
    {"card_number": [1]}, {"card_number": {"n": 4}}, {"holder_name": [1]},
    {"expiry": {"a": 1}}, {"generation": "x"}, {"generation": -5},
    {"canceled": "no"}, {"segment_len": 0}, {"cursor": True},
    {"broken_count": -3}, {"c_len": 1.0}, {"m_max": False},
    {"schema": "kljn.bogus", "version": 99}, {"version": 99},
    {"version": True}, {"c_hex": CARD_RECORD["c_hex"] + "0000"},
    # 127 of 128 bits, the unused last one set; 2 segments of 63 bits fit
    {"c_hex": CARD_RECORD["c_hex"][:-1] + "1", "c_len": 127,
     "segment_len": 63},
    {"extra": 1}, {"c_len": 10 ** 15}, {"c_hex": CARD_RECORD["c_hex"][:-2]},
    {"c_hex": "zz" + CARD_RECORD["c_hex"][2:]}]
WRONGLY_TYPED_IDS = [
    "list_number", "object_number", "list_holder", "object_expiry",
    "text_generation", "negative_generation", "text_canceled",
    "zero_segment_len", "bool_cursor", "negative_broken_count",
    "float_c_len", "bool_m_max", "bogus_schema", "unknown_version",
    "bool_version", "long_c_hex", "padding_bit_set", "extra_field",
    "huge_c_len", "short_c_hex", "non_hex_c_hex"]


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

    def test_missing_keystore_arg_exits_2(self, tmp_path, capsys):
        assert cli.main(["keystore-inspect", "--keystore", ""]) == 2
        assert_exit_keeps_output(["keystore-inspect", "--keystore", ""],
                                 tmp_path)

    def test_card_schemas_are_the_journal_fields(self, tmp_path, capsys):
        ks = self.provisioned(tmp_path)
        journal = Keystore.load(ks).records["4000000000000000"].to_journal()
        inspected = run_main(["keystore-inspect", "--keystore", str(ks)],
                             capsys)[1][0]
        for record in (journal, inspected):
            validate_record(record)
            del record["holder_name"]
            with pytest.raises(SchemaError):
                validate_record(record)

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
        assert_exit_keeps_output(["keystore-inspect", "--keystore", str(ks)],
                                 tmp_path, code=3)

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

    def test_append_cut_at_every_byte(self, tmp_path, capsys):
        """A crash may stop a journal append after any of its bytes.
        ``keystore-inspect`` reads every cut as the card before or after
        that append; ``card-lifetime`` then appends a card cleanly (exit
        0) or, onto a record cut short, refuses (exit 3) and writes
        nothing.  ``card-lifetime`` runs at the cuts at each edge of the
        three cases: none of the append, a record cut short, and the
        record without or with its newline."""
        ks = tmp_path / "ks.jsonl"
        store = Keystore(ks)
        _, record = initialize_card(CardIdentity("999", "HOLDER", "12/30"),
                                    2, 2048, 5, keystore=store)
        journal = ks.read_bytes()
        record.key_c.consume_through(0)
        record.generation += 1
        store.journal(record)
        append = ks.read_bytes()[len(journal):]

        def inspect():
            code = cli.main(["keystore-inspect", "--keystore", str(ks)])
            captured = capsys.readouterr()
            assert code == 0
            return ([json.loads(x) for x in captured.out.splitlines()],
                    "torn" in captured.err)

        after, _ = inspect()
        ks.write_bytes(journal)
        before, _ = inspect()
        assert before != after
        n = len(append)
        for cut in range(n + 1):
            ks.write_bytes(journal + append[:cut])
            torn = 0 < cut < n - 1
            assert inspect() == (before if cut < n - 1 else after, torn)
            if cut not in (0, 1, n - 2, n - 1, n):
                continue
            code = cli.main(["card-lifetime", "--n_sessions", "1",
                             "--m_max", "2", "--payload_bytes", "8",
                             "--seed", "21", "--keystore", str(ks)])
            capsys.readouterr()
            if torn:
                assert code == 3
                assert ks.read_bytes() == journal + append[:cut]
                continue
            assert code == 0
            cards, torn_after = inspect()
            assert not torn_after
            by_number = {c["card_number"]: c for c in cards[:-1]}
            assert sorted(by_number) == ["4000000000000000", "999"]
            assert by_number["999"] == (before if cut < n - 1 else after)[0]

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


class TestOutputPathNamesTheJournal:
    """A run would put its records over the --keystore journal named by
    --output_path too, losing every key C, so it exits 2 before it opens
    either file."""

    @pytest.mark.parametrize("output", ["ks.jsonl", "./ks.jsonl",
                                        "link.jsonl", "hard.jsonl"],
                             ids=["same", "dot_slash_twin", "symlink",
                                  "hard_link"])
    @pytest.mark.parametrize("command", ["card-lifetime",
                                         "keystore-inspect"])
    def test_exits_2_keeping_the_journal(self, command, output, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # another card's journal, beside which card-lifetime provisions
        journal = card_line_with({"card_number": "5000000000000000"}) + b"\n"
        (tmp_path / "ks.jsonl").write_bytes(journal)
        os.symlink("ks.jsonl", "link.jsonl")
        os.link("ks.jsonl", "hard.jsonl")
        assert cli.main([command, *TestCardLifetimeCommand.ARGS[1:],
                         "--keystore", "ks.jsonl",
                         "--output_path", output]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: --output_path")
        assert (tmp_path / "ks.jsonl").read_bytes() == journal
        assert sorted(os.listdir(tmp_path)) == ["hard.jsonl", "ks.jsonl",
                                                "link.jsonl"]

    def test_fresh_journal_is_not_created(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        argv = [*TestCardLifetimeCommand.ARGS, "--keystore", "ks.jsonl"]
        assert cli.main([*argv, "--output_path", "./ks.jsonl"]) == 2
        assert os.listdir(tmp_path) == []
        assert cli.main([*argv, "--output_path", "out.jsonl"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["ks.jsonl", "out.jsonl"]


class TestConfigHandling:
    def test_config_file_plus_cli_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 111\ntrials = 2\ntarget_bits = 32\n"
                       "# comment line\n")
        code, records = run_main(["exchange", "--config", str(cfg),
                                  "--trials", "1"], capsys)
        assert code == 0
        assert len(records) == 2  # CLI trials=1 beat the file's 2

    @pytest.mark.parametrize("config", ["out.jsonl", "./out.jsonl",
                                        "link.cfg"],
                             ids=["same", "dot_slash_twin", "symlink"])
    def test_output_path_naming_the_config_exits_2(self, config, tmp_path,
                                                   monkeypatch, capsys):
        # The records would replace the settings the next run reads.
        monkeypatch.chdir(tmp_path)
        os.symlink("out.jsonl", "link.cfg")
        assert_exit_keeps_output(["exchange", *FAST, "--config", config],
                                 tmp_path, earlier=b"trials = 1\n")
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: --output_path")
        assert "--config file" in err

    def test_settings_surface(self):
        # NoiseConfig's fields, then RunConfig's own: the keys, order and
        # types of the flags, --help and the config file.
        assert list(cli._FIELD_TYPES.items()) == [
            ("r_low", "float"), ("r_high", "float"), ("t_eff", "float"),
            ("bandwidth", "float"), ("samples_per_bit", "int"),
            ("classify_margin", "float"), ("m_max", "int"), ("trials", "int"),
            ("seed", "int"), ("output_path", "str"), ("target_bits", "int"),
            ("payload_bytes", "int"), ("amplitude", "float"),
            ("n_sessions", "int"), ("faults", "str"), ("keystore", "str")]

    @pytest.mark.parametrize("flags", [
        ["--bandwidth", "1e6"], ["--config", "{conf}"]],
        ids=["absent", "config_file"])
    def test_sample_rate_defaults_to_twice_bandwidth(self, flags, tmp_path,
                                                     capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("bandwidth = 1e6\n")
        argv = ["rate", "--target_bits", "4",
                *(arg.format(conf=conf) for arg in flags)]
        code, records = run_main(argv, capsys)
        assert code == 0
        assert records[-1]["bit_period_seconds"] == 5e-05  # 100 / 2e6

    @pytest.mark.parametrize("setting,value", [
        ("sample_rate", "4e5"), ("n_d", "2")])
    @pytest.mark.parametrize("source", ["flag", "config_key"])
    def test_derived_setting_exits_2(self, setting, value, source, tmp_path,
                                     capsys):
        # the sample rate is 2 x bandwidth and N_d the authentication's
        # sample count: neither is a setting
        conf = tmp_path / "run.cfg"
        conf.write_text(f"{setting} = {value}\n")
        given = [f"--{setting}", value] if source == "flag" \
            else ["--config", str(conf)]
        ks = tmp_path / "ks.jsonl"
        assert cli.main(["card-lifetime", "--n_sessions", "1", *given,
                         "--keystore", str(ks)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert setting in captured.err
        assert not ks.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed = 9\n")
        assert cli.main(["exchange", "--config", str(cfg)]) == 2

    def test_parser_surface(self):
        # Each command takes -h, --config, then --<key> per setting, in
        # the settings' order; attack takes its kind first.  The structure
        # is checked, not the help bytes, which vary with the Python
        # version.
        parser = cli.build_parser()
        sub, = (action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
        assert (sub.dest, sub.required) == ("command", True)
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            ("exchange", "run key-exchange trials"),
            ("attack", "run an attack study"),
            ("card-lifetime", "simulate full card sessions"),
            ("rate", "report the secure-bit rate"),
            ("keystore-inspect", "dump keystore state")]
        settings = [(f"--{key}", key, typ.upper())
                    for key, typ in cli._FIELD_TYPES.items()]
        for name, command in sub.choices.items():
            actions = list(command._actions)
            assert actions[0].option_strings == ["-h", "--help"]
            if name == "attack":
                kind = actions.pop(1)
                assert (kind.dest, kind.option_strings, kind.choices) == (
                    "kind", [], ["passive", "mitm", "injection"])
            assert (actions[1].option_strings, actions[1].help) == (
                ["--config"], "flat key=value config file")
            assert [(*a.option_strings, a.dest, a.metavar)
                    for a in actions[2:]] == settings
            assert all(a.default is None for a in actions[1:])

    def test_each_flag_declared_once(self, monkeypatch):
        # The five commands share one declaration of each flag: adding a
        # flag runs argparse's per-argument checks, so a build that adds
        # them per command pays five times for the same parser.
        declared = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *args, **kwargs):
            declared.append(args[0])
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                            counting)
        cli.build_parser()
        assert sorted(a for a in declared if a != "-h") == sorted(
            ["kind", "--config", *(f"--{key}" for key in cli._FIELD_TYPES)])

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
    # unclassifiable periods and periods with no real resistor pair
    "attack passive --trials 40 --seed 9 --r_high 2000":
        "df143a625bf13f4728d75f4183836286a45b48e92a9474b40041a6882b706baf",
    "attack mitm --trials 20 --seed 9":
        "557291890a2493b11c2572df9afde662011c358a14d3c810eda4d6454244bd5c",
    "attack injection --trials 20 --seed 9":
        "ac84aae95aa5b23cbee5dc4a0c17a5fb9e70ac9790b564a3a8b9eaf2595073bb",
    # Detection indices and bits learned vary with the seed, as the
    # default amplitude's and MITM's (all detected at sample 0) do not.
    "attack injection --trials 40 --seed 9 --amplitude 3e-6":
        "6c1424ccd514f50478e1ac622ff99dd5e62e1a894cd083bb3d309080ac270038",
    # no injection at all
    "attack injection --trials 20 --seed 9 --amplitude 0":
        "f288891d4c9042111e6d36ab6d41bef28d28d1967b359aaebf2c4586b245561d",
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
        ["card-lifetime", "--faults", "0:bogus"],
    ])
    def test_exits_2_without_output(self, argv, tmp_path, capsys):
        ks = tmp_path / "ks.jsonl"
        assert cli.main([*argv, "--keystore", str(ks)]) == 2
        assert capsys.readouterr().out == ""
        assert not ks.exists()
        assert_exit_keeps_output([*argv, "--keystore", str(ks)], tmp_path)
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
        argv = ["card-lifetime", "--n_sessions", n_sessions,
                f"--faults={faults}", "--keystore", str(ks)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
        assert not ks.exists()
        assert_exit_keeps_output(argv, tmp_path)
        assert not ks.exists()

    @pytest.mark.parametrize("faults", [
        "0:wrong_key,0:mitm_auth", "2:mitm_refresh,2:mitm_refresh",
        "1:wrong_key, 01:mitm_auth"])
    def test_fault_index_given_twice_exits_2(self, faults, tmp_path, capsys):
        # one session cannot take two faults; neither is dropped silently
        ks = tmp_path / "ks.jsonl"
        argv = ["card-lifetime", "--n_sessions", "3", f"--faults={faults}",
                "--keystore", str(ks)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "given twice" in captured.err
        assert not ks.exists()
        assert_exit_keeps_output(argv, tmp_path)
        assert not ks.exists()

    @pytest.mark.parametrize("argv,setting", [
        (["attack", "injection", "--trials", "2", *INF_LOOP_RMS, "--seed",
          "1"], "r_low"),
        (["attack", "injection", "--trials", "2", *INF_LOOP_RMS, "--seed",
          "1", "--amplitude", "1e-300"], "r_low"),
        (["attack", "injection", "--trials", "2", "--bandwidth", "1e300",
          "--amplitude", "1e200"], "amplitude"),
        (["attack", "injection", "--trials", "3", "--bandwidth", "1e300",
          "--amplitude", "1e165"], "amplitude"),
        (["attack", "injection", "--trials", "3", "--bandwidth", "1e300"],
         "bandwidth"),
        (["attack", "injection", "--amplitude", "1e300", "--trials", "2"],
         "amplitude"),
        (["exchange", "--r_high", "1e300", "--trials", "2"], "r_high"),
        (["attack", "passive", "--r_high", "1e300", "--trials", "2"],
         "r_high"),
        (["rate", "--r_high", "1.7e308"], "r_high"),
    ], ids=["inf_loop_rms", "inf_loop_rms_tiny_amplitude",
            "product_overflows", "inf_injection_draws", "bandwidth_1e300",
            "injection_amplitude_1e300", "exchange_r_high_1e300",
            "passive_r_high_1e300", "levels_out_of_float_range"])
    def test_outside_physics_domain_exits_2(self, argv, setting, tmp_path,
                                            capsys):
        # Outside the domain a run could draw +-inf samples or NaN spectra
        # and report an exchange or attack that was never simulated.
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: {setting} must ")
        assert_exit_keeps_output(argv, tmp_path)

    @pytest.mark.parametrize("command", [
        ["exchange"], ["rate"], ["attack", "passive"], ["attack", "mitm"],
        ["attack", "injection"], ["card-lifetime", "--keystore", ""],
        ["keystore-inspect", "--keystore", "ks.jsonl"]],
        ids=["exchange", "rate", "passive", "mitm", "injection",
             "card_lifetime", "keystore_inspect"])
    def test_physics_outside_domain_exits_2_for_every_command(self, command,
                                                              capsys):
        assert cli.main([*command, *INF_LOOP_RMS]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: r_low must ")

    def test_setting_a_command_does_not_read_is_not_checked(self, capsys):
        assert cli.main(["exchange", "--faults", "bogus", "--trials", "1",
                         "--target_bits", "8"]) == 0
        assert capsys.readouterr().err == ""

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
        conf.write_text("bandwidth = inf\n")
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

    @pytest.mark.parametrize("flags,message", [
        (["--m_max", "10001"], "m_max must be <= 10000"),
        (["--m_max", "1000000000"], "m_max must be <= 10000"),
        (["--payload_bytes", "1601"],
         "payload_bytes x samples_per_bit must be <= 160000"),
        (["--payload_bytes", "17", "--samples_per_bit", "10000"],
         "payload_bytes x samples_per_bit must be <= 160000"),
        (["--payload_bytes", "1000000000"],
         "payload_bytes x samples_per_bit must be <= 160000"),
        (["--n_sessions", "100001"], "n_sessions must be <= 100000"),
    ], ids=["m_max_one_over", "m_max_1e9", "payload_one_over",
            "payload_at_max_samples", "payload_1e9",
            "n_sessions_one_over"])
    def test_size_above_bound_exits_2(self, flags, message, tmp_path,
                                      capsys):
        # rejected while the config is built: no card is provisioned and
        # no key C or trace is allocated
        ks = tmp_path / "ks.jsonl"
        assert cli.main(["card-lifetime", *flags, "--keystore",
                         str(ks)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert not ks.exists()

    @pytest.mark.parametrize("flags", [
        ["--m_max", "10000"], ["--n_sessions", "100000"],
        ["--payload_bytes", "1600"],
        ["--payload_bytes", "16", "--samples_per_bit", "10000"]],
        ids=["m_max", "n_sessions", "payload", "payload_at_max_samples"])
    def test_size_at_bound_is_accepted(self, flags):
        # built only: running at these sizes would take minutes
        cli.build_config(cli.build_parser().parse_args(["card-lifetime",
                                                         *flags]))

    def test_non_finite_record_is_not_written(self, capsys):
        with pytest.raises(cli.ConfigError, match="non-finite"):
            cli.Emitter("").emit("rate_report", float("inf"), 1000.0, 5e-4,
                                 256, 550, 0.0275, 0.1, 1.0)
        assert capsys.readouterr().out == ""

    def test_non_finite_record_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_round", lambda x, digits=10: math.nan)
        assert cli.main(["rate", "--target_bits", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_unclassifiable_passive_period_gives_no_guess(self, capsys):
        code, records = run_main(["attack", "passive", "--trials", "20",
                                  "--classify_margin", "0.01"], capsys)
        assert code == 0
        blind = [r for r in records[:-1] if r["loop_class"] is None]
        assert blind
        assert not any(r["assignment_correct"] for r in blind)
        assert all(r["pair_low"] is None for r in blind)

    @pytest.mark.parametrize("command", ["exchange", "rate"])
    def test_exchange_that_cannot_converge_exits_2(self, command, tmp_path,
                                                   capsys):
        argv = [command, "--r_high", "1000.001", "--trials", "1",
                "--target_bits", "16"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "did not converge" in captured.err
        assert_exit_keeps_output(argv, tmp_path)


EXTREME_VALUES = {
    "r_low": ["1e-300", "1e-6", "1", "1e15", "1e100", "1e300"],
    "r_high": ["1e-299", "1e-6", "1100", "1e15", "1e150", "1e300",
               "1.7e308"],
    "t_eff": ["1e-300", "1e-6", "1", "1e24", "1e300"],
    "bandwidth": ["1e-300", "1e-6", "1e-5", "1e15", "1e300"],
    "classify_margin": ["0.001", "0.01", "0.99"],
    "amplitude": ["0", "1e-300", "1e6", "1e200", "1e308"],
    "m_max": ["10001", "1000000000"],
    "payload_bytes": ["1601", "1000000000"],
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


@pytest.mark.parametrize("bandwidth", BANDWIDTH_RANGE)
@pytest.mark.parametrize("t_eff", T_EFF_RANGE)
@pytest.mark.parametrize("command", SMALL_COMMANDS,
                         ids=lambda argv: "_".join(argv[:2]))
def test_physics_domain_corner_runs_clean(command, t_eff, bandwidth,
                                          capsys):
    """Every command runs at each corner of the physics domain, its
    resistances the domain's two ends and the injection at its largest
    amplitude.  No number leaves float range: the suite turns a numpy
    RuntimeWarning into an error."""
    r_low, r_high = RESISTANCE_RANGE
    assert cli.main(
        [*command, f"--r_low={r_low!r}", f"--r_high={r_high!r}",
         f"--t_eff={t_eff!r}", f"--bandwidth={bandwidth!r}",
         f"--amplitude={cli._BOUNDS['amplitude'][1]!r}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for line in captured.out.splitlines():
        validate_record(strict_json(line))


# The strategies that damage one valid journal line, CARD_LINE.
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
    st.tuples(st.sampled_from(list(RECORDS["card_record"].fields)),
              ANY_JSON).map(
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


def valid_value(kind):
    """A value of ``kind``, in the notation of ``records.RECORDS``."""
    if isinstance(kind, tuple):  # alternatives
        return valid_value(kind[0])
    if isinstance(kind, (int, str)):  # a count's least value, or the value
        return kind
    return {str: "x", bool: False, float: 0.5, list: [0, 1]}[kind]


def wrong_values(kind) -> list:
    """Values of another type than ``kind``, below its least count, or
    other than its one value."""
    if isinstance(kind, tuple):
        return [v for v in wrong_values(kind[0]) if v is not None]
    if isinstance(kind, str):
        return [kind + "x", "", 1, None]
    if isinstance(kind, int):
        return [kind - 1, True, float(kind), str(kind), None]
    return {str: [1, None, ["x"]], bool: [1, 0, None, "true"],
            float: [1, None, "0.5"], list: [{}, "x", None]}[kind]


# One valid record per table entry, built from its field kinds.
VALID_RECORDS = {name: layout.record(tuple(map(valid_value,
                                               layout.fields.values())))
                 for name, layout in RECORDS.items()}
VALID_BODIES = st.sampled_from(list(VALID_RECORDS.values()))
# Arbitrary JSON as whole records, as the schema and version, and as one
# field of an otherwise valid record.
RECORD_LIKE = st.one_of(
    ANY_JSON,
    st.builds(lambda schema, version: {"schema": schema,
                                       "version": version},
              ANY_JSON, ANY_JSON),
    st.builds(lambda body, schema, version: {**body, "schema": schema,
                                             "version": version},
              VALID_BODIES, ANY_JSON, ANY_JSON),
    VALID_BODIES.flatmap(lambda body: st.builds(
        lambda key, value: {**body, key: value},
        st.sampled_from(list(body)) | st.text(max_size=4), ANY_JSON)))


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

    @pytest.mark.parametrize("record", [
        {"schema": [1], "version": 1},
        {"schema": {"kljn": 1}, "version": 1},
        {"schema": "kljn.keystore_summary", "version": True, "cards": 0},
        {"schema": "kljn.keystore_summary", "version": 1.0, "cards": 0},
        {"schema": "kljn.keystore_summary", "version": 2, "cards": 0}],
        ids=["list_schema", "object_schema", "bool_version",
             "float_version", "unknown_version"])
    def test_bad_header_rejected(self, record):
        with pytest.raises(SchemaError):
            validate_record(record)

    @given(record=RECORD_LIKE)
    @settings(max_examples=300, deadline=None)
    def test_any_json_is_a_record_or_a_schema_error(self, record):
        try:
            name = validate_record(record)
        except SchemaError:
            return
        assert name in RECORDS

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_built_from_its_entry_is_valid(self, name):
        assert validate_record(VALID_RECORDS[name]) == name
        assert validate_record(VALID_RECORDS[name], [name]) == name

    @pytest.mark.parametrize("change", ["added", "removed", "mistyped",
                                        "non_finite"])
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_one_field_changed_is_rejected(self, name, change):
        record, fields = VALID_RECORDS[name], RECORDS[name].fields
        if change == "added":
            changed = [{**record, "extra": 1}]
        elif change == "removed":
            changed = [{k: v for k, v in record.items() if k != key}
                       for key in fields]
        elif change == "non_finite":  # what lax json.loads makes of NaN
            changed = [{**record, key: bad}
                       for key, kind in fields.items()
                       if kind in (float, (float, None))
                       for bad in (math.nan, math.inf, -math.inf)]
        else:
            changed = [{**record, key: wrong}
                       for key, kind in fields.items()
                       for wrong in wrong_values(kind)]
        for bad in changed:
            with pytest.raises(SchemaError):
                validate_record(bad)

    @pytest.mark.parametrize("name,field,value", [
        ("passive_trial", "kind", "injection"),
        ("active_trial", "kind", "passive"),
        ("mitm_summary", "kind", "injection"),
        ("injection_summary", "kind", "mitm"),
        ("passive_summary", "kind", "mitm"),
        ("session", "status", "refused"),
        ("refused_session", "status", "closed")])
    def test_value_of_another_layout_is_rejected(self, name, field, value):
        """Layouts of one schema are told apart by their fields' names and
        by the values of ``kind`` or ``status``."""
        with pytest.raises(SchemaError):
            validate_record({**VALID_RECORDS[name], field: value})

    def test_every_entry_is_written(self, tmp_path, capsys):
        """An entry that no command writes is dead.  The streams of
        SMALL_COMMANDS, of a card lifetime whose card is cancelled and then
        refused, of keystore-inspect on its keystore, and that keystore's
        journal lines, together use every entry."""
        ks = str(tmp_path / "ks.jsonl")
        names = set()
        for argv in [*SMALL_COMMANDS,
                     ["card-lifetime", "--n_sessions", "2", "--m_max", "1",
                      "--payload_bytes", "1", "--faults", "0:wrong_key",
                      "--keystore", ks],
                     ["keystore-inspect", "--keystore", ks]]:
            code, records = run_main(argv, capsys)
            assert code == 0
            names.update(map(validate_record, records))
        with open(ks, encoding="utf-8") as fh:
            names.update(validate_record(json.loads(line)) for line in fh)
        assert names == set(RECORDS)

"""Tests for the CLI and the export formats."""

import csv
import io
import json

import pytest

from repro.analysis.evaluator import evaluate_all_vendors
from repro.analysis.export import evaluation_to_dict, to_csv, to_json, to_markdown
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def evaluations():
    return evaluate_all_vendors(seed=3)


class TestExports:
    def test_json_roundtrip(self, evaluations):
        payload = json.loads(to_json(evaluations))
        assert payload["exact_reproduction"] is True
        assert len(payload["table"]) == 10
        assert payload["prevalence"]["A2"] == 6
        first = payload["table"][0]
        assert first["vendor"] == "Belkin"
        assert first["attacks"]["A3-2"]["outcome"] == "yes"

    def test_csv_parses_with_ten_rows(self, evaluations):
        rows = list(csv.reader(io.StringIO(to_csv(evaluations))))
        assert rows[0][0] == "vendor"
        assert len(rows) == 11
        assert rows[8][0] == "TP-LINK"
        assert rows[8][7] == "A3-1 & A3-4"  # the A3 column
        assert rows[8][8] == "A4-3"

    def test_markdown_table_shape(self, evaluations):
        text = to_markdown(evaluations)
        lines = text.splitlines()
        assert lines[0].startswith("| #")
        assert len(lines) == 12  # header + rule + 10 vendors
        assert all(line.count("|") == 11 for line in lines if line.startswith("|"))

    def test_evaluation_dict_fields(self, evaluations):
        record = evaluation_to_dict(evaluations[0])
        assert set(record) == {"vendor", "device", "cells", "matches_paper", "attacks"}
        assert record["matches_paper"] is True


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_table1(self, capsys):
        code, out = self.run(["table1"], capsys)
        assert code == 0 and "DevToken" in out

    def test_table2(self, capsys):
        code, out = self.run(["table2"], capsys)
        assert code == 0 and "A4-3" in out

    def test_table3_text_and_formats(self, capsys):
        code, out = self.run(["table3"], capsys)
        assert code == 0 and "exact reproduction" in out
        code, out = self.run(["table3", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["exact_reproduction"]
        code, out = self.run(["table3", "--format", "markdown"], capsys)
        assert code == 0 and out.startswith("| #")

    def test_figures(self, capsys):
        for command, marker in (
            (["fig1", "--vendor", "TP-LINK"], "Bind:(DevId,UserId,UserPw)"),
            (["fig2"], "model properties"),
            (["fig3"], "Status:Signed"),
            (["fig4"], "Bind:BindToken"),
        ):
            code, out = self.run(command, capsys)
            assert code == 0 and marker in out, command

    def test_attack_command(self, capsys):
        code, out = self.run(["attack", "OZWI", "A4-2"], capsys)
        assert code == 0 and "yes" in out

    def test_audit_command(self, capsys):
        code, out = self.run(["audit", "TP-LINK"], capsys)
        assert code == 0 and "credential-on-device" in out

    def test_entropy_command(self, capsys):
        code, out = self.run(["entropy", "--rate", "300"], capsys)
        assert code == 0 and "mac-address" in out

    def test_sweep_command(self, capsys):
        code, out = self.run(["sweep"], capsys)
        assert code == 0 and "design space" in out

    def test_secure_command(self, capsys):
        code, out = self.run(["secure"], capsys)
        assert code == 0 and "Secure-Capability" in out

    def test_witness_command(self, capsys):
        code, out = self.run(["witness", "TP-LINK"], capsys)
        assert code == 0 and "unbind-type2 -> bind" in out

    def test_fix_command(self, capsys):
        code, out = self.run(["fix", "E-Link Smart"], capsys)
        assert code == 0 and "simulation re-check: pass" in out

    def test_fix_command_on_secure_vendor(self, capsys):
        code, out = self.run(["fix", "Philips Hue"], capsys)
        assert code == 0 and "already defeats" in out

    def test_campaign_repeats_warm_start_in_one_pool(self, capsys):
        code, out = self.run(
            ["campaign", "--mode", "mass-unbind", "--workers", "2", "--households",
             "8", "--probes", "16", "--repeat", "2", "--format", "json"], capsys,
        )
        pool = json.loads(out)["report"]["pool"]
        assert code == 0 and (pool["cold_builds"], pool["warm_starts"]) == (2, 2)

    def test_designs_diff_json_matches_the_text_header(self, capsys):
        argv = ["designs", "diff", "--limit", "64"]
        code, text = self.run(argv, capsys)
        json_code, out = self.run(argv + ["--format", "json"], capsys)
        data = json.loads(out)
        assert code == json_code == 0
        space, agreement = text.splitlines()[:2]
        assert space == (
            f"policy design space: {data['policies']} consistent policies, "
            f"{data['distinct_specs']} distinct rule sets"
        )
        assert agreement.startswith(
            f"  oracle agreement: {data['agreements']}/{data['policies']} policies"
        )
        assert data["policies"] == 64

    def test_unknown_vendor_is_an_error(self, tmp_path, capsys):
        for argv in (
            ["attack", "NoSuch", "A1"],
            ["audit", "NoSuch"],
            ["fix", "NoSuch"],
            ["witness", "NoSuch"],
            ["fig1", "--vendor", "NoSuch"],
            ["obs", "--vendor", "NoSuch"],
            ["slo", "--vendor", "NoSuch"],
            ["campaign", "--vendor", "NoSuch"],
            ["chaos", "run", "lossy-lan", "--vendor", "NoSuch"],
            ["detect", "--vendor", "NoSuch"],
            ["snapshot", "save", str(tmp_path / "cloud.json"),
             "--vendor", "NoSuch"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            # one plain line: the message, not the repr of a KeyError
            assert captured.err.startswith("error: unknown vendor 'NoSuch'; "), argv
            assert captured.err.count("\n") == 1, argv

    def test_a_bug_is_not_reported_as_a_user_error(self, monkeypatch):
        def broken():
            raise KeyError("a bug, not a typo")

        monkeypatch.setattr("repro.analysis.surface.render_table_ii", broken)
        with pytest.raises(KeyError):
            main(["table2"])

    @pytest.mark.parametrize("action", ["load", "inspect"])
    def test_non_json_snapshot_is_an_error(self, action, tmp_path, capsys):
        path = tmp_path / "not-a-snapshot.json"
        path.write_text("not json {")
        code = main(["snapshot", action, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def saved_snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("snapshot") / "cloud.json"
        assert main(["snapshot", "save", str(path), "--vendor", "OZWI",
                     "--households", "2"]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("mutate, named", [
        (lambda first, records: first.pop("seq"), "'seq'"),
        (lambda first, records: first.pop("kind"), "'kind'"),
        (lambda first, records: first.update(color="red"), "'color'"),
        (lambda first, records: first.update(seq="x"), "'x'"),
        (lambda first, records: records[-1].update(seq=len(records) + 4), "gap"),
    ], ids=["missing-seq", "missing-kind", "unknown-field", "bad-seq", "seq-gap"])
    def test_malformed_forensic_record_is_an_error(
        self, saved_snapshot, mutate, named, tmp_path, capsys
    ):
        data = json.loads(json.dumps(saved_snapshot))
        records = data["stores"]["forensics"]
        mutate(records[0], records)
        path = tmp_path / "bad-forensics.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["snapshot", "load", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: forensics record") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("store, mutate, named", [
        ("tokens", lambda records: records[0].update(kind="bogus"), "'bogus'"),
        ("bindings", lambda records: records[0].pop("user_id"), "'user_id'"),
        ("events", lambda records: records.append({
            "type": "event", "user_id": "u", "index": 3, "time": 0.0,
            "kind": "binding-created", "device_id": "d", "detail": "",
        }), "gap"),
    ], ids=["token-kind", "binding-no-user", "event-gap"])
    def test_malformed_store_record_is_an_error(
        self, saved_snapshot, store, mutate, named, tmp_path, capsys
    ):
        data = json.loads(json.dumps(saved_snapshot))
        mutate(data["stores"][store])
        path = tmp_path / f"bad-{store}.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["snapshot", "load", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {store} record") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("document, named", [
        ([1, 2], "JSON object"),
        ({"version": 2, "design": "OZWI", "stores": {"bindings": 5}},
         "'bindings'"),
        ({"version": 2, "design": "OZWI", "stores": {"bindings": [5]}},
         "'bindings'"),
        ({"version": 2, "design": "OZWI"}, "'stores'"),
        ({"version": 2, "design": "OZWI", "stores": [1]}, "'stores'"),
        ({"version": 2, "design": "OZWI", "time": "x", "stores": {}}, "'time'"),
        ({"version": 1, "design": "OZWI"}, "version 1"),
        ({"version": 2, "stores": {}}, "'design'"),
        ({"version": 2, "design": 7, "stores": {}}, "'design'"),
    ], ids=["top-level-list", "section-not-list", "record-not-object",
            "no-stores", "stores-list", "bad-time", "version-1", "no-design",
            "design-not-a-name"])
    @pytest.mark.parametrize("action", ["load", "inspect"])
    def test_malformed_snapshot_document_is_an_error(
        self, action, document, named, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(["snapshot", action, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: snapshot") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["campaign", "--probes", "-3"], "--probes"),
        (["campaign", "--max-spans", "-1"], "--max-spans"),
        (["obs", "--probes", "-3"], "--probes"),
        (["detect", "--probes", "-3"], "--probes"),
        (["slo", "--seconds", "-1"], "--seconds"),
        (["slo", "--objective", "1.5"], "objective"),
        (["slo", "--objective", "0"], "objective"),
        (["slo", "--objective", "-2"], "objective"),
        (["slo", "--objective", "nan"], "objective"),
        (["slo", "--latency-us", "-1"], "latency threshold"),
        (["slo", "--latency-us", "0"], "latency threshold"),
        (["slo", "--latency-us", "nan"], "latency threshold"),
        (["chaos", "run", "lossy-lan", "--seconds", "-1"], "--seconds"),
        (["chaos", "run"], "chaos run needs a fault plan"),
        (["chaos", "describe"], "chaos describe needs a fault plan"),
        (["snapshot", "save", "unused.json", "--run-seconds", "-4"],
         "--run-seconds"),
        (["campaign", "--intensity", "-1"], "--intensity"),
        (["entropy", "--rate", "0"], "--rate"),
        (["designs", "list", "--limit", "-1"], "--limit"),
        (["fuzz", "run", "--budget", "-1"], "--budget"),
        (["campaign", "--repeat", "0"], "--repeat"),
        (["snapshot", "load", "{tmp}/missing.json"], "No such file"),
        (["snapshot", "inspect", "{tmp}"], "Is a directory"),
        (["snapshot", "save", "{tmp}/missing/cloud.json", "--households", "1"],
         "No such file"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_bad_argument_is_an_error(self, argv, named, tmp_path, capsys):
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

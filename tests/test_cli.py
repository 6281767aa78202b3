import json
import re
import subprocess
import sys

import pytest

from thetanulls import cli, verify
from thetanulls.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    return code, json.loads(out)


class TestEnumerate:
    def test_g6(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--genus", "6"])
        assert code == 0
        assert rep["even"] == 2080
        assert rep["odd"] == 2016
        assert rep["vanishing"] == 364
        assert rep["classes"] == 4096

    def test_g3(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--genus", "3"])
        assert code == 0
        assert (rep["even"], rep["odd"], rep["vanishing"]) == (36, 28, 1)

    def test_g1_has_no_class_fields(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--genus", "1"])
        assert code == 0
        assert (rep["even"], rep["odd"]) == (3, 1)
        assert "vanishing" not in rep

    def test_parity_filter(self, capsys):
        code, rep = run_json(capsys,
                             ["enumerate", "--genus", "4", "--parity", "odd"])
        assert code == 0
        assert rep["odd"] == 120
        assert "even" not in rep

    def test_genus_cap(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "--genus", "9"])
        assert code == 3
        assert "genus" in err

    def test_config_and_version_embedded(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--genus", "2"])
        assert code == 0
        assert rep["config"]["command"] == "enumerate"
        assert rep["config"]["genus"] == 2
        assert rep["version"]


class TestClassify:
    def _write(self, tmp_path, chars, g=6):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"g": g, "chars": chars}))
        return str(path)

    def test_a2_sample(self, capsys, tmp_path):
        chars = [[0] * 12,
                 [1] + [0] * 11,
                 [0, 1] + [0] * 10,
                 [0, 0, 1] + [0] * 9]
        path = self._write(tmp_path, chars)
        code, rep = run_json(capsys,
                             ["classify", "--genus", "6", "--input", path])
        assert code == 0
        assert rep["label"] == "A2"
        assert rep["delta_label"] == "A2"
        assert rep["span_dim"] == 3
        assert rep["noncommuting_pairs"] == 0
        assert rep["base_independent"] is True

    def test_duplicate_exits_2(self, capsys, tmp_path):
        z = [0] * 12
        e1 = [1] + [0] * 11
        e2 = [0, 1] + [0] * 10
        path = self._write(tmp_path, [z, z, e1, e2])
        code, _, _ = run_cli(capsys, ["classify", "--input", path])
        assert code == 2

    def test_odd_characteristic_exits_3(self, capsys, tmp_path):
        z = [0] * 12
        odd = [1] + [0] * 5 + [1] + [0] * 5
        e1 = [1] + [0] * 11
        e2 = [0, 1] + [0] * 10
        path = self._write(tmp_path, [z, odd, e1, e2])
        code, _, _ = run_cli(capsys, ["classify", "--input", path])
        assert code == 3

    def test_genus_flag_mismatch(self, capsys, tmp_path):
        chars = [[0] * 12, [1] + [0] * 11, [0, 1] + [0] * 10,
                 [1, 1] + [0] * 10]
        path = self._write(tmp_path, chars)
        code, _, _ = run_cli(capsys,
                             ["classify", "--genus", "3", "--input", path])
        assert code == 2


class TestOtherSubcommands:
    def test_orbit_census(self, capsys):
        code, rep = run_json(capsys, ["orbit-census", "--genus", "2"])
        assert code == 0
        assert rep["counts"] == {"A1": 15, "A2": 0, "A3": 180, "A4": 15}
        assert rep["orbit_consistent"] is True

    def test_orbit_census_cap(self, capsys):
        code, _, _ = run_cli(capsys, ["orbit-census", "--genus", "4"])
        assert code == 3

    def test_hyperelliptic_counts(self, capsys):
        code, rep = run_json(capsys,
                             ["hyperelliptic", "counts", "--genus", "3"])
        assert code == 0
        assert (rep["even"], rep["odd"]) == (36, 28)

    def test_hyperelliptic_vanishing(self, capsys):
        code, rep = run_json(capsys,
                             ["hyperelliptic", "vanishing", "--genus", "3"])
        assert code == 0
        assert rep["count"] == 1
        assert rep["classes"] == [[]]

    def test_hyperelliptic_cut(self, capsys):
        code, rep = run_json(capsys, ["hyperelliptic", "cut", "--genus", "6",
                                      "--points", "1,2,3,4"])
        assert code == 0
        assert rep["count"] == 4
        assert [r["labels"] for r in rep["characteristics"]] == [
            [2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]

    def test_hyperelliptic_cut_needs_points(self, capsys):
        code, _, _ = run_cli(capsys,
                             ["hyperelliptic", "cut", "--genus", "6"])
        assert code == 2

    def test_bielliptic_verify(self, capsys):
        code, rep = run_json(capsys, ["bielliptic", "verify"])
        assert code == 0
        assert rep["all_ok"] is True
        assert [w["expected"] for w in rep["witnesses"]] == \
            ["A1", "A2", "A3", "A4"]

    def test_bielliptic_failing_witness_exits_1(self, capsys, monkeypatch):
        rows = [{"expected": "A1", "got": "A2", "ok": False}]
        monkeypatch.setattr(cli, "verify_witnesses", lambda: rows)
        code, rep = run_json(capsys, ["bielliptic", "verify"])
        assert code == 1
        assert rep["all_ok"] is False

    def test_non_finite_report_exits_3(self, capsys, monkeypatch):
        rows = [{"ok": True, "value": float("nan")}]
        monkeypatch.setattr(cli, "verify_witnesses", lambda: rows)
        code, out, err = run_cli(capsys, ["bielliptic", "verify"])
        assert code == 3
        assert out == ""
        assert "non-finite" in err


def _timing_criterion(number, ok):
    def criterion(seed=0):
        return {"criterion": number, "name": f"stub {number}", "pass": ok}
    return criterion


class TestVerifyAll:
    def test_one_stderr_line_per_criterion(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CRITERIA", [_timing_criterion(1, True),
                                                 _timing_criterion(2, False)])
        code, out, err = run_cli(capsys, ["verify-all", "--seed", "7"])
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(r"criterion  1 stub 1: pass \(\d+\.\d\ds\)",
                            lines[0])
        assert re.fullmatch(r"criterion  2 stub 2: FAIL \(\d+\.\d\ds\)",
                            lines[1])
        rep = json.loads(out)
        assert rep["seed"] == 7
        assert rep["all_pass"] is False
        assert [c["criterion"] for c in rep["criteria"]] == [1, 2]
        assert rep == {**verify.run_all(7), "config": rep["config"]}


class TestTheta:
    def test_eval(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[0.0]], "im": [[1.0]]}, "k": [0, 0]}))
        code, rep = run_json(capsys, ["theta", "eval", "--input", str(path),
                                      "--eps", "1e-12"])
        assert code == 0
        assert rep["value"][0] == pytest.approx(1.0864348112133082, abs=1e-12)
        assert rep["bound"] < 1e-10

    def test_transform(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[0]], "B": [[-1]], "C": [[1]], "D": [[0]]},
             "z": {"g": 1, "re": [[0.3]], "im": [[1.2]]}, "k": [1, 0]}))
        code, rep = run_json(capsys, ["theta", "transform",
                                      "--input", str(path), "--eps", "1e-8"])
        assert code == 0
        assert rep["pass"] is True
        assert rep["moved_k"] == [0, 1]

    def test_split(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"blocks": [
            {"z": {"g": 1, "re": [[0.0]], "im": [[1.0]]}, "k": [0, 0]},
            {"z": {"g": 1, "re": [[0.0]], "im": [[1.5]]}, "k": [1, 0]}]}))
        code, rep = run_json(capsys, ["theta", "split", "--input", str(path)])
        assert code == 0
        assert rep["pass"] is True

    def test_transform_non_integral_block_exits_2(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[1.5]], "B": [[0]], "C": [[0]], "D": [[1]]},
             "z": {"g": 1, "re": [[0.3]], "im": [[1.2]]}, "k": [1, 0]}))
        code, out, err = run_cli(capsys, ["theta", "transform",
                                          "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "block A" in err

    def test_transform_relation_overflowing_int64_exits_3(self, capsys,
                                                          tmp_path):
        # A^T D - C^T B = 2^64 + 1 wraps to 1 in int64 arithmetic
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[2 ** 32]], "B": [[-1]], "C": [[1]],
                   "D": [[2 ** 32]]},
             "z": {"g": 1, "re": [[0.3]], "im": [[1.2]]}, "k": [1, 0]}))
        code, out, err = run_cli(capsys, ["theta", "transform",
                                          "--input", str(path)])
        assert code == 3
        assert out == ""
        assert "A^T D - C^T B" in err

    @pytest.mark.parametrize("blocks", [[5], [None], ["z"]])
    def test_split_block_not_an_object_exits_2(self, capsys, tmp_path,
                                               blocks):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"blocks": blocks}))
        code, _, _ = run_cli(capsys, ["theta", "split", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_eps_must_be_finite_positive(self, capsys, tmp_path, eps):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[0.0]], "im": [[1.0]]}, "k": [0, 0]}))
        code, out, _ = run_cli(capsys, ["theta", "eval", "--input", str(path),
                                        f"--eps={eps}"])
        assert code == 2
        assert out == ""

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["theta", "eval", "--input",
                                      str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run_cli(capsys, ["theta", "eval", "--input", str(path)])
        assert code == 2

    def test_indefinite_z_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[0.0]], "im": [[-1.0]]}, "k": [0, 0]}))
        code, _, _ = run_cli(capsys, ["theta", "eval", "--input", str(path)])
        assert code == 3


class TestTransversal:
    def test_report(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 6, "nodes": [str(x) for x in range(1, 15)]}))
        code, rep = run_json(capsys,
                             ["transversal", "--genus", "6",
                              "--nodes", str(path), "--points", "1,2,3,4"])
        assert code == 0
        assert rep["rank"] == 4
        assert rep["pass"] is True

    def test_bad_fraction(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 6, "nodes": ["1/0"] + [str(x) for x in range(2, 15)]}))
        code, _, _ = run_cli(capsys,
                             ["transversal", "--genus", "6",
                              "--nodes", str(path), "--points", "1,2,3,4"])
        assert code == 2


class TestOutputFile:
    def test_write_to_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, ["--output", str(out),
                                           "enumerate", "--genus", "2"])
        assert code == 0
        assert stdout == ""
        rep = json.loads(out.read_text())
        assert rep["even"] == 10

    def test_same_config_same_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, ["--output", str(a), "enumerate", "--genus", "5"])
        run_cli(capsys, ["--output", str(b), "enumerate", "--genus", "5"])
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetanulls.cli", "enumerate", "--genus", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert (rep["even"], rep["odd"]) == (3, 1)

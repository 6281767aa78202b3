import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from thetanulls import cli, verify
from thetanulls.cli import main
from thetanulls.hyperelliptic import char_to_partition, h0, std_labeling
from thetanulls.quadforms import all_characteristics, parity

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, argv, code=2):
    """The call exits with code, one error line on stderr and no stdout."""
    got, out, err = run_cli(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


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

    def test_report_fields_are_json_ints(self, tmp_path):
        # one quadruple per class at g = 6, e_i = bit i - 1, f_i = bit i + 5
        e1, e2, e3, f1, f2 = ([int(j == i) for j in range(12)]
                              for i in (0, 1, 2, 6, 7))
        zero = [0] * 12

        def add(*vs):
            return [sum(bits) % 2 for bits in zip(*vs)]
        quads = {"A1": [zero, e1, e2, add(e1, e2)],
                 "A2": [zero, e1, e2, e3],
                 "A3": [zero, e1, f1, e2],
                 "A4": [zero, e1, f1, add(e1, f1, e2, f2)]}
        want = {"A1": (2, 0, [0, 0, 0, 0]), "A2": (3, 0, [0, 0, 0, 0]),
                "A3": (3, 1, [1, 0, 0, 1]), "A4": (3, 3, [1, 1, 1, 1])}
        for label, chars in quads.items():
            path = self._write(tmp_path, chars)
            args = cli.build_parser().parse_args(["classify", "--input", path])
            rep = cli.cmd_classify(args)
            assert rep["label"] == label
            fields = {key: rep[key] for key in
                      ("span_dim", "noncommuting_pairs", "delta_parities")}
            assert json.loads(json.dumps(fields)) == fields
            assert type(rep["span_dim"]) is int
            assert type(rep["noncommuting_pairs"]) is int
            assert all(type(d) is int for d in rep["delta_parities"])
            assert tuple(fields.values()) == want[label]

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

    @pytest.mark.parametrize("points", ["1_0,2", "\u0663,4", "\uff13,4",
                                        "+1,2", "-1,2", ",1,,2,", "1,,2",
                                        "1,2,"])
    def test_hyperelliptic_cut_refuses_non_ascii_digits(self, capsys,
                                                        points):
        err = assert_refused(capsys, ["hyperelliptic", "cut", "--genus", "4",
                                      f"--points={points}"])
        assert "bad point list" in err

    @pytest.mark.parametrize("genus, points, bad", [
        ("3", "9", "9"), ("3", "0", "0"), ("3", "123456789", "123456789"),
        ("4", "1,99", "99")])
    def test_hyperelliptic_cut_refuses_a_label_outside_w(self, capsys, genus,
                                                         points, bad):
        # at g = 3 S has one label, and no class T_k = S - {k} holds it
        err = assert_refused(capsys, ["hyperelliptic", "cut", "--genus",
                                      genus, "--points", points])
        assert err == f"error: label {bad} outside 1..{2 * int(genus) + 2}\n"

    def test_hyperelliptic_cut_blank_list_is_empty_s(self, capsys):
        code, rep = run_json(capsys, ["hyperelliptic", "cut", "--genus", "2",
                                      "--points", " "])
        assert code == 0
        assert rep["S"] == [] and rep["count"] == 0

    def test_hyperelliptic_cut_allows_spaces(self, capsys):
        code, rep = run_json(capsys, ["hyperelliptic", "cut", "--genus", "4",
                                      "--points", " 1 , 2 "])
        assert code == 0
        assert rep["S"] == [1, 2]

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

    def test_negative_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CRITERIA", [_timing_criterion(1, True)])
        err = assert_refused(capsys, ["verify-all", "--seed", "-1"])
        assert "--seed" in err


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

    def test_eval_huge_real_part_within_its_bound(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[1e6]], "im": [[1.0]]}, "k": [0, 0]}))
        code, rep = run_json(capsys, ["theta", "eval", "--input", str(path),
                                      "--eps", "1e-12"])
        assert code == 0
        err = abs(complex(*rep["value"]) - math.pi ** 0.25 / math.gamma(0.75))
        assert err <= rep["bound"]

    def test_eval_asymmetric_imaginary_under_huge_real_exits_3(
            self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 2, "re": [[1e12, 0], [0, 0]],
                   "im": [[1, 0.5], [0.1, 1]]}, "k": [0, 0, 0, 0]}))
        err = assert_refused(capsys, ["theta", "eval", "--input", str(path)],
                             code=3)
        assert "not symmetric" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("action", ["eval", "transform"])
    def test_z_from_2_to_the_1023_on_exits_3(self, capsys, tmp_path,
                                             action):
        # Z + Z^T = 2e308 is inf: refused, where lambda_min used to be nan
        # and transform's cond(CZ + D) failed with a traceback
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[1]], "B": [[0]], "C": [[2]], "D": [[1]]},
             "z": {"g": 1, "re": [[1e308]], "im": [[1.0]]}, "k": [1, 0]}))
        err = assert_refused(capsys, ["theta", action, "--input", str(path)],
                             code=3)
        assert "float range" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("action", ["eval", "transform", "split"])
    @pytest.mark.parametrize("inf", ["1e309", "Infinity"])
    def test_infinite_imaginary_entry_exits_2(self, capsys, tmp_path,
                                              action, inf):
        # re + 1j * im printed numpy's RuntimeWarning before the refusal,
        # and raised it under warnings as errors
        z = '{"g": 1, "re": [[0.5]], "im": [[%s]]}' % inf
        path = tmp_path / "t.json"
        path.write_text(
            '{"m": {"A": [[1]], "B": [[0]], "C": [[2]], "D": [[1]]}, '
            '"z": %s, "k": [1, 0], "blocks": [{"z": %s, "k": [0, 0]}]}'
            % (z, z))
        err = assert_refused(capsys, ["theta", action, "--input", str(path)])
        assert err == "error: Z entries must be finite\n"

    @pytest.mark.filterwarnings("error")
    def test_transform_whose_cz_plus_d_overflows_exits_3(self, capsys,
                                                         tmp_path):
        # Z + Z^T = 1.6e308 is finite, CZ + D = 2.4e308 + 3i is not
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[1]], "B": [[0]], "C": [[3]], "D": [[1]]},
             "z": {"g": 1, "re": [[8e307]], "im": [[1.0]]}, "k": [1, 0]}))
        err = assert_refused(capsys, ["theta", "transform", "--input",
                                      str(path)], code=3)
        assert "CZ + D leaves the float range" in err

    @pytest.mark.filterwarnings("error")
    def test_transform_whose_moved_z_overflows_exits_3(self, capsys,
                                                       tmp_path):
        # M.Z = A Z A^T has the diagonal 1.5e308, so M.Z + (M.Z)^T is inf;
        # the moved Z is refused as theta eval refuses it
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[2, 1], [1, 1]], "B": [[0, 0], [0, 0]],
                   "C": [[0, 0], [0, 0]], "D": [[1, -1], [-1, 2]]},
             "z": {"g": 2, "re": [[3e307, 0], [0, 3e307]],
                   "im": [[1, 0], [0, 1]]}, "k": [1, 0, 0, 0]}))
        err = assert_refused(capsys, ["theta", "transform", "--input",
                                      str(path)], code=3)
        assert "M.Z leaves the float range" in err

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

    @pytest.mark.parametrize("b", [[[2 ** 63]], [[-2 ** 63 - 1]],
                                   [[10 * 2 ** 63]]])
    def test_transform_entry_outside_int64_exits_3(self, capsys, tmp_path,
                                                   b):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[1]], "B": b, "C": [[0]], "D": [[1]]},
             "z": {"g": 1, "re": [[0.3]], "im": [[1.2]]}, "k": [1, 0]}))
        code, out, err = run_cli(capsys, ["theta", "transform",
                                          "--input", str(path)])
        assert code == 3
        assert out == ""
        assert "block B" in err and "int64" in err

    def test_transform_wide_entry_among_small_ones_exits_3(self, capsys,
                                                           tmp_path):
        # numpy reads [[2^63, 0], [0, 1]] as float64; it is still integers
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[2 ** 63, 0], [0, 1]], "B": [[0, 0], [0, 0]],
                   "C": [[0, 0], [0, 0]], "D": [[1, 0], [0, 1]]},
             "z": {"g": 2, "re": [[0, 0], [0, 0]], "im": [[1, 0], [0, 1]]},
             "k": [0, 0, 0, 0]}))
        code, _, err = run_cli(capsys, ["theta", "transform",
                                        "--input", str(path)])
        assert code == 3
        assert "block A" in err

    @pytest.mark.parametrize("b", [[[1.0]], [[True]], [["1"]],
                                   [[2 ** 63], [1, 2]], [[True, 2 ** 64]],
                                   [[2 ** 64, 1.5]], [[[2 ** 64]]]])
    def test_transform_non_integer_entry_exits_2(self, capsys, tmp_path, b):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[1]], "B": b, "C": [[0]], "D": [[1]]},
             "z": {"g": 1, "re": [[0.3]], "im": [[1.2]]}, "k": [1, 0]}))
        code, out, err = run_cli(capsys, ["theta", "transform",
                                          "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "block B" in err

    @pytest.mark.parametrize("field", ["re", "im"])
    @pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
    def test_eval_entry_outside_int64_exits_3(self, capsys, tmp_path, field,
                                              big):
        z = {"g": 1, "re": [[0.0]], "im": [[1.0]]}
        z[field] = [[big]]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"z": z, "k": [0, 0]}))
        code, out, err = run_cli(capsys, ["theta", "eval", "--input",
                                          str(path)])
        assert code == 3
        assert out == ""
        assert f"{field} entries" in err and "int64" in err

    @pytest.mark.parametrize("re", [[[2 ** 63 + 1, 0], [0, 0]],
                                    [[0.5, 2 ** 64], [2 ** 64, 1.5]]])
    def test_eval_wide_entry_among_numbers_exits_3(self, capsys, tmp_path,
                                                   re):
        # numpy reads the first grid as float64, rounding 2^63 + 1 to 2^63,
        # and the second as an object array of ints and floats
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 2, "re": re, "im": [[1, 0], [0, 1]]},
             "k": [0, 0, 0, 0]}))
        code, out, err = run_cli(capsys, ["theta", "eval", "--input",
                                          str(path)])
        assert code == 3
        assert out == ""
        assert "re entries" in err and "int64" in err

    @pytest.mark.parametrize("bad", [[[True]], [["1"]], [[2 ** 64], [1, 2]],
                                     [[2 ** 64, "x"]], [[[2 ** 64]]]])
    def test_eval_non_number_entry_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[0.0]], "im": bad}, "k": [0, 0]}))
        code, out, err = run_cli(capsys, ["theta", "eval", "--input",
                                          str(path)])
        assert code == 2
        assert out == ""
        assert "im" in err

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

    @pytest.mark.parametrize("eps", ["1_0e-9", "\u0661e-9", "1e-\uff19",
                                     " 1e-9", "0x1p-30", "1e-400", "1e999",
                                     "infinity", "1e-9j"])
    @pytest.mark.parametrize("action", ["eval", "transform", "split"])
    def test_eps_refuses_all_but_ascii_decimals(self, capsys, tmp_path,
                                                action, eps):
        # float() takes each of these or reads it as 0.0 or inf
        err = assert_refused(capsys, ["theta", action, "--input",
                                      str(tmp_path / "unread.json"),
                                      "--eps", eps])
        assert f"argument --eps: expected a finite positive number in " \
            f"ASCII digits, got {eps!r}" in err

    @pytest.mark.parametrize("eps, value", [("1e-9", 1e-9), ("1E-9", 1e-9),
                                            ("+.5", 0.5), ("2.", 2.0),
                                            ("1e-08", 1e-8)])
    def test_eps_ascii_decimals(self, capsys, tmp_path, eps, value):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"z": {"g": 1, "re": [[0.0]], "im": [[1.0]]}, "k": [0, 0]}))
        code, rep = run_json(capsys, ["theta", "eval", "--input", str(path),
                                      "--eps", eps])
        assert code == 0 and rep["config"]["eps"] == value

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
        err = assert_refused(capsys, ["theta", "eval", "--input", str(path)],
                             code=3)
        assert err == "error: Im Z must be positive definite\n"

    @pytest.mark.parametrize("action, im", [("eval", 1e-300),
                                            ("transform", 1e300)])
    def test_lambda_min_within_the_margin_is_named(self, capsys, tmp_path,
                                                   action, im):
        # Im Z = 1e-300 is positive definite, and so is the Im of
        # J.Z = -1/Z at Im Z = 1e300; both fall within the eigensolver
        # margin 1e-12 * max(1, lambda_max), and the refusal says that
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": [[0]], "B": [[-1]], "C": [[1]], "D": [[0]]},
             "z": {"g": 1, "re": [[0.0]], "im": [[im]]}, "k": [0, 0]}))
        err = assert_refused(capsys, ["theta", action, "--input", str(path)],
                             code=3)
        assert "lambda_min(Im Z) = 1e-300 " in err
        assert "margin 1e-12 = 1e-12 * max(1, lambda_max)" in err
        assert "positive definite" not in err

    @pytest.mark.parametrize("gm, gz", [(1, 2), (2, 1)])
    def test_transform_genus_mismatch_exits_2(self, capsys, tmp_path,
                                              gm, gz):
        # M and Z of different genus are malformed input, as a k of the
        # wrong length is; it used to exit 3 with "matrix g mismatch"
        eye = np.eye(gm, dtype=int).tolist()
        zero = np.zeros((gm, gm), dtype=int).tolist()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": eye, "B": zero, "C": zero, "D": eye},
             "z": {"g": gz, "re": np.zeros((gz, gz)).tolist(),
                   "im": np.eye(gz).tolist()}, "k": [0] * (2 * gz)}))
        err = assert_refused(capsys, ["theta", "transform", "--input",
                                      str(path)])
        assert err == f"error: m (g={gm}) does not match z (g={gz})\n"

    def test_transform_ill_conditioned_cz_plus_d_exits_3(self, capsys,
                                                          tmp_path):
        # C = diag(1e13, 0) at Z = i I: cond(CZ + D) = 1e13, past 1e12
        eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"m": {"A": eye, "B": zero, "C": [[10 ** 13, 0], [0, 0]],
                   "D": eye},
             "z": {"g": 2, "re": zero, "im": eye}, "k": [0, 0, 0, 0]}))
        err = assert_refused(capsys, ["theta", "transform", "--input",
                                      str(path)], code=3)
        assert err == "error: CZ + D too ill-conditioned\n"


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

    def test_genus_not_the_node_files_exits_2(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 3, "nodes": [str(x) for x in range(1, 9)]}))
        err = assert_refused(capsys, ["transversal", "--genus", "4",
                                      "--nodes", str(path), "--points",
                                      "1,2"])
        assert err == "error: --genus 4 does not match node file g=3\n"

    def test_bad_fraction(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 6, "nodes": ["1/0"] + [str(x) for x in range(2, 15)]}))
        code, _, _ = run_cli(capsys,
                             ["transversal", "--genus", "6",
                              "--nodes", str(path), "--points", "1,2,3,4"])
        assert code == 2

    @pytest.mark.parametrize("node", ["1e100000000", "1e-100000000",
                                      "9" * 5000])
    def test_node_past_the_digit_limit_is_a_resource_cap(self, capsys,
                                                          tmp_path, node):
        # refused before Fraction builds 10**100000000, which takes minutes
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 3, "nodes": [node] + [str(x) for x in range(2, 9)]}))
        start = time.monotonic()
        err = assert_refused(capsys, ["transversal", "--genus", "3",
                                      "--points", "1", "--nodes", str(path)],
                             code=3)
        assert time.monotonic() - start < 1.0
        assert "node 1 has more than" in err

    def test_accepted_literals(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 3, "nodes": ["3/7", "-2.5", "1e300", 2.25, 5, 6, 7, 8]}))
        code, rep = run_json(capsys, ["transversal", "--genus", "3",
                                      "--nodes", str(path), "--points", "1"])
        assert code == 0 and rep["rank"] == 1 and rep["pass"] is True

    @pytest.mark.parametrize("points", ["1_0,2,3,4", "\u0663,2,3,4",
                                        "\uff13,2,3,4"])
    def test_refuses_non_ascii_digits(self, capsys, tmp_path, points):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"g": 6, "nodes": [str(x) for x in range(1, 15)]}))
        err = assert_refused(capsys, ["transversal", "--genus", "6",
                                      "--nodes", str(path),
                                      "--points", points])
        assert "bad point list" in err


@pytest.mark.parametrize("points, message", [
    ("1,2,3", "S needs exactly g-2 = 2 labels, got 3"),
    ("1,99", "label 99 outside 1..10"),
    ("1,1", "duplicate labels in S"),
])
def test_both_commands_refuse_s_with_one_wording(capsys, tmp_path, points,
                                                 message):
    path = tmp_path / "n.json"
    path.write_text(json.dumps(
        {"g": 4, "nodes": [str(x) for x in range(1, 11)]}))
    for argv in (["hyperelliptic", "cut", "--genus", "4"],
                 ["transversal", "--genus", "4", "--nodes", str(path)]):
        err = assert_refused(capsys, argv + ["--points", points])
        assert err == f"error: {message}\n"


class TestIntegerOptions:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--genus", "\u0663"],
        ["enumerate", "--genus", "+3"],
        ["classify", "--input", "q.json", "--genus", "3_0"],
        ["orbit-census", "--genus", "\uff13"],
        ["hyperelliptic", "counts", "--genus", " 4"],
        ["transversal", "--nodes", "n.json", "--points", "1", "--genus",
         "6.0"],
        ["verify-all", "--seed", "1_0"],
        ["verify-all", "--seed", "0x1"],
    ])
    def test_refuses_all_but_ascii_digits(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(verify, "CRITERIA", [])
        err = assert_refused(capsys, argv)
        assert f"argument {argv[-2]}" in err and repr(argv[-1]) in err

    @pytest.mark.parametrize("argv", [[], ["enumerate"], ["bogus"],
                                      ["enumerate", "--genus", "3", "-x"]])
    def test_malformed_command_line_is_one_error_line(self, capsys, argv):
        assert_refused(capsys, argv)


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

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        err = assert_refused(capsys, ["--output", str(path),
                                      "enumerate", "--genus", "2"])
        assert f"cannot write {str(path)!r}" in err
        assert not path.parent.exists()

    def test_directory_exits_2(self, capsys, tmp_path):
        err = assert_refused(capsys, ["--output", str(tmp_path),
                                      "enumerate", "--genus", "2"])
        assert f"cannot write {str(tmp_path)!r}" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetanulls.cli", "enumerate", "--genus", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert (rep["even"], rep["odd"]) == (3, 1)


@pytest.fixture
def fresh_parser():
    """No parser kept from earlier calls, and none kept after the test."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def readme_requests(workdir):
    """The README's command block as argv lists; each json block of the
    README is written to workdir as the input file named last before it."""
    text = README.read_text(encoding="utf-8")
    pos = 0
    for block in re.finditer(r"```json\n(.*?)```", text, re.S):
        name = re.findall(r"`(\w+\.json)`", text[pos:block.start()])[-1]
        (workdir / name).write_text(block.group(1), encoding="utf-8")
        pos = block.end()
    commands = re.search(r"## Command line\n.*?```sh\n(.*?)```", text,
                         re.S).group(1)
    return [line.split()[1:] for line in commands.splitlines()]


# the command-line refusals of the CI bad-invocation loop (its --points
# texts at genus 6), each refused --eps text of this file and an unknown
# subcommand
REFUSALS = (
    [["verify-all", "--seed", "-1"],
     ["--output", "/missing/dir/x.json", "enumerate", "--genus", "2"],
     ["--output", ".", "enumerate", "--genus", "2"],
     ["enumerate", "--genus", "\u0663"],
     ["verify-all", "--seed", "1_0"],
     ["bogus"]]
    + [["theta", action, "--input", "theta.json", f"--eps={eps}"]
       for action in ("eval", "transform", "split")
       for eps in ("nan", "inf", "-inf", "0", "-1e-3", "1_0e-9",
                   "\u0661e-9", "1e-\uff19", " 1e-9", "0x1p-30", "1e-400",
                   "1e999", "infinity", "1e-9j")]
    + [cmd + ["--points", points]
       for cmd in (["hyperelliptic", "cut", "--genus", "6"],
                   ["transversal", "--genus", "6", "--nodes", "nodes.json"])
       for points in ("1_0,2,3,4", "\u0663,2,3,4", "\uff13,2,3,4",
                      ",1,,2,")])


@pytest.mark.usefixtures("fresh_parser")
class TestSharedParser:
    def test_built_once_for_twenty_calls(self, capsys, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)
        monkeypatch.setattr(cli, "_Parser", Counting)
        for _ in range(10):
            assert run_cli(capsys, ["enumerate", "--genus", "2"])[0] == 0
            assert_refused(capsys, ["enumerate", "--genus", "\u0663"])
        # the sub-parsers are built as part of the one parser
        assert built.count("thetanulls") == 1

    def test_handler_is_looked_up_at_each_call(self, capsys, monkeypatch):
        # a handler rebound after the parser is built, as a tracer does,
        # is the one a later call runs
        assert run_cli(capsys, ["enumerate", "--genus", "2"])[0] == 0
        monkeypatch.setattr(cli, "cmd_enumerate", lambda args: {"pass": False})
        assert run_cli(capsys, ["enumerate", "--genus", "2"])[0] == 1

    def test_refusals_leave_the_readme_requests_as_in_a_fresh_process(
            self, capsys, tmp_path, monkeypatch):
        requests = readme_requests(tmp_path)
        assert len(requests) == 12
        # the fresh processes run while this one makes its calls
        fresh = [subprocess.Popen(
            [sys.executable, "-m", "thetanulls.cli", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for argv in requests]
        try:
            monkeypatch.chdir(tmp_path)
            for argv in REFUSALS:
                assert_refused(capsys, argv)
            for argv, proc in zip(requests, fresh):
                code, out, _ = run_cli(capsys, argv)
                stdout, _ = proc.communicate(timeout=120)
                assert code == proc.returncode == 0, argv
                assert out.encode() == stdout, argv
        finally:
            for proc in fresh:
                proc.kill()
                proc.communicate()


def _reference_vanishing(g):
    """Labels of the classes of the even characteristics with h0 >= 2, one
    characteristic at a time through char_to_partition."""
    label = std_labeling(g)
    classes = (char_to_partition(k, label) for k in all_characteristics(g)
               if parity(k) == 0)
    return sorted(list(t.labels) for t in classes if h0(t) >= 2)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_vanishing_reports_match_the_per_characteristic_reference(capsys,
                                                                   g):
    want = _reference_vanishing(g)
    code, rep = run_json(capsys, ["hyperelliptic", "vanishing",
                                  "--genus", str(g)])
    assert code == 0
    assert rep["classes"] == want and rep["count"] == len(want)
    code, rep = run_json(capsys, ["enumerate", "--genus", str(g)])
    assert code == 0 and rep["vanishing"] == len(want)


# (file bytes, exit code): a file that is not UTF-8 is malformed input, one
# past the JSON decoder's nesting or integer-digit limit a resource cap
BAD_FILES = [
    pytest.param(b"\xff", 2, id="not-utf8"),
    pytest.param(b"[" * 200000 + b"]" * 200000, 3, id="deep-nesting"),
    pytest.param(b'{"g": 3, "nodes": [' + b"9" * 5000 + b"]}", 3,
                 id="5000-digits"),
]


@pytest.mark.parametrize("data, code", BAD_FILES)
@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--input"],
    ["classify", "--input"],
    ["transversal", "--genus", "3", "--points", "1", "--nodes"],
])
def test_undecodable_input_file_is_one_error_line(capsys, tmp_path, argv,
                                                  data, code):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    err = assert_refused(capsys, argv + [str(path)], code=code)
    assert str(path) in err


PATH_ARGV = {
    "theta-input": ["theta", "eval", "--input", "{}"],
    "classify-input": ["classify", "--input", "{}"],
    "transversal-nodes": ["transversal", "--genus", "3", "--points", "1",
                          "--nodes", "{}"],
    "output": ["--output", "{}", "enumerate", "--genus", "2"],
}


@pytest.mark.parametrize("bad, shape", [
    pytest.param("a\x00b", shape, id=shape) for shape in PATH_ARGV
] + [
    pytest.param("a\nb", shape, id=f"newline-{shape}")
    for shape in (*PATH_ARGV, "stray-argument")
])
def test_path_with_a_nul_byte_is_one_error_line(capsys, tmp_path, bad,
                                                shape):
    # open refuses a NUL byte with a ValueError (main(argv) can be given
    # one although a shell cannot pass it) and a missing file with an
    # OSError; each names the path by its repr.  argparse quotes a stray
    # argument as typed, with its line break escaped
    if shape == "stray-argument":
        err = assert_refused(capsys, ["enumerate", "--genus", "2", bad])
        assert repr(bad)[1:-1] in err
    else:
        if shape == "output":
            bad = str(tmp_path / "missing" / bad)
        err = assert_refused(capsys, [bad if a == "{}" else a
                                      for a in PATH_ARGV[shape]])
        assert repr(bad) in err
    assert "\x00" not in err

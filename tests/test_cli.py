"""Command-line behavior: exit codes, determinism, file round-trips."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import srgft
from srgft.checks import SUITES
from srgft.classes import DEFAULT_ANGLE_COUNT
from srgft.cli import main
from srgft.quat import Quaternion, parse_quaternion
from srgft.series import SliceSeries, mobius, mobius_quotient

FAST = ["--degree", "12", "--grid-radii", "0.2,0.5,0.8", "--grid-angles", "4"]


def run(args):
    return main(args)


def exit_code(args):
    """The exit status, whether main returns it or argparse raises it."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestCheckCommand:
    def test_counterexample_suite_exact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["check", "--suite", "schwarz-pick-counterexample",
                    "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["passed"] is True
        assert data[0]["params"]["classical_bound"] == "68/75"

    def test_wrapped_suite_builders_give_the_same_report(self, tmp_path, monkeypatch):
        """A benchmark wraps each suite builder, timing the build, and each
        task it returns; the report must not change under the wrappers."""
        flags = ["check", "--suite", "all", "--seed", "7"]
        plain, wrapped = tmp_path / "plain.json", tmp_path / "wrapped.json"
        assert run(flags + ["--out", str(plain)]) == 0
        builds, tasks = [], []

        def wrap_task(name, task):
            def timed():
                tasks.append(name)
                return task()
            return timed

        def wrap_build(name, build):
            def timed(cfg):
                builds.append(name)
                return [wrap_task(name, task) for task in build(cfg)]
            return timed

        for name, build in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, wrap_build(name, build))
        assert run(flags + ["--out", str(wrapped)]) == 0
        assert wrapped.read_bytes() == plain.read_bytes()
        assert builds == list(SUITES)
        assert len(tasks) == len(json.loads(plain.read_text()))

    def test_unknown_suite_usage_error(self, capsys):
        assert run(["check", "--suite", "nonsense"]) == 2

    def test_invalid_degree_usage(self, capsys):
        assert run(["check", "--suite", "bohr", "--degree", "4"]) == 2

    def test_failed_check_exits_one(self, tmp_path, capsys):
        # a tolerance below float rounding makes the sharp equalities fail
        out = tmp_path / "r.json"
        code = run(["check", "--suite", "caratheodory", "--seed", "2",
                    "--degree", "12", "--tol", "1e-18", "--random", "1",
                    "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        assert any(not r["passed"] for r in data)
        assert all(r["witnesses"] for r in data if not r["passed"])

    def test_deterministic_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["check", "--suite", "bohr", "--seed", "7", *FAST]
        assert run(flags + ["--out", str(out1)]) == 0
        assert run(flags + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_random_zero_runs_only_fixed_functions(self, tmp_path):
        out = tmp_path / "r.json"
        flags = ["check", "--suite", "hayman", "--random", "0", *FAST]
        assert run(flags + ["--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2

    def test_negative_random_usage_error(self, capsys):
        assert run(["check", "--suite", "hayman", "--random", "-1", *FAST]) == 2

    def test_grid_units_flag(self, tmp_path):
        out = tmp_path / "r.json"
        flags = ["check", "--suite", "bohr", "--seed", "2", "--degree", "12",
                 "--grid-radii", "0.3,0.7", "--grid-units", "5",
                 "--grid-angles", "4", "--out", str(out)]
        assert run(flags) == 0
        data = json.loads(out.read_text())
        assert all(r["passed"] for r in data)

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["check", "--suite", "bohr", *FAST]
        monkeypatch.setenv("SRGFT_SEED", "123")
        assert run(flags + ["--out", str(out1)]) == 0
        assert run(flags + ["--seed", "123", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_seed_env_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SRGFT_SEED", "abc")
        assert exit_code(["check", "--suite", "bohr", *FAST]) == 2
        assert exit_code(["gen", "sstar", "--degree", "12"]) == 2
        out = tmp_path / "s.json"
        assert run(["gen", "sstar", "--seed", "3", "--degree", "12", "--out", str(out)]) == 0


class TestGenCommand:
    def test_koebe_file_and_eval(self, tmp_path, capsys):
        out = tmp_path / "koebe.json"
        assert run(["gen", "koebe", "--u", "1", "--degree", "16",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"]["member"] is True
        assert data["quotient"] is not None
        assert run(["eval", str(out), "--at", "1/2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "2"
        assert lines[1] == "12"

    def test_sstar_certified(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["gen", "sstar", "--seed", "42", "--degree", "12",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"]["certificate"] == "analytic-sufficient"
        series = SliceSeries.from_json_dict(data["series"])
        assert series.valuation == 1 and series.degree == 12

    def test_gen_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen", "caratheodory", "--seed", "5", "--degree", "10",
                    "--out", str(out1)]) == 0
        assert run(["gen", "caratheodory", "--seed", "5", "--degree", "10",
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rogosinski_family(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["gen", "rogosinski", "--b", "1/2i", "--p", "1",
                    "--degree", "12", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"]["member"] is True
        # q C(q) is one quotient: q sits in the numerator, no shift apart
        assert data["quotient"]["shift"] == 0
        assert data["quotient"]["num"]["valuation"] == 1
        series = SliceSeries.from_json_dict(data["series"])
        assert series.coeff(1) == Quaternion(0, F(1, 2), 0, 0)

    def test_class_c_family(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["gen", "class-c", "--seed", "3", "--degree", "12",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"]["class"] == "close-to-convex"
        assert data["verdict"]["member"] is True

    def test_bad_params_usage_error(self, tmp_path):
        assert run(["gen", "koebe", "--u", "1/2", "--degree", "12"]) == 2
        assert run(["gen", "rogosinski", "--b", "0", "--degree", "12"]) == 2

    # sha256 of the file each family writes at the default degree 48 and at
    # seed 1 unless its options set another; seed 11 is the slice-files fault
    # seed, and five grid axes screen class-c at general float points
    PINNED_GEN = {
        "sstar": "8b1b237d4e919e5e789c825983f84e465a9643d244b629763df85c8727d01140",
        "sstar --mode float": "6f8eb3a6e7308b1248b29b458b93177d3926bf32b0b17fc7ed9cbe00379b6fd9",
        "caratheodory": "480c04e826c556e93f4072ad86c7c4a5e0ff705318a0feeb101d6b59394e3697",
        "koebe --u=2/3i+1/3j+2/3k":
            "5010c3446beabc36d15550d2a3bfd7d836063e89ddb1902bb9fa27adc0d96a0d",
        "koebe --u=2/3i+1/3j+2/3k --mode float":
            "6705689a0464ad4f61847f7546a901349258808a816bd92d4d3646b810675672",
        "rogosinski": "196568d85d6b90c3433fcbc2817a1552d84ab91319d121a444ab1404a1e5b635",
        "rogosinski --b=3/10i+2/5j --p=3/5+4/5k":
            "0fef4d1938390ba4b03108a27bd2709c7ad2fb0d31ed7abeae48da421f898b2d",
        "rogosinski --b=3/10i+2/5j --p=3/5+4/5k --mode float":
            "e3365c1743239325bc14818649ac8d14e630d1f4e89b54f2a66c57f2812b83fb",
        "class-c": "0727643893f2b768fd4ab033e4f68dadffe1cebf105d332bcbc23563baecfb55",
        "class-c --seed=11": "56e6dbec278641fddd5edc21c5d9a87622c459940a7031180a5cd7dae0a32d22",
        "class-c --grid-units=5":
            "0727643893f2b768fd4ab033e4f68dadffe1cebf105d332bcbc23563baecfb55",
    }

    @pytest.mark.parametrize("family", PINNED_GEN)
    def test_gen_output_is_pinned(self, family, tmp_path):
        out = tmp_path / "member.json"
        name, *options = family.split()
        assert run(["gen", name, "--seed", "1", *options, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_GEN[family]


class TestEvalCommand:
    def test_mobius_reference_value(self, tmp_path, capsys):
        a = Quaternion(0, F(1, 2), 0, 0)
        quot = mobius_quotient(a)
        payload = {
            "series": mobius(a, 24).to_json_dict(),
            "quotient": {"num": quot.num.to_json_dict(),
                         "den": quot.den.to_json_dict(), "shift": 0},
        }
        path = tmp_path / "mobius.json"
        path.write_text(json.dumps(payload))
        assert run(["eval", str(path), "--at", "1/2j"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "2/5i-2/5j"
        assert parse_quaternion(lines[1]) == Quaternion(F(-204, 225), 0, 0, F(-96, 225))

    def test_old_rogosinski_file_loads_like_a_new_one(self, tmp_path, capsys):
        """Files written before q was folded into the numerator carry the
        unshifted numerator and "shift": 1; they evaluate the same."""
        new = tmp_path / "new.json"
        assert run(["gen", "rogosinski", "--b", "3/10i+2/5j", "--p", "3/5+4/5k",
                    "--degree", "12", "--out", str(new)]) == 0
        data = json.loads(new.read_text())
        num = SliceSeries.from_json_dict(data["quotient"]["num"])
        data["quotient"].update(num=num.shift(-1).to_json_dict(), shift=1)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        capsys.readouterr()
        for literal in ("1/5-3/10i+1/10j+1/3k", "0.2-0.3i+0.1j+0.3k", "0", "-0.9j"):
            outputs = []
            for path in (new, old):
                assert run(["eval", str(path), "--at=" + literal]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
        clouds = [tmp_path / "new.csv", tmp_path / "old.csv"]
        for path, cloud in zip((new, old), clouds):
            assert run(["slice-image", str(path), "--unit", "j", "--out", str(cloud)]) == 0
        assert clouds[0].read_bytes() == clouds[1].read_bytes()

    def test_identity_echo(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        assert run(["eval", str(path), "--at", "0.3+0.1k"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert parse_quaternion(lines[0]) == Quaternion(0.3, 0.0, 0.0, 0.1)
        assert lines[1] == "1.0"

    def test_outside_ball_exit_one(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        assert run(["eval", str(path), "--at", "2"]) == 1

    def test_missing_file_exit_one(self, capsys):
        assert run(["eval", "/nonexistent.json", "--at", "0"]) == 1
        assert capsys.readouterr().err == \
            "error: [Errno 2] No such file or directory: '/nonexistent.json'\n"

    def test_form_file_outside_ball_exit_one(self, tmp_path, capsys):
        path = tmp_path / "koebe.json"
        assert run(["gen", "koebe", "--u", "1", "--degree", "12", "--out", str(path)]) == 0
        assert run(["eval", str(path), "--at", "3/5+4/5i"]) == 1
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("literal", ["1" + "0" * 400 + "+0.5i", "1" + "0" * 400])
    def test_point_too_large_for_a_float_exit_one(self, literal, tmp_path, capsys):
        path = tmp_path / "koebe.json"
        assert run(["gen", "koebe", "--u", "1", "--degree", "12", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["eval", str(path), "--at", literal]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("family", ["sstar", "koebe"])
    def test_unit_ball_test_is_exact(self, family, tmp_path, capsys):
        path = tmp_path / f"{family}.json"
        assert run(["gen", family, "--degree", "12", "--out", str(path)]) == 0
        capsys.readouterr()
        # |q|^2 = 1 - 2e-19 + 1e-38 rounds to 1.0 as a float
        assert run(["eval", str(path), "--at", "9999999999999999999/10000000000000000000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        for literal in ("1", "3/5+4/5i"):
            assert run(["eval", str(path), "--at", literal]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


MALFORMED_FILES = {
    "empty-object": {},
    "array": [1, 2],
    "array-naming-series": ["series"],
    "quotient-without-den": {
        "series": SliceSeries.identity(4).to_json_dict(),
        "quotient": {"num": SliceSeries.identity(1).to_json_dict(), "shift": 0},
    },
    # JSON true is an int to Python; it used to load as the component 1.0
    "bool-component": {"valuation": 0, "coeffs": [[True, False, 0, 0], ["1/2", "0", "0", "0"]]},
    "unknown-mode": dict(SliceSeries.identity(4).to_json_dict(), mode="banana"),
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
@pytest.mark.parametrize("command", ["eval", "slice-image"])
def test_malformed_series_file_is_an_error_not_a_traceback(name, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_FILES[name]))
    flags = ["--at", "1/2"] if command == "eval" else ["--out", str(tmp_path / "cloud.csv")]
    assert run([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["eval", "slice-image"])
def test_coefficient_too_large_for_a_float_is_an_error(command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    huge = SliceSeries.from_coeffs([Quaternion(1, 0, 0, 0), Quaternion(10 ** 400, 0, 0, 0)])
    path.write_text(json.dumps(huge.to_json_dict()))
    cloud = tmp_path / "cloud.csv"
    flags = ["--at", "0.5"] if command == "eval" else ["--out", str(cloud)]
    assert run([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational component too large for a float\n"
    assert not cloud.exists()


@pytest.mark.parametrize("command", ["eval", "slice-image"])
def test_json_integer_too_large_for_a_float_is_an_error(command, tmp_path, capsys):
    """A JSON integer component is read as a float, and one of 400 digits
    has none."""
    path = tmp_path / "huge.json"
    path.write_text('{"valuation": 0, "coeffs": [[1, 0, 0, 0], [1%s, 0, 0, 0]]}' % ("0" * 400))
    cloud = tmp_path / "cloud.csv"
    flags = ["--at", "1/2"] if command == "eval" else ["--out", str(cloud)]
    assert run([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON number in quaternion array too large for a float\n"
    assert not cloud.exists()


UNWRITABLE_OUT_COMMANDS = {
    "check": ["check", "--suite", "schwarz-pick-counterexample", *FAST],
    "gen": ["gen", "koebe", *FAST],
    "slice-image": ["slice-image"],
}


@pytest.mark.parametrize("command", UNWRITABLE_OUT_COMMANDS)
def test_unwritable_out_is_an_error_not_a_traceback(command, tmp_path, capsys):
    argv = UNWRITABLE_OUT_COMMANDS[command]
    if command == "slice-image":
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        argv = argv + [str(path)]
    out = tmp_path / "missing" / "out"
    assert run([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


class TestSliceImageCommand:
    def _rows(self, path):
        with open(path) as handle:
            reader = csv.DictReader(handle)
            return [{k: float(v) for k, v in row.items()} for row in reader]

    def test_convex_halfplane(self, tmp_path):
        gen_out = tmp_path / "conv.json"
        # the convex reference is not a gen family; build the file directly
        from srgft.classes import convex_reference, convex_reference_quotient
        quot = convex_reference_quotient()
        payload = {
            "series": convex_reference(16).to_json_dict(),
            "quotient": {"num": quot.num.to_json_dict(),
                         "den": quot.den.to_json_dict(), "shift": 0},
        }
        gen_out.write_text(json.dumps(payload))
        csv_out = tmp_path / "cloud.csv"
        assert run(["slice-image", str(gen_out), "--unit", "i",
                    "--out", str(csv_out)]) == 0
        rows = self._rows(csv_out)
        assert rows and all(row["re_out"] > -0.5 for row in rows)

    def test_identity_disk(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        csv_out = tmp_path / "cloud.csv"
        assert run(["slice-image", str(path), "--unit", "j",
                    "--out", str(csv_out)]) == 0
        for row in self._rows(csv_out):
            assert abs(row["re_out"] - row["re_in"]) < 1e-12
            assert abs(row["i_out"] - row["i_in"]) < 1e-12

    def test_bloch_strip(self, tmp_path):
        import math
        from srgft.classes import bloch_series
        path = tmp_path / "bloch.json"
        # window deep enough that truncation stays below the strip margin
        path.write_text(json.dumps(bloch_series(240).to_json_dict()))
        csv_out = tmp_path / "cloud.csv"
        assert run(["slice-image", str(path), "--unit", "j",
                    "--out", str(csv_out)]) == 0
        rows = self._rows(csv_out)
        assert rows and all(abs(row["i_out"]) < math.pi / 4 for row in rows)

    def test_bad_unit_exit_one(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        assert run(["slice-image", str(path), "--unit", "1+i"]) == 1

    def test_huge_and_zero_unit_literals(self, tmp_path, capsys):
        """A direction whose squared norm overflows is its unit; the zero
        direction is an error, not a traceback."""
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        clouds = []
        for unit in ("i", "1e200i", "1e-170i"):
            clouds.append(tmp_path / f"{unit}.csv")
            assert run(["slice-image", str(path), "--unit", unit,
                        "--out", str(clouds[-1])]) == 0
        assert clouds[0].read_bytes() == clouds[1].read_bytes() == clouds[2].read_bytes()
        capsys.readouterr()
        assert run(["slice-image", str(path), "--unit", "0i",
                    "--out", str(tmp_path / "zero.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("unit", ["1e-13+1e-20i", "1e-300+1e-290j"])
    def test_a_real_part_beside_a_smaller_imaginary_part_is_refused(self, unit, tmp_path,
                                                                   capsys):
        """The real part is measured against the imaginary norm, not 1e-12."""
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        out = tmp_path / "cloud.csv"
        assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_a_real_part_far_below_the_imaginary_norm_is_accepted(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        clouds = [tmp_path / "i.csv", tmp_path / "near-i.csv"]
        for unit, out in zip(("i", "1e-11+1e6i"), clouds):
            assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == 0
        assert clouds[0].read_bytes() == clouds[1].read_bytes()

    @pytest.mark.parametrize("unit", ["i", "j", "k", "1/3i+2/3j+2/3k"])
    def test_one_plane_rows_are_the_full_evaluations(self, unit, tmp_path, capsys):
        """On any unit I a window's image row is one plane Horner in
        z = x + iy over the pairs (a_(n,0), <Im a_n, I>), times z^v: every
        row has the bits of that Horner written out here, and lies within
        rounding of the full evaluation at x + y I.  A window whose own
        plane overflows fails; one whose other components overflow does
        not reach the image."""
        import math
        from srgft.cli import _parse_unit
        unit_q = _parse_unit(unit)
        e = (float(unit_q.x), float(unit_q.y), float(unit_q.z))
        path, out = tmp_path / "w.json", tmp_path / "cloud.csv"
        # quaternion windows of valuation 2, a real one whose imaginary
        # parts are zeros of either sign, and constants with signed zeros
        for window in (SliceSeries(2, [Quaternion(0.5, -0.0, 0.25, 0.0),
                                       Quaternion(-0.0, 0.75, 0.0, -0.5),
                                       Quaternion(1.0, 0.0, 0.0, 0.0)]),
                       SliceSeries(2, [Quaternion(-0.5, 1.0, 0.0, -0.0)]),
                       SliceSeries(0, [Quaternion(-0.0, -0.0, -0.0, -0.0),
                                       Quaternion(0.5, 0.0, -0.0, 0.0)]),
                       SliceSeries(0, [Quaternion(-0.0, -0.0, -0.0, 1.0)])):
            path.write_text(json.dumps(window.to_json_dict()))
            assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == 0
            pairs = [(c.w, c.x * e[0] + c.y * e[1] + c.z * e[2]) for c in window.coeffs[::-1]]
            want = [["re_in", "i_in", "re_out", "i_out"]]
            for r in [0.98 * (i + 1) / 24 for i in range(24)]:
                for theta in [2.0 * math.pi * j / 48 for j in range(48)]:
                    x, y = r * math.cos(theta), r * math.sin(theta)
                    a, b = pairs[0]
                    for p, s in pairs[1:]:
                        a, b = x * a - y * b + p, x * b + y * a + s
                    for _ in range(window.valuation):
                        a, b = x * a - y * b, x * b + y * a
                    v = window.eval(Quaternion(x, y * e[0], y * e[1], y * e[2]))
                    assert abs(a - v.w) < 1e-15
                    assert abs(b - (v.x * e[0] + v.y * e[1] + v.z * e[2])) < 1e-15
                    want.append([repr(x), repr(y), repr(a), repr(b)])
            with open(out, newline="") as handle:
                assert list(csv.reader(handle)) == want
        # <Im a_n, I> is 0.5 on i and 0.5 / 3 on the off-axis unit, where
        # the j and k parts cancel; on j and k the plane overflows
        huge = SliceSeries(0, [Quaternion(1.0, 0.5, 1.7e308, -1.7e308)] * 3)
        path.write_text(json.dumps(huge.to_json_dict()))
        assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == \
            (1 if unit in ("j", "k") else 0)
        huge = SliceSeries(0, [Quaternion(1.0, 1.7e308, 1.7e308, 1.7e308)] * 3)
        path.write_text(json.dumps(huge.to_json_dict()))
        capsys.readouterr()
        assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite float component")

    def test_the_file_is_what_csv_writer_writes(self, tmp_path):
        """The cloud is written as one string; its bytes are those that the
        excel dialect of csv.writer writes for the same rows, CRLF line ends
        included (csv.reader, which the other tests read with, accepts any
        line end), on signed zeros, the least subnormal, values near the
        float maximum and reprs with an exponent, for windows and for an
        exact quotient file, on a named and on a literal unit."""
        windows = [SliceSeries(0, [Quaternion(-0.0, -0.0, -0.0, -0.0)]),
                   SliceSeries(0, [Quaternion(5e-324, 1e-300, 1e-300, -0.0)]),
                   SliceSeries(0, [Quaternion(1.7e308, 2.5e-310, -0.0, 1e-300)]),
                   SliceSeries(3, [Quaternion(1e-300, -2.5e-310, 1e-300, 3e-320),
                                   Quaternion(1.7e308, 0.0, -0.0, 0.0)])]
        paths = []
        for n, window in enumerate(windows):
            paths.append(tmp_path / f"w{n}.json")
            paths[-1].write_text(json.dumps(window.to_json_dict()))
        paths.append(tmp_path / "koebe.json")
        assert run(["gen", "koebe", "--u", "1", "--degree", "12", "--out", str(paths[-1])]) == 0
        out, fields = tmp_path / "cloud.csv", set()
        for path in paths:
            for unit in ("j", "1/3i+2/3j+2/3k"):
                assert run(["slice-image", str(path), "--unit", unit, "--out", str(out)]) == 0
                with open(out, newline="") as handle:
                    header, *rows = csv.reader(handle)
                want = io.StringIO(newline="")
                writer = csv.writer(want)
                writer.writerow(header)
                writer.writerows([float(v) for v in row] for row in rows)
                assert out.read_bytes() == want.getvalue().encode()
                assert len(rows) == 24 * 48
                fields.update(v for row in rows for v in row)
        assert {"-0.0", "5e-324", "1e-300", "1.7e+308"} <= fields

    # sha256 of the CSV of each seed-7 gen file on each axis; the float
    # sstar file holds the exact window rounded, so its images are the same
    ROGOSINSKI = "rogosinski --b=7/40-1/5i-2/5j-2/5k --p=-21/100-6/25i-12/25j-12/25k"
    PINNED_IMAGE = {
        ("sstar", "i"): "5f0f3608b621e9f1ce5ae308f6a3a12740f528a633522e4e0747ba997fda7a04",
        ("sstar", "j"): "692ac9fd597410ec6ff50c43c756af5086d050399d26bb09dfe517265f1bb137",
        ("sstar", "k"): "7c5516dc4b17f9e53fcb428ef6e564884883076ca7feb24e1d9ecd499aa1ccf4",
        ("sstar", "1/3i+2/3j+2/3k"):
            "3baea33dd2962af90eea9e7697c35d1e5ae63a881f0f741143b6aed71b82f54b",
        ("class-c", "i"): "2fd78c0db4ff7399a3206cf4c858e6912dd22990af4ab5515aa861b8a7ee3f9e",
        ("class-c", "j"): "ed26a037e9139378fda85cdf1b824c3bef5f9885e29a42521780c64d4e380d61",
        ("class-c", "k"): "8d0a085eb0f104b1bb9191e52b3799a1d62d53de0e25359e02331fafa699345e",
        ("class-c", "1/3i+2/3j+2/3k"):
            "3d143f43b01c83a1cdfcc515075d49e65995944e162c2f459cc71cb4d42e7cbf",
        ("sstar --mode float", "i"):
            "5f0f3608b621e9f1ce5ae308f6a3a12740f528a633522e4e0747ba997fda7a04",
        ("sstar --mode float", "j"):
            "692ac9fd597410ec6ff50c43c756af5086d050399d26bb09dfe517265f1bb137",
        ("sstar --mode float", "k"):
            "7c5516dc4b17f9e53fcb428ef6e564884883076ca7feb24e1d9ecd499aa1ccf4",
        ("sstar --mode float", "1/3i+2/3j+2/3k"):
            "3baea33dd2962af90eea9e7697c35d1e5ae63a881f0f741143b6aed71b82f54b",
        # exact quotient files: their images take StarQuotient.values
        ("koebe --u=7/25-24/25j", "j"):
            "c1745bb6217164b905feeb02acd1c943161fdd56588c4990e29414307798f87a",
        ("koebe --u=7/25-24/25j", "1/3i+2/3j+2/3k"):
            "6212c245823cc78ee0e7a6a69c31ca157af624007b805dbd5d1918f7358d3c32",
        (ROGOSINSKI, "j"): "47019e01ac7dba931495d3803ab4218c23e68272790d772e3dddd0a13785b178",
        (ROGOSINSKI, "1/3i+2/3j+2/3k"):
            "0e721ab9281d110c4650a2b8aee44ef59f1c9c232626968b8c88a14f7b0c8307",
    }

    @pytest.fixture(scope="class")
    def gen_files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("gen")
        paths = {}
        for family in {family for family, _ in self.PINNED_IMAGE}:
            name, *options = family.split()
            paths[family] = folder / f"{name}{len(options)}.json"
            assert run(["gen", name, "--seed", "7", *options, "--out", str(paths[family])]) == 0
        return paths

    @pytest.mark.parametrize("family, unit", PINNED_IMAGE)
    def test_image_is_pinned(self, family, unit, gen_files, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run(["slice-image", str(gen_files[family]), "--unit", unit,
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.PINNED_IMAGE[(family, unit)]


class TestFlags:
    def test_flags_a_subcommand_does_not_read_are_refused(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(SliceSeries.identity(4).to_json_dict()))
        for argv in (["eval", str(path), "--at", "1/2", "--degree", "12"],
                     ["check", "--mode", "exact"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "caratheodory", "--k", "0", "--degree", "12"],
        ["gen", "sstar", "--grid-radii", "abc"],
        ["check", "--grid-angles", "0"],
        ["check", "--grid-units", "0"],
        ["check", "--grid-units", "-1"],
    ])
    def test_zero_or_malformed_setting_is_a_usage_error(self, argv, capsys):
        assert exit_code(argv) == 2

    def test_help_prints_the_defaults(self, capsys):
        assert exit_code(["check", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"angles per circle (default {DEFAULT_ANGLE_COUNT})" in text
        assert "number of slice axes, i, j, k first (default 3)" in text


def test_package_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srgft.__file__)))
    code = ("import sys, srgft, srgft.cli, srgft.checks\n"
            "print(sorted({'numpy', 'mpmath', 'sympy', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"

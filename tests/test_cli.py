"""Command-line surface: outputs, formats, determinism, exit codes."""

import ast
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hirzebruch_torsion import chow, cli, quadrature, torsion
from hirzebruch_torsion.constants import ExactConstant, log_rational

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "hirzebruch_torsion.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestHeightCommand:
    def test_single_value(self):
        code, out, _ = run_cli("height", "--n", "1")
        assert code == 0
        assert out.strip() == "23/4"

    def test_csv_range(self):
        code, out, _ = run_cli("height", "--n-max", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,height"
        assert lines[1:] == ["0,3", "1,23/4", "2,19/2", "3,57/4"]


class TestTorsionCommand:
    def test_json_routes_agree(self):
        code, out, _ = run_cli("torsion", "--n", "0", "--route", "all",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        entry = payload[0]
        rr = entry["routes"]["rr"]
        bb = entry["routes"]["bb"]
        assert rr == bb
        # the split case reduces to twice the base-line torsion
        main = ExactConstant.from_json_dict(entry["main_theorem_value"]["exact"])
        assert main == torsion.closed_tau_p1().scale(2)
        got = ExactConstant.from_json_dict(rr["exact"])
        assert got == torsion.closed_tau_p1().scale(2)

    def test_text_folding(self):
        code, out, _ = run_cli("torsion", "--n", "1", "--route", "closed")
        assert code == 0
        assert "2*tau_P1" in out

    def test_large_n_is_exact(self):
        code, out, _ = run_cli("torsion", "--n", "20000")
        assert code == 0
        values = {line.split("=")[1].strip() for line in out.splitlines()
                  if line.lstrip().startswith("tau[")}
        assert values == {cli.format_exact(torsion.closed_tau(20000))}

    def test_expand_tau_flag(self):
        code, out, _ = run_cli("torsion", "--n", "1", "--route", "closed",
                               "--expand-tau")
        assert code == 0
        assert "tau_P1" not in out and "zeta'(-1)" in out

    def test_large_n_bytes_are_pinned(self):
        # the golden outputs stop at n = 20; these bytes pin the exact routes
        # and their JSON at n = 10^6, 10^9 and 10^18
        code, out, _ = run_cli("torsion", "--n-list", "1000000,1000000000,1000000000000000000",
                               "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "89ccd246f5b1926cf372f88dee7b10bf0f90aa509ad40b400fa3a4c32581b1f1")


class TestVerifyCommand:
    def test_passes_and_exit_zero(self):
        code, out, _ = run_cli("verify", "--n-list", "1,2", "--tol", "1e-8",
                               "--height-range", "5")
        assert code == 0
        assert "all passed" in out

    def test_json_format(self):
        code, out, _ = run_cli("verify", "--n-list", "1", "--format", "json",
                               "--height-range", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True

    def test_unreachable_tolerance_exits_one(self):
        # a demand below quadrature noise must be reported as a failure
        code, out, _ = run_cli("verify", "--n-list", "1", "--tol", "1e-16",
                               "--height-range", "0")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("scheme,digest", [
        ("gauss_kronrod", "70e2fffbafa21231666d4365762231ad64085b4aeec65d0670fa39223ed17b15"),
        ("tanh_sinh", "e0c33edd944068944068ae51b6c16df6c60d1d37ba4448c21cc9b2f68617844c")])
    def test_report_bytes_are_pinned(self, scheme, digest):
        # the same bytes under every supported Python, so the CI matrix
        # checks that claim of the README
        code, out, _ = run_cli("verify", "--n-list", "0,7,57", "--height-range", "2",
                               "--format", "csv", "--scheme", scheme)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_nonpositive_tolerance_is_config_error(self):
        code, _, _ = run_cli("verify", "--n-list", "1", "--tol", "0")
        assert code == 2


class TestIntegralsCommand:
    def test_csv_round_trip(self):
        code, out, _ = run_cli("integrals", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,n,expected,computed,abs_error,pass"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "true"
            assert abs(float(cells[2]) - float(cells[3])) <= 1e-8


class TestTableCommand:
    def test_csv_header(self):
        code, out, _ = run_cli("table", "--n-list", "0,1")
        assert code == 0
        assert out.splitlines()[0] == ("n,height,tau_float,tau_minus_logvol_float,"
                                       "route_discrepancy,max_integral_discrepancy")


class TestConstantsCommand:
    def test_lists_atoms(self):
        code, out, _ = run_cli("constants")
        assert code == 0
        assert "zeta'(-1)" in out and "log(pi)" in out

    def test_json(self):
        code, out, _ = run_cli("constants", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"atom", "reference"} == set(rows[0])


class TestFormsCommand:
    def test_single_form_columns(self):
        code, out, _ = run_cli("forms", "--n", "1", "--form", "alpha",
                               "--grid-points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,fx,fphi"
        assert len(lines) == 6
        u, fx, fphi = (float(v) for v in lines[1].split(","))
        assert fx == pytest.approx((1 + 2 * u) / (1 + u), rel=1e-12)

    def test_all_forms_have_name_column(self):
        code, out, _ = run_cli("forms", "--n", "0", "--grid-points", "3")
        assert code == 0
        assert out.splitlines()[0] == "form,u,fx,fphi"

    def test_unknown_form_is_config_error(self):
        code, _, err = run_cli("forms", "--n", "1", "--form", "nope")
        assert code == 2
        assert "unknown form" in err


class TestTraceAndErrors:
    def test_closed_pipe_exits_141_quietly(self):
        # 2000 height rows (about 170 kB) outgrow the pipe's buffer, so the
        # command is still writing when the reader stops after one line
        proc = subprocess.Popen([sys.executable, "-m", "hirzebruch_torsion.cli", "verify",
                                 "--n", "2", "--height-range", "2000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"PASS")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and err == ""

    def test_height_trace_emits_rewrite_json(self):
        code, out, err = run_cli("height", "--n", "2", "--trace")
        assert code == 0
        assert out.strip() == "19/2"
        steps = json.loads(err)
        assert steps and all(set(s) == {"rule", "before", "after"} for s in steps)
        assert any(s["rule"] == "x_square" for s in steps)

    def test_height_trace_bytes(self):
        code, _, err = run_cli("height", "--n", "2", "--trace")
        assert code == 0
        assert err == ('[\n  {\n    "rule": "x_square",\n    "before": "xhat^2",\n'
                       '    "after": "a(base*1)"\n  }\n]\n')

    def test_non_rational_height_is_refused_with_and_without_trace(self, capsys,
                                                                   monkeypatch):
        monkeypatch.setattr(chow, "pushforward_deg",
                            lambda c, trace=None: log_rational(2))
        errors = []
        for extra in ([], ["--trace"]):
            assert cli.main(["height", "--n", "2", *extra]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors == ["error: the height at n=2 is not rational: log(2)\n"] * 2

    def test_nonconvergence_exit_code(self):
        code, _, err = run_cli("integrals", "--n", "5", "--quad-tol", "1e-16")
        assert code == 3
        assert "converge" in err

    def test_nonconvergence_names_the_check(self, capsys):
        # at n = 400 scipy flags round-off in a Gauss-Kronrod check
        assert cli.main(["integrals", "--n", "400"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 160
        assert "c1_c1rel_log_ratio, n=400" in lines[0]

    def test_nonconvergence_gives_the_integrators_reason(self, capsys, monkeypatch):
        # an estimate within the target that QAGS flags (ier 2, round-off)
        monkeypatch.setattr(quadrature, "_dqagse", lambda *args: (0.25, 1e-12, 21, 2, 1))
        assert cli.main(["integrals", "--n", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: quadrature did not converge: halfline_inverse_cube, n=1: "
            "qags: The occurrence of roundoff error is detected "
            "(estimate 1.0e-12 met the target)\n")


def loaded_after(statement):
    """Run statement, which sets rc, in a fresh interpreter; its exit status
    and which of numpy, scipy and scipy.integrate it left loaded."""
    script = ("import json, sys\n"
              "from hirzebruch_torsion import cli, torsion\n"
              f"{statement}\n"
              "heavy = ('numpy', 'scipy', 'scipy.integrate')\n"
              "print(json.dumps([m for m in heavy if m in sys.modules]), file=sys.stderr)\n"
              "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


class TestExactPathImports:
    """No command loads numpy or scipy: the exact path and both quadrature
    schemes are plain Python, and so is the forms grid."""

    @pytest.mark.parametrize("statement", [
        "rc = cli.main(['height', '--n', '3'])",
        "rc = cli.main(['height', '--n-max', '50', '--format', 'csv'])",
        "rc = cli.main(['constants'])",
        "rc = cli.main(['torsion', '--n', '3'])",
        "torsion.main_theorem(7); rc = 0",
        "torsion.height(7); rc = 0",
    ], ids=["height", "height_csv", "constants", "torsion", "main_theorem", "height_fn"])
    def test_exact_path_loads_neither(self, statement):
        assert loaded_after(statement) == (0, [])

    @pytest.mark.parametrize("argv", [
        ["integrals", "--n", "1"],
        ["verify", "--n", "2"],
        ["table", "--n-max", "2"],
    ], ids=["integrals", "verify", "table"])
    def test_gauss_kronrod_loads_neither(self, argv):
        # the default scheme is QAGS in pure Python
        assert loaded_after(f"rc = cli.main({argv!r})") == (0, [])

    @pytest.mark.parametrize("argv", [
        ["integrals", "--n", "1", "--scheme", "tanh_sinh"],
        ["verify", "--n", "2", "--scheme", "tanh_sinh"],
        ["forms", "--n", "1"],
    ], ids=["integrals_tanh_sinh", "verify_tanh_sinh", "forms"])
    def test_tanh_sinh_and_forms_load_neither(self, argv):
        assert loaded_after(f"rc = cli.main({argv!r})") == (0, [])

    def test_no_runtime_dependencies(self):
        assert "\ndependencies = []\n" in PYPROJECT.read_text()


def modules_after(argv):
    """Exit status and sys.modules of a fresh interpreter that imported only
    hirzebruch_torsion.cli and ran argv (the names are printed as a Python
    literal, so that no json import joins them)."""
    script = ("import sys\n"
              "import hirzebruch_torsion.cli as cli\n"
              f"rc = cli.main({argv!r})\n"
              "print(sorted(sys.modules), file=sys.stderr)\n"
              "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    return proc.returncode, set(ast.literal_eval(proc.stderr.splitlines()[-1]))


class TestColdImports:
    """A cold process loads only the modules its command runs."""

    def test_constants_loads_no_ring_forms_or_torsion(self):
        code, loaded = modules_after(["constants"])
        assert code == 0
        assert "hirzebruch_torsion.constants" in loaded
        assert not loaded & {f"hirzebruch_torsion.{m}"
                             for m in ("chow", "forms", "radial", "torsion")}

    @pytest.mark.parametrize("argv", [["height", "--n", "3"], ["constants"]],
                             ids=["height", "constants"])
    def test_exact_commands_load_no_dataclasses_inspect_or_json(self, argv):
        code, loaded = modules_after(argv)
        assert code == 0
        assert not loaded & {"dataclasses", "inspect", "json"}

    @pytest.mark.parametrize("argv", [["verify", "--n", "2"],
                                      ["integrals", "--n", "2", "--scheme", "tanh_sinh"],
                                      ["table", "--n-max", "2"]],
                             ids=["verify", "integrals_tanh_sinh", "table"])
    def test_integrating_commands_load_no_dataclasses(self, argv):
        code, loaded = modules_after(argv)
        assert code == 0 and "hirzebruch_torsion.quadrature" in loaded
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("argv", [["height", "--n", "3"],
                                      ["height", "--n-max", "50", "--format", "csv"]],
                             ids=["height", "height_csv"])
    def test_height_loads_neither_torsion_nor_quadrature(self, argv):
        code, loaded = modules_after(argv)
        assert code == 0 and "hirzebruch_torsion.chow" in loaded
        assert not loaded & {"hirzebruch_torsion.torsion", "hirzebruch_torsion.quadrature"}

    @pytest.mark.parametrize("argv", [["constants"], ["torsion", "--n", "3"]],
                             ids=["constants", "torsion"])
    def test_exact_commands_load_no_quadrature(self, argv):
        code, loaded = modules_after(argv)
        assert code == 0
        assert "hirzebruch_torsion.quadrature" not in loaded

    def test_forms_loads_the_kernels_but_not_the_rules(self):
        code, loaded = modules_after(["forms", "--n", "3"])
        assert code == 0 and "hirzebruch_torsion.kernels" in loaded
        assert "hirzebruch_torsion.quadrature" not in loaded

    def test_integrating_command_loads_quadrature(self):
        code, loaded = modules_after(["integrals", "--n", "1"])
        assert code == 0 and "hirzebruch_torsion.quadrature" in loaded

    def test_every_export_resolves(self):
        script = ("import hirzebruch_torsion as ht\n"
                  "from importlib import import_module\n"
                  "from hirzebruch_torsion import *\n"
                  "for name in ht.__all__:\n"
                  "    assert name in globals() and name in dir(ht), name\n"
                  "    if name != '__version__':\n"
                  "        module = import_module(ht.__name__ + '.' + ht._EXPORTS[name])\n"
                  "        assert getattr(ht, name) is getattr(module, name), name\n"
                  "print(len(ht.__all__))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["25"]


class TestTanhSinh:
    def test_verify_passes_where_scipy_was_wrong(self):
        code, out, _ = run_cli("verify", "--n-list", "57,58", "--scheme", "tanh_sinh")
        assert code == 0 and "all passed" in out


class TestFormsGrid:
    @pytest.mark.parametrize("u_min,u_max,points", [
        (1e-3, 1e3, 20), (0.5, 7.0, 2), (1e-6, 1e9, 57), (2.0, 3.0, 11)])
    def test_matches_numpy_geomspace(self, u_min, u_max, points, capsys):
        np = pytest.importorskip("numpy")
        assert cli.main(["forms", "--n", "1", "--form", "base_x", "--u-min", repr(u_min),
                         "--u-max", repr(u_max), "--grid-points", str(points)]) == 0
        us = [float(row.split(",")[0]) for row in capsys.readouterr().out.split()[1:]]
        want = np.geomspace(u_min, u_max, points)
        assert len(us) == points and us[0] == u_min and us[-1] == u_max
        # numpy's power and C's pow may differ in the last bit
        assert all(abs(u - w) <= 1e-15 * w for u, w in zip(us, want))


class TestConfigErrors:
    def test_missing_n(self):
        code, _, _ = run_cli("height")
        assert code == 2

    def test_negative_n(self):
        code, _, _ = run_cli("height", "--n", "-3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("torsion", "--n", "3", "--n-list", "4"),
        ("height", "--n", "3", "--n-list", "4"),
        ("height", "--n", "3", "--n-max", "1"),
        ("verify", "--n-list", "1,2", "--n-max", "1"),
        ("table", "--n", "0", "--n-max", "1"),
    ], ids=["torsion", "height_list", "height_max", "verify", "table"])
    def test_ruling_index_flags_exclude_each_other(self, argv):
        # one flag must not silently override another
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "not allowed with argument" in err and "Traceback" not in err

    def test_bad_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_bad_quad_tol(self):
        code, _, _ = run_cli("integrals", "--n", "1", "--quad-tol", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("integrals", "--n", "1", "--quad-tol", "nan"),
        ("integrals", "--n", "1", "--quad-tol", "inf"),
        ("verify", "--n", "1", "--tol", "inf"),
        ("verify", "--n", "1", "--tol", "nan"),
        ("forms", "--n", "1", "--u-min", "nan"),
        ("forms", "--n", "1", "--u-max", "inf"),
    ], ids=["quad_tol_nan", "quad_tol_inf", "tol_inf", "tol_nan", "u_min_nan", "u_max_inf"])
    def test_non_finite_flag_values(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("forms", "--n", str(10**400), "--form", "alpha"),
        ("integrals", "--n", str(10**400)),
        ("verify", "--n", str(10**400)),
    ], ids=["forms", "integrals", "verify"])
    def test_n_beyond_floating_point(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "too large for floating point" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["torsion", "table"])
    def test_n_beyond_the_factorization_bound(self, command):
        # log(n + 1) needs the prime factors of 10**400 + 1
        proc = subprocess.run([sys.executable, "-m", "hirzebruch_torsion.cli", command,
                               "--n", str(10**400)], capture_output=True, text=True, timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
        assert code == 2 and out == ""
        assert err.startswith("error: cannot factor") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_forms_negative_n(self):
        code, out, err = run_cli("forms", "--n", "-1")
        assert code == 2
        assert err == "error: --n must be >= 0\n" and out == ""

    def test_bad_n_list_token_is_named(self):
        code, _, err = run_cli("verify", "--n-list", "a,b")
        assert code == 2
        assert err.startswith("error: --n-list") and "'a'" in err


class TestDeterminism:
    def test_byte_identical_reports(self):
        args = ("verify", "--n-list", "1", "--format", "csv", "--height-range", "3")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_byte_identical_tables(self):
        args = ("table", "--n-list", "0,1,2")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    @pytest.mark.parametrize("argv, name, value", [
        ("integrals --n 0 --scheme tanh_sinh", "halfline_inverse_cube",
         "quad=0.50000000000000011"),
        ("verify --n 5", "c1c2_product_quadrature", "computed=17.182415204344903"),
    ], ids=["tanh_sinh", "c1c2_quadrature"])
    def test_float_sums_do_not_depend_on_the_interpreter(self, capsys, argv, name, value):
        # the quadrature sums fold left to right, where sum() compensates its
        # float additions from Python 3.12 on and would change these digits
        cli.main(argv.split())
        rows = [line for line in capsys.readouterr().out.splitlines() if f" {name} " in line]
        assert len(rows) == 1 and value in rows[0].split()

    def test_stored_golden_outputs(self, capsys):
        # the benchmark's stored stdout of the exact commands, byte for byte
        golden = json.loads(GOLDEN.read_text())
        assert len(golden) == 44
        for argv, stdout in golden.items():
            assert cli.main(argv.split()) == 0, argv
            assert capsys.readouterr().out == stdout, argv


class TestFormatExact:
    def test_folding(self):
        value = torsion.closed_tau(1)
        text = cli.format_exact(value)
        assert text.endswith("2*tau_P1")

    def test_negative_multiple(self):
        text = cli.format_exact(torsion.closed_tau_p1().scale(-2))
        assert text == "-2*tau_P1"

    def test_unfoldable_passthrough(self):
        v = log_rational(Fraction(3, 2))
        assert cli.format_exact(v) == str(v)

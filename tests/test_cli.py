"""Command-line entry point: exit codes, outputs, determinism."""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hyperwave as hw
from hyperwave import cli, nonlinear


def _write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = _write_cfg(tmp_path, f"{command}.json", cfg)
    out_dir = tmp_path / out
    code = cli.main([command, "--config", cfg_path, "--out", str(out_dir),
                     *extra])
    return code, out_dir


def test_evolve_linear_data_closed_form(tmp_path):
    cfg = {"grid_n": 64,
           "potential": {"kind": "constant", "value": 0.0},
           "data": {"kind": "linear"},
           "s_max": 3.0, "ds": 0.0005, "store_every": 400}
    code, out = _run(tmp_path, "evolve", cfg)
    assert code == 0
    for name in ("results.json", "series.csv", "manifest.json"):
        assert (out / name).exists()
    lines = (out / "series.csv").read_text().strip().split("\n")
    assert lines[0] == "s,energy,l2,l6,sup"
    # data f = y, g = 0 evolves as y * a(s) with a(s) = exp(-s)(2 - exp(-s));
    # the L2 column is then a(s) * sqrt(2/3) and the nodal sup is
    # a(s) * max|y_j| (the node family excludes the endpoints)
    ymax = np.cos(np.pi / 128.0)
    for row in lines[1:]:
        s, _, l2, _, sup = (float(c) for c in row.split(","))
        a = np.exp(-s) * (2.0 - np.exp(-s))
        assert abs(l2 - a * np.sqrt(2.0 / 3.0)) < 1e-6
        assert abs(sup - a * ymax) < 1e-6
    res = json.loads((out / "results.json").read_text())
    assert abs(res["final_s"] - 3.0) < 1e-12
    assert res["potential"] == "constant(0)"


def test_spectrum_yangmills_empty(tmp_path):
    cfg = {"grid_n": 48, "potential": {"kind": "constant", "value": -1.0},
           "window": {"re_max": 2.0, "im_max": 10.0}}
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["num_roots"] == 0
    assert res["roots"] == []


def test_spectrum_constructed_root(tmp_path):
    cfg = {"grid_n": 48, "potential": {"kind": "constant", "value": -6.0},
           "window": {"re_max": 2.0, "im_max": 10.0}}
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["num_roots"] == 1
    root = res["roots"][0]
    assert abs(root["re"] - 1.0) < 1e-8 and abs(root["im"]) < 1e-8
    assert root["multiplicity"] == 1
    assert root["nilpotency"] == 0


def test_determinism_byte_identical(tmp_path):
    cfg = {"grid_n": 32, "mode": "free",
           "ensemble": {"count": 4, "band_limit": 4, "seed": 42},
           "exponents": [[2, 4], [3, 6]],
           "s_max": 4.0, "num_slices": 80, "refine": False}
    code1, out1 = _run(tmp_path, "strichartz", cfg, out="a")
    code2, out2 = _run(tmp_path, "strichartz", cfg, out="b")
    assert code1 == 0 and code2 == 0
    for name in ("results.json", "series.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_draws(tmp_path):
    cfg = {"grid_n": 32, "mode": "free",
           "ensemble": {"count": 4, "band_limit": 4, "seed": 42},
           "exponents": [[2, 4]],
           "s_max": 4.0, "num_slices": 80, "refine": False}
    _, out1 = _run(tmp_path, "strichartz", cfg, out="s1",
                   extra=("--seed", "1"))
    _, out2 = _run(tmp_path, "strichartz", cfg, out="s2",
                   extra=("--seed", "2"))
    _, out3 = _run(tmp_path, "strichartz", cfg, out="s3",
                   extra=("--seed", "1"))
    r1 = (out1 / "results.json").read_bytes()
    assert r1 != (out2 / "results.json").read_bytes()
    assert r1 == (out3 / "results.json").read_bytes()


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["evolve", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"grid_n": 64,,}')
    code = cli.main(["evolve", "--config", str(p),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_non_object_root(tmp_path, capsys):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    code = cli.main(["evolve", "--config", str(p),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "object" in capsys.readouterr().err


def test_unknown_key_reports_path(tmp_path, capsys):
    cfg = {"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1.0,
           "dss": 0.01}
    code, _ = _run(tmp_path, "evolve", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "dss" in err and "unknown key" in err


def test_bad_enum_value(tmp_path, capsys):
    cfg = {"grid_n": 32,
           "potential": {"kind": "gaussian", "value": 1.0},
           "data": {"kind": "linear"}, "s_max": 1.0}
    code, _ = _run(tmp_path, "evolve", cfg)
    assert code == 2
    assert "kind" in capsys.readouterr().err


def test_numerical_guard_exit_code(tmp_path, capsys):
    # a resolvent probe right on top of an eigenvalue, and cubic data too
    # large for the Picard contraction (amplitude 10 still converges)
    runs = [("resolvent-check",
             {"grid_n": 48, "potential": {"kind": "constant", "value": -6.0},
              "lambda": {"re": 1.0, "im": 0.0}}, "NearEigenvalueError"),
            ("yangmills",
             {"grid_n": 32,
              "data": {"kind": "bump", "amplitude": 30.0, "width": 0.5},
              "s_max": 5.0, "ds": 0.05, "data_threshold": 1e9},
             "ContractionFailureError")]
    for command, cfg, guard in runs:
        code, _ = _run(tmp_path, command, cfg)
        assert code == 3
        assert f"numerical guard: {guard}:" in capsys.readouterr().err


_BUMP = {"kind": "bump", "amplitude": 0.05, "width": 0.6}
_ENSEMBLE = {"count": 2, "band_limit": 2, "seed": 1}


@pytest.mark.parametrize("command,cfg", [
    ("evolve", {"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1.0,
                "store_every": 0}),
    ("evolve", {"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1.0,
                "store_every": True}),
    ("strichartz", {"grid_n": 32, "mode": "free", "ensemble": _ENSEMBLE,
                    "exponents": [[1, 2]], "s_max": 2.0}),
    ("crosscheck", {"grid_n": 32, "data": _BUMP, "y_max": 0.95}),
    ("yangmills", {"grid_n": 32, "data": dict(_BUMP, energy=1.0)}),
    ("resolvent-check", {"grid_n": 32,
                         "potential": {"kind": "constant", "value": -1.0},
                         "lambda": {"re": 0.5, "im": 2.0}})])
def test_out_of_range_config_value_is_a_config_error(tmp_path, capsys,
                                                     command, cfg):
    code, _ = _run(tmp_path, command, cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err


_FREE_SCAN = {"grid_n": 16, "mode": "free", "ensemble": _ENSEMBLE,
              "s_max": 0.5, "num_slices": 8}


@pytest.mark.parametrize("command,cfg,message", [
    ("strichartz", dict(_FREE_SCAN, exponents=5),
     "exponents: expected a nonempty list of [p, q] pairs"),
    ("strichartz", dict(_FREE_SCAN, exponents=[[2]]),
     "exponents[0]: expected a [p, q] pair"),
    ("strichartz", dict(_FREE_SCAN, exponents=[[2, "x"]]),
     "exponents[0][1]: expected a number or 'inf'"),
    ("strichartz", dict(_FREE_SCAN, mode="potential"),
     "potential: required key missing"),
    # f = T0 + T1: the T0 term is even
    ("evolve", {"grid_n": 16, "data": {"kind": "cheb", "f": [1.0, 1.0]},
                "s_max": 0.1},
     "data: even-order Chebyshev coefficients present")])
def test_config_guard_names_the_key(tmp_path, capsys, command, cfg, message):
    code, _ = _run(tmp_path, command, cfg)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("potential", {"kind": "constant", "value": -1.0}),
    ("window", {"re_max": 1.0, "im_max": 2.0})])
def test_free_scan_refuses_potential_keys(tmp_path, capsys, key, value):
    # a free scan never reads them, so accepting them would be a no-op
    cfg = {"grid_n": 16, "mode": "free", "ensemble": _ENSEMBLE,
           "s_max": 0.5, "num_slices": 8, key: value}
    code, _ = _run(tmp_path, "strichartz", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "free mode" in err


@pytest.mark.parametrize("num_slices", [0, 4])
def test_potential_scan_refuses_short_time_window(tmp_path, capsys,
                                                  num_slices):
    # the same refusal as a free scan, not a division by zero or a
    # scan of fewer than 8 slices
    cfg = {"grid_n": 16, "mode": "potential",
           "potential": {"kind": "constant", "value": -1.0},
           "ensemble": _ENSEMBLE, "s_max": 0.5, "num_slices": num_slices}
    code, _ = _run(tmp_path, "strichartz", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "num_slices >= 8" in err


@pytest.mark.parametrize("potential", [
    {"kind": "even_poly", "coeffs": [True, -6]},
    {"kind": "even_poly", "coeffs": [-6, False]},
    {"kind": "constant", "value": True}])
def test_boolean_potential_number_is_a_config_error(tmp_path, capsys,
                                                    potential):
    # bool is an int subclass in Python; a JSON true is not a number
    code, _ = _run(tmp_path, "spectrum", {"grid_n": 32,
                                          "potential": potential})
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", [["a"], [], [0, True]])
def test_cheb_data_needs_a_number_list(tmp_path, capsys, coeffs):
    # the same check as even_poly coefficients: a nonempty list of
    # numbers, booleans refused
    cfg = {"grid_n": 16, "data": {"kind": "cheb", "f": coeffs},
           "s_max": 0.5}
    code, _ = _run(tmp_path, "evolve", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "data.f" in err


@pytest.mark.parametrize("command,cfg", [
    ("resolvent-check", {"grid_n": 16,
                         "potential": {"kind": "constant", "value": -1.0},
                         "lambda": {"re": 0.05, "im": 2.0},
                         "num_states": 1, "seed": "abc"}),
    ("strichartz", {"grid_n": 16, "mode": "free", "s_max": 0.5,
                    "num_slices": 8,
                    "ensemble": dict(_ENSEMBLE, seed="abc")})])
def test_seed_override_still_checks_the_config_seed(tmp_path, capsys,
                                                    command, cfg):
    code, _ = _run(tmp_path, command, cfg, extra=("--seed", "3"))
    assert code == 2
    assert "seed: expected int" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,extra", [
    ("resolvent-check", {"grid_n": 16,
                         "potential": {"kind": "constant", "value": -1.0},
                         "lambda": {"re": 0.05, "im": 2.0},
                         "num_states": 1, "seed": -1}, ()),
    ("resolvent-check", {"grid_n": 16,
                         "potential": {"kind": "constant", "value": -1.0},
                         "lambda": {"re": 0.05, "im": 2.0},
                         "num_states": 1}, ("--seed", "-5")),
    ("strichartz", {"grid_n": 16, "mode": "free", "s_max": 0.5,
                    "num_slices": 8,
                    "ensemble": dict(_ENSEMBLE, seed=-1)}, ())])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, cfg,
                                         extra):
    code, _ = _run(tmp_path, command, cfg, extra=extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed >= 0" in err


def test_seed_override_stands_in_for_a_missing_ensemble_seed(tmp_path):
    ens = {k: v for k, v in _ENSEMBLE.items() if k != "seed"}
    cfg = {"grid_n": 16, "mode": "free", "s_max": 0.5, "num_slices": 8,
           "ensemble": ens}
    assert _run(tmp_path, "strichartz", cfg, out="o1")[0] == 2
    code, out = _run(tmp_path, "strichartz", cfg, out="o2",
                     extra=("--seed", "3"))
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())[
        "resolved"]["seed"] == 3


@pytest.mark.parametrize("command,text,literal", [
    ("evolve", '{"grid_n": 32, "data": {"kind": "linear"},'
               ' "s_max": Infinity}', "Infinity"),
    ("evolve", '{"grid_n": 32, "data": {"kind": "linear"},'
               ' "s_max": -Infinity}', "-Infinity"),
    ("evolve", '{"grid_n": 32, "data": {"kind": "linear"},'
               ' "s_max": 1e400}', "1e400"),
    ("spectrum", '{"grid_n": 32, "potential": {"kind": "even_poly",'
                 ' "coeffs": [NaN]}}', "NaN"),
    # integers too large for a float; at 5001 digits int() itself
    # refuses the literal (Python's digit limit)
    ("evolve", '{"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1'
               + "0" * 400 + "}", "(401 characters)"),
    ("evolve", '{"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1'
               + "0" * 5000 + "}", "(5001 characters)")],
    ids=["inf", "minus-inf", "overflow", "nan", "overflow-int",
         "overflow-int-digit-limit"])
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys,
                                                    command, text, literal):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    code = cli.main([command, "--config", str(p),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and literal in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(cfg, out_dir, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, "evolve", boom)
    cfg = {"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1.0}
    code, _ = _run(tmp_path, "evolve", cfg)
    assert code == 4
    assert "synthetic failure" in capsys.readouterr().err


def test_manifest_contents(tmp_path):
    cfg = {"grid_n": 32, "data": {"kind": "linear"}, "s_max": 1.0,
           "ds": 0.002}
    code, out = _run(tmp_path, "evolve", cfg, extra=("--seed", "7"))
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "evolve"
    assert man["config"] == cfg
    assert man["seed_override"] == 7
    assert man["versions"]["hyperwave"]
    assert man["versions"]["numpy"] == np.__version__
    assert man["resolved"]["grid_n"] == 32


def test_console_module_invocation(tmp_path):
    cfg_path = _write_cfg(tmp_path, "ev.json",
                          {"grid_n": 32, "data": {"kind": "linear"},
                           "s_max": 0.5, "ds": 0.002})
    proc = subprocess.run(
        [sys.executable, "-m", "hyperwave.cli", "evolve",
         "--config", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


def test_cli_import_leaves_integrate_and_interpolate_unloaded():
    # the package's adaptive solver and spline are its own, so no command
    # needs scipy.integrate or scipy.interpolate; at import either would
    # cost every command
    code = ("import sys, hyperwave.cli; print(sorted(m for m in"
            " ('scipy.integrate', 'scipy.interpolate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stepping_commands_leave_scipy_linalg_unloaded(tmp_path):
    # e^{hL} comes from the package's own kernel, the Cauchy seed's
    # spline solves its slope system itself, the resolvent's matrix
    # route is a numpy solve and the Riesz projection of a scan with a
    # growing mode loads only scipy's LAPACK extension, so a process that
    # steps the semigroup or checks the resolvent never pays for loading
    # scipy.linalg
    cfgs = {
        "ev": ("evolve", {"grid_n": 16, "data": {"kind": "linear"},
                          "s_max": 0.5}),
        "ym": ("yangmills", {"grid_n": 16, "data": dict(_BUMP, energy=0.01),
                             "s_max": 0.5}),
        "sp": ("strichartz", {"grid_n": 16, "mode": "potential",
                              "potential": {"kind": "constant",
                                            "value": -1.0},
                              "window": {"re_max": 0.5, "im_max": 1.0},
                              "ensemble": {"count": 2, "band_limit": 2,
                                           "seed": 1},
                              "s_max": 0.5, "num_slices": 8}),
        # V = -6 has its growing mode at lambda = 1, inside the window
        "sg": ("strichartz", {"grid_n": 16, "mode": "potential",
                              "potential": {"kind": "constant",
                                            "value": -6.0},
                              "window": {"re_max": 2.0, "im_max": 1.0},
                              "ensemble": {"count": 2, "band_limit": 2,
                                           "seed": 1},
                              "s_max": 0.5, "num_slices": 8}),
        "sf": ("strichartz", {"grid_n": 16, "mode": "free",
                              "ensemble": {"count": 2, "band_limit": 2,
                                           "seed": 1},
                              "s_max": 0.5, "num_slices": 8}),
        "cc": ("crosscheck", {"grid_n": 16, "r_max": 6.0, "dr": 0.25,
                              "data": dict(_BUMP, energy=0.01)}),
        "rc": ("resolvent-check", {"grid_n": 16,
                                   "potential": {"kind": "constant",
                                                 "value": -1.0},
                                   "lambda": {"re": 0.05, "im": 2.0},
                                   "num_states": 2}),
    }
    runs = [[cmd, "--config", _write_cfg(tmp_path, f"{name}.json", cfg),
             "--out", str(tmp_path / name)]
            for name, (cmd, cfg) in cfgs.items()]
    code = ("import sys, hyperwave.cli\n"
            f"for argv in {runs!r}:\n"
            "    print('exit', hyperwave.cli.main(argv),"
            " 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    exits = [ln for ln in proc.stdout.splitlines() if ln.startswith("exit")]
    assert exits == ["exit 0 False"] * 7


def test_resolvent_check_leaves_integrate_unloaded(tmp_path):
    # a polynomial potential's Green function takes both branches from
    # the Taylor kernel, so the README resolvent check never reaches the
    # adaptive solver, and nothing else loads scipy.integrate
    cfg = _write_cfg(tmp_path, "rc.json", {
        "grid_n": 128, "potential": {"kind": "constant", "value": -1.0},
        "lambda": {"re": 0.05, "im": 2.0}, "num_states": 10, "seed": 7})
    argv = ["resolvent-check", "--config", cfg, "--out", str(tmp_path / "o")]
    code = ("import sys, hyperwave.cli; code = hyperwave.cli.main("
            f"{argv!r}); print(code, 'scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_spectrum_with_a_root_leaves_integrate_unloaded(tmp_path):
    # the README spectrum run polishes its roots and checks each with one
    # adaptive DOP853 solve, build_u1, the package's own transcription;
    # its Riesz projection loads scipy's LAPACK extension, not scipy.linalg
    cfg = _write_cfg(tmp_path, "sp.json", {
        "grid_n": 64, "potential": {"kind": "constant", "value": -6.0},
        "window": {"re_max": 2.0, "im_max": 10.0}})
    out = tmp_path / "o"
    argv = ["spectrum", "--config", cfg, "--out", str(out)]
    code = ("import sys, hyperwave.cli; code = hyperwave.cli.main("
            f"{argv!r}); print(code, 'scipy.integrate' in sys.modules,"
            " 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False False"
    assert json.loads((out / "results.json").read_text())["num_roots"] == 1


def test_crosscheck_leaves_interpolate_unloaded(tmp_path):
    # the Cauchy seed's spline is the package's own, so a crosscheck
    # process never pays for loading scipy.interpolate
    cfg = _write_cfg(tmp_path, "cc.json", {
        "grid_n": 16, "r_max": 6.0, "dr": 0.25,
        "data": dict(_BUMP, energy=0.01)})
    argv = ["crosscheck", "--config", cfg, "--out", str(tmp_path / "o")]
    code = ("import sys, hyperwave.cli; code = hyperwave.cli.main("
            f"{argv!r}); print(code, 'scipy.interpolate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_benchmark_tracer_finds_every_tracked_name():
    # the benchmark's tracer wraps its tracked names by getattr, so a
    # deleted or renamed one breaks its traced runs; read, not imported,
    # so nothing is written under benchmarks/
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    before = {(m, name): getattr(sys.modules[f"hyperwave.{m}"], name)
              for m, names in tracer.TRACKED.items() for name in names
              if "." not in name}
    with tracer.Tracer():
        assert all(getattr(sys.modules[f"hyperwave.{m}"], name) is not fn
                   for (m, name), fn in before.items())
    assert all(getattr(sys.modules[f"hyperwave.{m}"], name) is fn
               for (m, name), fn in before.items())


def test_crosscheck_command(tmp_path):
    cfg = {"grid_n": 64, "dr": 0.03125,
           "data": {"kind": "bump", "amplitude": 0.05, "width": 0.6},
           "refine": False}
    code, out = _run(tmp_path, "crosscheck", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["discrepancy"] < 1e-3


def test_crosscheck_refined_run(tmp_path):
    cfg = {"grid_n": 16, "r_max": 6.0, "dr": 0.25, "refine": True,
           "data": dict(_BUMP, energy=0.01)}
    code, out = _run(tmp_path, "crosscheck", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    for key in ("discrepancy", "discrepancy_refined", "contraction_factor"):
        assert np.isfinite(res[key])
    rows = (out / "series.csv").read_text().strip().split("\n")
    assert len(rows) == 3  # header, the run and its refinement


def test_resolvent_check_command(tmp_path):
    # the Green-function route against the LU solve of the generator
    cfg = {"grid_n": 32, "potential": {"kind": "constant", "value": -1.0},
           "lambda": {"re": 0.05, "im": 2.0}, "num_states": 3, "seed": 7}
    code, out = _run(tmp_path, "resolvent-check", cfg)
    assert code == 0
    rows = (out / "series.csv").read_text().strip().split("\n")
    assert rows[0] == "state,rel_diff,identity_defect"
    assert len(rows) == 4
    res = json.loads((out / "results.json").read_text())
    assert res["num_states"] == 3
    assert res["max_rel_diff"] <= 1e-6
    assert res["max_identity_defect"] <= 1e-8


def test_resolvent_check_benchmark_seed_108(tmp_path):
    # the `resolvent` job of the benchmark's seed 108, where a third-order
    # Green route read 1.293e-6 against the benchmark's 1e-6 gate; on
    # Gauss panels the routes agree to round-off
    cfg = {"grid_n": 128, "potential": {"kind": "constant", "value": -1.0},
           "lambda": {"re": 0.05, "im": 2.0}, "num_states": 10,
           "seed": 895791808}
    code, out = _run(tmp_path, "resolvent-check", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["max_rel_diff"] <= 1e-10


# At n = 16 a non-constant potential parts the routes by the matrix
# route's own collocation error (1e-5 to 1e-3 for [-7, 2], gone by
# n = 32), so `even_poly` takes the n = 512 corners.
@pytest.mark.parametrize("n, potential, re, im", [
    (16, {"kind": "constant", "value": -1.0}, 1e-3, 0.0),
    (16, {"kind": "constant", "value": -1.0}, 0.25, 0.0),
    (16, {"kind": "constant", "value": -1.0}, 1e-3, 40.0),
    (16, {"kind": "constant", "value": -1.0}, 0.25, -40.0),
    (512, {"kind": "constant", "value": -1.0}, 0.25, 40.0),
    (512, {"kind": "even_poly", "coeffs": [-7.0, 2.0]}, 1e-3, 40.0),
    (512, {"kind": "even_poly", "coeffs": [-7.0, 2.0]}, 0.25, -40.0),
])
def test_resolvent_check_routes_agree_at_the_corners(tmp_path, n, potential,
                                                     re, im):
    # Re lambda and |Im lambda| at the ends of their ranges, the smallest
    # and a large grid: the Green route's panels are sized by |lambda|
    cfg = {"grid_n": n, "potential": potential,
           "lambda": {"re": re, "im": im}, "num_states": 3, "seed": 11}
    code, out = _run(tmp_path, "resolvent-check", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["max_rel_diff"] <= 1e-8


@pytest.mark.parametrize("data", [
    {"kind": "mode"}, {"kind": "zero"},
    {"kind": "cheb", "f": [0, 1.0, 0, -0.5], "g": [0, 0.25]},
    # f and g defaulted to [0.0], and f, g of different lengths
    {"kind": "cheb"}, {"kind": "cheb", "f": [0, 1]}])
def test_evolve_data_kinds(tmp_path, data):
    cfg = {"grid_n": 16, "data": data, "s_max": 0.5, "ds": 0.01,
           "store_every": 10}
    code, out = _run(tmp_path, "evolve", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["num_slices"] == 6
    assert np.isfinite(res["max_energy"])


def test_crosscheck_leapfrog_overflow_is_a_numerical_guard(tmp_path):
    # dt^2 W^2 >> 1 makes the Cauchy leapfrog overflow: exit 3, not 4
    cfg_path = _write_cfg(tmp_path, "cc.json",
                          {"grid_n": 16, "r_max": 6.0, "dr": 0.25,
                           "data": {"kind": "bump", "amplitude": 200,
                                    "width": 0.6}})
    proc = subprocess.run(
        [sys.executable, "-m", "hyperwave.cli", "crosscheck",
         "--config", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "numerical guard: BlowUpError" in proc.stderr


def test_yangmills_command(tmp_path):
    cfg = {"grid_n": 48,
           "data": {"kind": "bump", "amplitude": 1.0, "width": 0.6,
                    "energy": 0.01},
           "s_max": 4.0, "ds": 0.05}
    code, out = _run(tmp_path, "yangmills", cfg)
    assert code == 0
    res = json.loads((out / "results.json").read_text())
    assert res["converged"] is True
    assert res["picard_vs_direct_linf_l6"] < 1e-4


def _count_direct_solves(monkeypatch):
    """Patch both bindings of nonlinear_evolve_direct (the CLI's and the
    one asymptotic_stability_report calls) to record each call's step
    size and trajectory."""
    calls = []
    solve = nonlinear.nonlinear_evolve_direct

    def counted(*args, **kwargs):
        traj = solve(*args, **kwargs)
        calls.append((kwargs.get("ds"), traj))
        return traj

    monkeypatch.setattr(cli, "nonlinear_evolve_direct", counted)
    monkeypatch.setattr(nonlinear, "nonlinear_evolve_direct", counted)
    return calls


def _yangmills_cfg(n, s_max, ds):
    return {"grid_n": n, "data": dict(_BUMP, energy=0.01), "s_max": s_max,
            "ds": ds}


# (grid_n, s_max, ds, substeps): sub = ceil(ds / max(4/n^2, s_max/4000))
_ONE_SOLVE_CASES = [
    (64, 10.0, 0.05, 20),    # README and benchmark config: 4,000 steps
    (16, 10.0, 0.001, 1),    # 10,000 steps, read at stride 2 by the report
    (64, 1.0, 0.03, 31),     # s_max / ds is not a whole number
    (64, 0.3, 0.1, 103),     # s_max / ds rounds to 2.9999999999999996
    # s_max / h rounds to 4001.9999999999986: an absolute 1e-12 allowance
    # in the step count would lose the last Picard node
    (32, 16.269, 0.561, 138),
]


@pytest.mark.parametrize("n, s_max, ds, sub", _ONE_SOLVE_CASES)
def test_yangmills_one_direct_solve_serves_both_checks(tmp_path, monkeypatch,
                                                       n, s_max, ds, sub):
    calls = _count_direct_solves(monkeypatch)
    code, out = _run(tmp_path, "yangmills", _yangmills_cfg(n, s_max, ds))
    assert code == 0
    assert len(calls) == 1
    h, traj = calls[0]
    assert h == ds / sub
    # every sub-th row lands on a Picard node
    grid = hw.make_grid(n)
    nodes = hw.make_propagators(grid, ds, s_max).times()
    on_nodes = traj.times[::sub][:nodes.size]
    assert on_nodes.size == nodes.size
    assert np.max(np.abs(on_nodes - nodes)) <= 1e-12
    # the stability block is the report of a solve at that step
    res = json.loads((out / "results.json").read_text())
    f, g = cli._build_data(grid, _yangmills_cfg(n, s_max, ds)["data"], "data")
    want = hw.asymptotic_stability_report(f, g, s_max, ds=h)
    assert res["stability"].keys() == want.keys()
    for key in want:
        assert res["stability"][key] == want[key], key


def test_yangmills_warmup_takes_no_more_steps(tmp_path, monkeypatch):
    # the benchmark warm-up config: 10 Picard steps of 4 substeps, fewer
    # than the 10 + 32 of separate solves at ds and at 4/n^2
    calls = _count_direct_solves(monkeypatch)
    code, _ = _run(tmp_path, "yangmills",
                   {"grid_n": 16, "data": dict(_BUMP, energy=0.01),
                    "s_max": 0.5})
    assert code == 0
    steps = [len(traj) - 1 for _, traj in calls]
    assert steps == [40]


def _cell(v):
    """Per-cell oracle of the CSV writer: an int as str() writes it, any
    other number in "%.15g"."""
    return str(int(v)) if isinstance(v, (int, np.integer)) \
        else "%.15g" % float(v)


def test_csv_float_rows_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], size=(300, 4)) \
        * 10.0 ** rng.uniform(-21.0, 5.0, size=(300, 4))
    rows = values.tolist() + [
        [-0.0, np.inf, -np.inf, np.nan],
        [1e16, 3.0, 0.1, 123456789012345.6],
        list(np.array([2.5, -1e-21, 1e5, 0.0])),  # NumPy scalars
    ]
    header = ["a", "b", "c", "d"]
    cli._write_csv(tmp_path / "series.csv", header, rows)
    want = "\n".join([",".join(header)] + [
        ",".join(_cell(v) for v in row) for row in rows]) + "\n"
    assert (tmp_path / "series.csv").read_text() == want


@pytest.mark.parametrize("header, rows", [
    # an all-float table, as `evolve` and `yangmills` write it
    (["s", "a", "b"], (np.random.default_rng(2).standard_normal((50, 3))
                       * 10.0 ** np.arange(-8, 7, 7)).tolist()
     + [[0.0, -0.0, 1e300], [np.inf, np.nan, 5e-324]]),
    # `crosscheck`: a float or int s1 from the config beside the grid size
    (["s", "dr", "grid_n", "discrepancy"],
     [(5.0, 0.03125, 64, 1.1683713942693555e-07),
      (5, 0.015625, 128, 3.930342409961141e-08)]),
    # `resolvent-check`: an int state index beside float defects
    (["state", "rel_diff", "identity_defect"],
     [(i, 10.0 ** -i / 3.0, 2e-15 * i) for i in range(10)]),
    # `spectrum`: int multiplicity and nilpotency, -1 where none
    (["re", "im", "multiplicity", "nilpotency", "residual"],
     [(1.0, 0.0, 1, 0, 2.5e-14), (0.0, -0.0, -1, -1, 1e-12)]),
    # `strichartz`: an int member index; the largest int "%.15g" keeps
    (["member", "ratio_2_4"], [[0, 0.5], [999, 1.25], [10 ** 15 - 1, 2.0]]),
    (["a"], []),
])
def test_csv_tables_match_per_cell_format(tmp_path, header, rows):
    cli._write_csv(tmp_path / "series.csv", header, rows)
    want = "\n".join([",".join(header)] + [
        ",".join(_cell(v) for v in row) for row in rows]) + "\n"
    assert (tmp_path / "series.csv").read_bytes() == want.encode()


def _explicit_jsonable(obj):
    """Every value converted to a JSON type by hand, recursively: the
    oracle for the encoder's `default` hook."""
    if isinstance(obj, dict):
        return {str(k): _explicit_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_explicit_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_explicit_jsonable(v) for v in obj.tolist()]
    if obj is None:
        return None
    return str(obj)


def test_json_default_matches_explicit_conversion(tmp_path):
    obj = {
        "str": "x", "int": 3, "bool": True, "none": None, "float": 0.1,
        "nan": np.nan, "inf": -np.inf, "f64": np.float64(1.0 / 3.0),
        "f32": np.float32(0.1), "i64": np.int64(-7), "np_bool": np.bool_(0),
        "complex": 1.0 - 2.0j, "c128": np.complex128(0.5 + 1e-300j),
        "array": np.arange(6.0).reshape(2, 3),
        "complex_array": np.array([1.0 + 2.0j, -0.0j]),
        "int_array": np.array([1, 2], dtype=np.int32),
        "bool_array": np.array([True, False]),
        "tuple": (1, (2.5, "y")),
        "list": [np.float64(2.0), {"nested": np.int8(4)}],
        "path": Path("a") / "b", "empty": {},
    }
    cli._write_json(tmp_path / "results.json", obj)
    want = json.dumps(_explicit_jsonable(obj), sort_keys=True, indent=2)
    assert (tmp_path / "results.json").read_text() == want + "\n"


def _readme_examples():
    """(name, command, config) of each `cat > X.json <<'EOF'` example in
    README.md, with the command that the example runs on it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    pattern = (r"cat > (\w+\.json) <<'EOF'\n(.*?)\nEOF\n"
               r"hyperwave (\S+) --config \1 ")
    return [(name, command, body)
            for name, body, command in re.findall(pattern, text, re.S)]


def test_readme_examples_run(tmp_path):
    examples = _readme_examples()
    assert sorted(command for _, command, _ in examples) == \
        sorted(cli.COMMANDS)
    for name, command, body in examples:
        cfg = tmp_path / name
        cfg.write_text(body)
        out = tmp_path / name.replace(".json", "")
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(out)]) == 0, name
        assert (out / "results.json").exists()

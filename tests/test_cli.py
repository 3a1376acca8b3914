"""Command-line entry point: exit codes, outputs, determinism."""

import json
import subprocess
import sys

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
    # resolvent probe right on top of an eigenvalue trips the guard
    cfg = {"grid_n": 48, "potential": {"kind": "constant", "value": -6.0},
           "lambda": {"re": 1.0, "im": 0.0}}
    code, _ = _run(tmp_path, "resolvent-check", cfg)
    assert code == 3
    assert "numerical guard" in capsys.readouterr().err


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


@pytest.mark.parametrize("data", [
    {"kind": "mode"}, {"kind": "zero"},
    {"kind": "cheb", "f": [0, 1.0, 0, -0.5], "g": [0, 0.25]}])
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
    steps = [round(traj.times[-1] / traj.step) for _, traj in calls]
    assert steps == [40]


def test_csv_float_rows_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], size=(300, 4)) \
        * 10.0 ** rng.uniform(-21.0, 5.0, size=(300, 4))
    rows = values.tolist() + [
        [-0.0, np.inf, -np.inf, np.nan],
        [1e16, 3.0, 0.1, 123456789012345.6],
        [7, True, "x", 0.5],                      # mixed: per cell
        list(np.array([2.5, -1e-21, 1e5, 0.0])),  # NumPy scalars: per cell
    ]
    header = ["a", "b", "c", "d"]
    cli._write_csv(tmp_path / "series.csv", header, rows)
    want = "\n".join([",".join(header)] + [
        ",".join(cli._fmt_cell(v) for v in row) for row in rows]) + "\n"
    assert (tmp_path / "series.csv").read_text() == want

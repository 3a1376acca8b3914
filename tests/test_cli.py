"""Command-line entry point: exit codes, outputs, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hyperwave import cli


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

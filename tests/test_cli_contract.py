"""The CLI's config contract: the key tables, the size caps, and a fuzz
test that draws configs from the tables.

Every run goes through `cli.main` in process, so the repo's
`error::RuntimeWarning` filter turns a swallowed warning into exit 4.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperwave import cli, nonlinear, spectral

_CONST = {"kind": "constant", "value": -1.0}
_BUMP = {"kind": "bump", "amplitude": 0.05, "width": 0.6, "energy": 0.01}
_SMALL = {"re_max": 0.5, "im_max": 1.0}
_ENSEMBLE = {"count": 2, "band_limit": 2, "seed": 1}

# one small valid config per command, each run in a fraction of a second
_BASE = {
    "evolve": {"grid_n": 8, "potential": _CONST, "data": _BUMP,
               "s_max": 0.2, "ds": 0.02, "store_every": 2},
    "spectrum": {"grid_n": 8, "potential": _CONST, "window": _SMALL},
    "resolvent-check": {"grid_n": 8, "potential": _CONST,
                        "lambda": {"re": 0.05, "im": 2.0}, "num_states": 1,
                        "seed": 3, "band_limit": 2, "decay": 2.0},
    "strichartz": {"grid_n": 8, "mode": "potential", "potential": _CONST,
                   "window": _SMALL, "ensemble": _ENSEMBLE,
                   "exponents": [[2, 4]], "s_max": 0.5, "num_slices": 8,
                   "refine": False},
    "yangmills": {"grid_n": 8, "data": _BUMP, "s_max": 0.2, "ds": 0.05,
                  "max_iter": 5, "tol": 1e-8, "data_threshold": 0.05},
    "crosscheck": {"grid_n": 8, "data": _BUMP, "s0": 4.0, "s1": 4.5,
                   "y_max": 0.5, "r_max": 6.0, "dr": 0.25, "refine": False},
}

# the library entry points where a run's numerical work starts
_WORK = [(cli, "assemble_generator"), (cli, "find_sigma_v"),
         (cli, "EnsembleSpec"), (cli, "picard_solve"),
         (cli, "nonlinear_evolve_direct"), (cli, "cauchy_cross_check"),
         (cli, "run_free_scan"), (cli, "run_potential_scan"),
         (cli, "_build_data")]

_LITERAL = "__literal__"  # stands for a NaN/Infinity token in the JSON text


def _run(tmp_path, command, cfg, literal=None):
    text = json.dumps(cfg)
    if literal is not None:
        text = text.replace(f'"{_LITERAL}"', literal)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")])


def _forbid_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("numerical work started")

    for owner, name in _WORK:
        monkeypatch.setattr(owner, name, work)


def _with(cfg, path, value):
    """A copy of cfg with the key at path (a tuple) set to value."""
    out = json.loads(json.dumps(cfg))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# one config per cap, just above it (the base configs' other sizes stay
# inside the caps): (command, changes, the cap's name in the refusal)
_OVER_CAP = [
    ("evolve", {"grid_n": cli.MAX_GRID_N + 2}, "grid_n"),
    # ds 0.02, store_every 2: only the step count is above its cap
    ("evolve", {"s_max": 0.02 * (cli.MAX_STEPS + 1)}, "steps"),
    ("evolve", {"grid_n": 16, "store_every": 1,
                "s_max": 0.02 * (cli.MAX_STORED // 16 + 1)},
     "stored values"),
    ("spectrum", {"grid_n": cli.MAX_GRID_N + 2}, "grid_n"),
    ("spectrum", {"window": {"im_max": cli.MAX_IM + 0.5}}, "window"),
    ("resolvent-check", {"lambda": {"re": 0.05, "im": 1e300}}, "lambda.im"),
    ("resolvent-check", {"lambda": {"re": 0.05, "im": -cli.MAX_IM - 0.5}},
     "lambda.im"),
    ("resolvent-check", {"num_states": cli.MAX_NUM_STATES + 1},
     "num_states"),
    ("resolvent-check", {"band_limit": cli.MAX_BAND_LIMIT + 1},
     "band_limit"),
    ("strichartz", {"grid_n": cli.MAX_GRID_N + 2}, "grid_n"),
    ("strichartz", {"refine": True, "grid_n": cli.MAX_GRID_N // 2 + 2},
     "grid_n (doubled by refine)"),
    ("strichartz", {"num_slices": cli.MAX_SCAN // (2 * 8) + 1},
     "ensemble.count x num_slices x grid_n"),
    ("strichartz", {"ensemble": dict(_ENSEMBLE,
                                     band_limit=cli.MAX_BAND_LIMIT + 1)},
     "ensemble.band_limit"),
    ("strichartz", {"exponents": [[2, q] for q in
                                  range(2, cli.MAX_PAIRS + 3)]},
     "exponents (pairs)"),
    ("yangmills", {"grid_n": cli.MAX_GRID_N + 2}, "grid_n"),
    ("yangmills", {"s_max": 0.05 * (cli.MAX_STEPS + 1)}, "steps"),
    ("yangmills", {"grid_n": 512, "s_max": 100.0, "ds": 0.01},
     "stored values"),
    ("crosscheck", {"grid_n": cli.MAX_GRID_N + 2}, "grid_n"),
    ("crosscheck", {"refine": True, "grid_n": cli.MAX_GRID_N // 2 + 2},
     "grid_n (doubled by refine)"),
    ("crosscheck", {"dr": 1e-300}, "leapfrog"),
    ("crosscheck", {"r_max": 1e6}, "leapfrog"),
    # s1 - s0 = 1: only the Lawson step count is above its cap
    ("crosscheck", {"s0": 415.0, "s1": 416.0}, "Lawson steps"),
    ("crosscheck", {"grid_n": 64, "s0": 300.0, "s1": 301.0},
     "stored values"),
    # max|V| (sampled), which sizes the spectral search
    ("spectrum", {"potential": {"kind": "even_poly", "coeffs": [-1, 1e10]}},
     "potential (max |V|)"),
    ("spectrum", {"potential": {"kind": "constant",
                                "value": -1.5 * cli.MAX_POTENTIAL}},
     "potential (max |V|)"),
    ("resolvent-check", {"potential": {"kind": "constant",
                                       "value": 1.5 * cli.MAX_POTENTIAL}},
     "potential (max |V|)"),
    ("strichartz", {"potential": {"kind": "even_poly",
                                  "coeffs": [0, -1.5 * cli.MAX_POTENTIAL]}},
     "potential (max |V|)"),
]


@pytest.mark.parametrize("command,changes,what", _OVER_CAP)
def test_size_above_its_cap_exits_2_before_any_work(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    changes, what):
    cfg = dict(_BASE[command], **changes)
    _forbid_work(monkeypatch)
    assert _run(tmp_path, command, cfg) == 2
    assert f"config error: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_base_configs_run(tmp_path, command):
    assert _run(tmp_path, command, _BASE[command]) == 0


@pytest.mark.parametrize("potential", [
    {"kind": "constant", "value": 1e300},
    {"kind": "even_poly", "coeffs": [0, 1e300]}])
def test_evolve_overflow_is_a_divergence(tmp_path, capsys, potential):
    cfg = {"grid_n": 16, "potential": potential, "data": {"kind": "linear"},
           "s_max": 0.5}
    assert _run(tmp_path, "evolve", cfg) == 3
    assert "DivergenceError" in capsys.readouterr().err


def test_resolvent_check_green_overflow_is_a_numerical_guard(tmp_path,
                                                            capsys):
    # the Taylor branches u1(., +-lambda) of V = 1e6 overflow before they
    # reach y = 0; the Green function refuses them before any NaN reaches
    # a field, and pytest turns any RuntimeWarning into an error
    cfg = {"grid_n": 128, "potential": {"kind": "constant", "value": 1e6},
           "lambda": {"re": 0.1, "im": 0.0}}
    assert _run(tmp_path, "resolvent-check", cfg) == 3
    err = capsys.readouterr().err
    assert "numerical guard: StiffFailureError: the Green function" \
        " overflows" in err


def test_evolve_strong_potential_bound_does_not_overflow(tmp_path):
    # 10 e^{(|V|+1) s} overflows at s ~ 0.07 for V = -1e4
    cfg = {"grid_n": 16, "potential": {"kind": "constant", "value": -1e4},
           "data": {"kind": "linear"}, "s_max": 0.5}
    assert _run(tmp_path, "evolve", cfg) == 0


def test_spectrum_non_finite_contour_is_a_numerical_guard(tmp_path, capsys,
                                                          monkeypatch):
    # u1(0, .) overflows for potential 1e6; its NaN samples must end in
    # the contour guard, not in an int conversion of NaN
    monkeypatch.setattr(spectral, "_u1_zero_path",
                        lambda V, path: path * float("nan"))
    cfg = {"grid_n": 16, "potential": {"kind": "constant", "value": 1e6},
           "window": {"re_max": 1.0, "im_max": 2.0}}
    assert _run(tmp_path, "spectrum", cfg) == 3
    assert "ContourAccuracyError" in capsys.readouterr().err


def test_potential_scan_missing_a_growing_mode_is_a_numerical_guard(
        tmp_path, capsys):
    # V = -1e6 (at the potential cap) has growing modes near 1000, far
    # right of the window; the scan wrote Infinity ratios without this
    # guard
    cfg = _with(_BASE["strichartz"], ("potential", "value"),
                -cli.MAX_POTENTIAL)
    assert _run(tmp_path, "strichartz", cfg) == 3
    assert "outside the search window" in capsys.readouterr().err


@pytest.mark.parametrize("command,path", [
    ("resolvent-check", ("decay",)), ("strichartz", ("ensemble", "decay"))])
def test_negative_decay_is_a_config_error(tmp_path, capsys, command, path):
    assert _run(tmp_path, command, _with(_BASE[command], path, -400)) == 2
    assert "finite decay >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter", [0, -5])
def test_yangmills_without_iterates_is_a_config_error(tmp_path, capsys,
                                                      max_iter):
    cfg = _with(_BASE["yangmills"], ("max_iter",), max_iter)
    assert _run(tmp_path, "yangmills", cfg) == 2
    assert "max_iter >= 1" in capsys.readouterr().err


def test_yangmills_builds_one_propagator_set(tmp_path, monkeypatch):
    calls = []
    build = nonlinear.make_propagators

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(nonlinear, "make_propagators", counted)
    monkeypatch.setattr(cli, "make_propagators", counted, raising=False)
    assert _run(tmp_path, "yangmills", _BASE["yangmills"]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# fuzz: one key at a time set to a hostile value

def _paths(table, cfg):
    """Key paths of a table; nested ones where cfg holds the object, under
    its own kind for an object keyed by "kind"."""
    for key, spec in table.items():
        yield (key,)
        sub, node = spec.kind, cfg.get(key)
        if isinstance(sub, dict) and isinstance(node, dict):
            for path in _paths(cli._table(sub, node, ""), node):
                yield (key,) + path


_HOSTILE = st.one_of(
    st.sampled_from(["x", "", None]),                        # wrong type
    st.booleans(),
    st.just(_LITERAL),                                       # NaN/Infinity
    st.integers(-1000, -1), st.floats(-1e3, -1e-3),          # negative
    st.sampled_from([0, 0.0]),
    st.just([]),
    st.sampled_from([{}, {"a": 1}, [1, 2]]),                 # nested
)


@st.composite
def _hostile_config(draw, command):
    cfg = json.loads(json.dumps(_BASE[command]))
    # draw the nested kinds from the tables
    if "data" in cfg:
        kind = draw(st.sampled_from(list(cli._DATA)))
        cfg["data"] = {"kind": kind, "energy": 0.01} if kind in (
            "linear", "mode") else _BUMP if kind == "bump" else {"kind": kind}
    if "potential" in cfg:
        kind = draw(st.sampled_from(list(cli._POTENTIAL)))
        cfg["potential"] = _CONST if kind == "constant" else {
            "kind": kind, "coeffs": [-1.0, 0.5]}
    if command == "strichartz" and draw(st.booleans()):
        cfg = {k: v for k, v in cfg.items() if k not in ("potential",
                                                         "window")}
        cfg["mode"] = "free"
    if draw(st.integers(0, 9)) == 0:  # a size just above its cap
        changes = draw(st.sampled_from([c for cmd, c, _ in _OVER_CAP
                                        if cmd == command]))
        return dict(cfg, **changes), None, True
    path = draw(st.sampled_from(list(_paths(cli.TABLES[command], cfg))))
    value = draw(_HOSTILE)
    literal = None
    if value == _LITERAL:
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    return _with(cfg, path, value), literal, False


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_config_never_exits_4(tmp_path, monkeypatch, command, data):
    cfg, literal, over_cap = data.draw(_hostile_config(command))
    with monkeypatch.context() as patch:
        if over_cap:
            _forbid_work(patch)
        code = _run(tmp_path, command, cfg, literal)
    assert code in (0, 2, 3), (cfg, literal)
    if literal is not None or over_cap:
        assert code == 2, (cfg, literal)


# extreme magnitudes: every number key of each command, under each data
# and potential kind, set in turn to a value whose square overflows or
# underflows

_MAGNITUDES = (1e300, 1e-300)


def _number_paths(table, cfg):
    """(path, kind) of the "number" and "numbers" keys that _paths walks."""
    for key, spec in table.items():
        sub, node = spec.kind, cfg.get(key)
        if sub in ("number", "numbers"):
            yield (key,), sub
        if isinstance(sub, dict) and isinstance(node, dict):
            for path, kind in _number_paths(cli._table(sub, node, ""), node):
                yield (key,) + path, kind


_DATA_KINDS = [_BUMP, {"kind": "linear", "energy": 0.01},
               {"kind": "mode", "energy": 0.01}, {"kind": "zero"},
               {"kind": "cheb", "f": [0.0, 0.1], "g": [0.0, 0.1],
                "energy": 0.01}]
_POTENTIAL_KINDS = [_CONST, {"kind": "even_poly", "coeffs": [-1.0, 0.5]}]


def _kind_variants(command):
    """The base config with each data kind and with each potential kind
    (and the free scan)."""
    cfg = _BASE[command]
    out = [cfg]
    if "data" in cfg:
        out += [dict(cfg, data=d) for d in _DATA_KINDS]
    if "potential" in cfg:
        out += [dict(cfg, potential=p) for p in _POTENTIAL_KINDS]
    if command == "strichartz":
        out.append(dict({k: v for k, v in cfg.items()
                         if k not in ("potential", "window")}, mode="free"))
    return out


@pytest.mark.parametrize("magnitude", _MAGNITUDES)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_extreme_magnitude_never_exits_4(tmp_path, command, magnitude):
    for cfg in _kind_variants(command):
        for path, kind in _number_paths(cli.TABLES[command], cfg):
            value = [0.0, magnitude] if kind == "numbers" else magnitude
            code = _run(tmp_path, command, _with(cfg, path, value))
            assert code in (0, 2, 3), (cfg, path, value)


@pytest.mark.parametrize("key,value,code,err", [
    # narrower than any node spacing: the bump is 0 at every node
    ("width", 1e-300, 0, ""),
    ("amplitude", 1e300, 2, "config error: data: the data's energy norm"
                            " overflows")])
def test_bump_of_extreme_magnitude(tmp_path, capsys, key, value, code, err):
    cfg = {"grid_n": 16, "data": {"kind": "bump", key: value}, "s_max": 0.5}
    assert _run(tmp_path, "evolve", cfg) == code
    assert err in capsys.readouterr().err
    if code == 0:
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["max_energy"] == 0.0

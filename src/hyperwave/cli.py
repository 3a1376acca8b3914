"""Command-line entry point: configured experiment runs with
machine-readable outputs.

Every run reads one JSON config, executes the named experiment, and
writes three files into the output directory: results.json (summary
numbers), series.csv (plot-ready table, 15 significant digits, fixed
column order), and manifest.json (resolved config echoed back, library
versions, and the wall-clock timestamp — the only non-deterministic
field).

Exit codes: 0 success, 2 config error (including a value the library
rejects as out of range, and a size above its cap), 3 numerical guard
tripped, 4 internal error.
"""

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, free_wave
from .core_types import (
    EnergyState,
    OddField,
    Potential,
    energy_norm,
    make_grid,
    slice_energies,
    slice_norms,
)
from .errors import (
    NUMERICAL_GUARDS,
    ConfigError,
    HyperwaveError,
    InvalidArgumentError,
    InvalidDataError,
)
from .evolution import (
    _step_count,
    _stored_steps,
    assemble_generator,
    evolve,
    growing_mode_projection,
    resolvent_matrix,
)
from .nonlinear import (
    DEFAULT_DATA_THRESHOLD,
    _cross_check_steps,
    _lawson_substeps,
    _report_stride,
    _stability_summary,
    cauchy_cross_check,
    fixed_point_residual,
    nonlinear_evolve_direct,
    picard_solve,
)
from .spectral import GreenFunction, find_sigma_v
from .strichartz_harness import (
    DEFAULT_EXPONENTS,
    EnsembleSpec,
    run_free_scan,
    run_potential_scan,
)

COMMANDS = ("evolve", "spectrum", "resolvent-check", "strichartz",
            "yangmills", "crosscheck")


# ---------------------------------------------------------------------------
# config contract: one key table per command, read by _resolve

_REQUIRED = object()


class _Key(NamedTuple):
    """One config key. kind is "int", "number", "numbers" (a nonempty
    list of numbers; booleans are never numbers), "bool", a tuple of
    choices, a key table (a dict, or a _ByKind of them), or a function
    parse(value, path)."""
    kind: object
    default: object = _REQUIRED
    positive: bool = False


class _ByKind(dict):
    """The key tables of an object named by its "kind" key, one per kind."""


_TYPES = {"int": (int,), "number": (int, float), "bool": (bool,)}

_POTENTIAL = _ByKind(constant={"value": _Key("number")},
                     even_poly={"coeffs": _Key("numbers")})
_ENERGY = {"energy": _Key("number", None, positive=True)}
_DATA = _ByKind(linear=_ENERGY, mode=_ENERGY, zero=_ENERGY,
               bump={"amplitude": _Key("number", 1.0),
                     "width": _Key("number", 0.5, positive=True), **_ENERGY},
               cheb={"f": _Key("numbers", [0.0]), "g": _Key("numbers", [0.0]),
                     **_ENERGY})
_WINDOW = {"re_max": _Key("number", 3.0, positive=True),
           "im_max": _Key("number", 20.0, positive=True)}
_ENSEMBLE = {"count": _Key("int"), "band_limit": _Key("int"),
             "seed": _Key("int", None), "decay": _Key("number", 2.0)}


def _exponents(spec, path):
    """The kind of `exponents`: [p, q] pairs of numbers or "inf"."""
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{path}: expected a nonempty list of [p, q] pairs")
    for i, pair in enumerate(spec):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected a [p, q] pair")
        for j, v in enumerate(pair):
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    or str(v).lower() in ("inf", "infinity")):
                raise ConfigError(f"{path}[{i}][{j}]: expected a number"
                                  " or 'inf'")
    return [tuple(np.inf if isinstance(v, str) else float(v) for v in pair)
            for pair in spec]


_GRID = {"grid_n": _Key("int", 64)}
TABLES = {
    "evolve": {
        **_GRID, "potential": _Key(_POTENTIAL, {"kind": "constant",
                                               "value": 0.0}),
        "data": _Key(_DATA), "s_max": _Key("number", positive=True),
        "ds": _Key("number", None, positive=True),
        "store_every": _Key("int", 16)},
    "spectrum": {**_GRID, "potential": _Key(_POTENTIAL),
                 "window": _Key(_WINDOW, {})},
    "resolvent-check": {
        "grid_n": _Key("int", 128), "potential": _Key(_POTENTIAL),
        "lambda": _Key({"re": _Key("number"), "im": _Key("number", 0.0)}),
        "num_states": _Key("int", 10), "seed": _Key("int", 7),
        "band_limit": _Key("int", 10), "decay": _Key("number", 2.0)},
    "strichartz": {
        **_GRID, "mode": _Key(("free", "potential"), "free"),
        "potential": _Key(_POTENTIAL, None), "ensemble": _Key(_ENSEMBLE),
        "exponents": _Key(_exponents, DEFAULT_EXPONENTS),
        "s_max": _Key("number", 20.0, positive=True),
        "num_slices": _Key("int", 400), "window": _Key(_WINDOW, None),
        "refine": _Key("bool", True)},
    "yangmills": {
        **_GRID, "data": _Key(_DATA), "max_iter": _Key("int", 25),
        **{key: _Key("number", default, positive=True) for key, default in
           (("s_max", 10.0), ("ds", 0.05), ("tol", 1e-10),
            ("data_threshold", DEFAULT_DATA_THRESHOLD))}},
    "crosscheck": {
        **_GRID, "data": _Key(_DATA),
        **{key: _Key("number", default, positive=True) for key, default in
           (("s0", 4.0), ("s1", 5.0), ("y_max", 0.9), ("r_max", 20.0),
            ("dr", 1.0 / 64))},
        "refine": _Key("bool", False)},
}

# Size caps, checked before any work from the step and row counts the run
# itself uses; the configs of README.md, the benchmark and the tests pass.
MAX_GRID_N = 512          # every grid of a run, refined grids included
MAX_STEPS = 500_000       # the stepped loops of one run, all tries summed
MAX_STORED = 5_000_000    # stored rows x n of one trajectory
MAX_LEAPFROG = 10_000_000  # crosscheck's leapfrog levels x points
MAX_SCAN = 5_000_000      # ensemble count x num_slices x grid_n
MAX_PAIRS = 16            # a scan's [p, q] exponent pairs
MAX_BAND_LIMIT = 128
MAX_NUM_STATES = 1000
MAX_RE, MAX_IM = 3.0, 40.0  # the spectral window; |Im lambda| too
MAX_POTENTIAL = 1e6       # max |V|, which sizes the spectral search's mesh


def _table(table, cfg, path):
    """The key table that checks the object cfg: of a _ByKind, the one
    named by cfg's "kind", which is itself checked as a choice."""
    if not isinstance(table, _ByKind):
        return table
    kinds = _Key(tuple(table))
    return {"kind": kinds, **table[_value(cfg, "kind", kinds, path)]}


def _resolve(cfg, table, path):
    """The object cfg checked against a key table, with every default
    filled in."""
    table = _table(table, cfg, path)
    for key in cfg:
        if key not in table:
            raise ConfigError(f"{path}{key}: unknown key")
    return {key: _value(cfg, key, spec, path) for key, spec in table.items()}


def _value(cfg, key, spec, path):
    name = path + key
    if key not in cfg:
        if spec.default is _REQUIRED:
            raise ConfigError(f"{name}: required key missing")
        if not (isinstance(spec.kind, dict) and spec.default is not None):
            return spec.default
    val = cfg.get(key, spec.default)
    kind = spec.kind
    if callable(kind):
        return kind(val, name)
    if kind == "numbers":
        if not isinstance(val, list) or not val or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in val):
            raise ConfigError(f"{name}: need a nonempty number list")
        return val
    types = ((dict,) if isinstance(kind, dict) else
             (str,) if isinstance(kind, tuple) else _TYPES[kind])
    # bool is an int subclass: accept it only where bool is asked for
    if not isinstance(val, types) or (isinstance(val, bool)
                                      and kind != "bool"):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{name}: expected {names},"
                          f" got {type(val).__name__}")
    if isinstance(kind, dict):
        return _resolve(val, kind, name + ".")
    if isinstance(kind, tuple) and val not in kind:
        raise ConfigError(f"{name}: must be one of {sorted(kind)}")
    if spec.positive and val <= 0:
        raise ConfigError(f"{name}: must be positive")
    return val


def _cap(what, size, limit):
    """Refuses a run whose size is above its cap (or not a number)."""
    if not size <= limit:
        size = size if size < 1e300 else math.inf  # huge ints do not format
        raise ConfigError(f"{what}: {size:.4g} above the cap {limit:g}")


def _build_potential(spec):
    if spec["kind"] == "constant":
        return Potential.constant(spec["value"])
    return Potential.even_poly(spec["coeffs"])


def _build_data(grid, spec, path):
    """The data fields (f, g) a config describes; data whose samples or
    energy norm overflow are a config error, before any work."""
    # overflow is checked on the results, not warned about: a bump of tiny
    # width squares y/width to inf, and exp(-inf) = 0 is its exact value
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            f, g = _data_fields(grid, spec)
            e0 = _data_energy(f, g, path)
            target = spec["energy"]
            if target is not None:
                if e0 <= 0:
                    raise ConfigError(
                        f"{path}.energy: cannot rescale zero data")
                f = (target / e0) * f
                g = (target / e0) * g
                _data_energy(f, g, path)
        except InvalidDataError as e:
            raise ConfigError(f"{path}: {e}") from e
    return f, g


def _data_fields(grid, spec):
    kind = spec["kind"]
    y = grid.nodes
    if kind == "linear":
        return OddField(grid, y), OddField.zero(grid)
    if kind == "mode":
        return OddField(grid, y), OddField(grid, y)
    if kind == "zero":
        return OddField.zero(grid), OddField.zero(grid)
    if kind == "bump":
        vals = spec["amplitude"] * y * np.exp(-((y / spec["width"]) ** 2))
        return OddField(grid, vals), OddField.zero(grid)
    sol = free_wave.from_chebyshev(grid, np.asarray(spec["f"], float),
                                   np.asarray(spec["g"], float))
    return sol.f_field, sol.g_field


def _data_energy(f, g, path):
    e = energy_norm(EnergyState(f, g))
    if not np.isfinite(e):
        raise ConfigError(f"{path}: the data's energy norm overflows")
    return e


def _grid(n, refine=False):
    """The run's grid of n nodes; a refined run also builds one of 2n."""
    _cap("grid_n (doubled by refine)" if refine else "grid_n",
         2 * n if refine else n, MAX_GRID_N)
    try:
        return make_grid(n)
    except HyperwaveError as e:
        raise ConfigError(f"grid_n: {e}") from e


def _window(spec):
    a, b = spec["re_max"], spec["im_max"]
    if a > MAX_RE + 1e-12 or b > MAX_IM + 1e-12:
        raise ConfigError("window: scan window capped at"
                          f" re_max <= {MAX_RE:g}, im_max <= {MAX_IM:g}")
    return (float(a), float(b))


# ---------------------------------------------------------------------------
# output plumbing

def _fmt_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.15g" % float(v)


def _write_csv(path, header, rows):
    head = ",".join(header) + "\n"
    # cell types are checked once per column
    if all(set(map(type, col)) == {float} for col in zip(*rows)):
        # one format operation for the whole table; same bytes as _fmt_cell
        row_fmt = ",".join(["%.15g"] * len(header))
        body = "\n".join([row_fmt] * len(rows)) % tuple(
            itertools.chain.from_iterable(rows))
    else:
        body = "\n".join(",".join(map(_fmt_cell, row)) for row in rows)
    Path(path).write_text(head + body + "\n" if rows else head)


def _json_default(obj):
    """What json cannot encode itself; a complex number as {"re", "im"}."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.generic):
        return obj.item()
    return str(obj)


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2,
                                     default=_json_default) + "\n")


def _pair_key(p, q):
    return f"{p:g},{q:g}"


# ---------------------------------------------------------------------------
# commands

def _cmd_evolve(c, out_dir, seed):
    grid = _grid(c["grid_n"])
    steps = _step_count(c["s_max"], c["ds"], grid.n)[1]
    _cap("steps", steps, MAX_STEPS)
    _cap("stored values", grid.n * _stored_steps(steps, c["store_every"]).size,
         MAX_STORED)
    V = _build_potential(c["potential"])
    f, g = _build_data(grid, c["data"], "data")

    gen = assemble_generator(grid, V)
    traj = evolve(gen, EnergyState(f, g), c["s_max"], ds=c["ds"],
                  store_every=c["store_every"])
    energies = slice_energies(traj.U, traj.V, grid)
    _write_csv(out_dir / "series.csv",
               ["s", "energy", "l2", "l6", "sup"],
               np.column_stack([traj.times, energies, *(
                   slice_norms(traj.U, grid, q) for q in (2, 6, np.inf))
               ]).tolist())
    results = {
        "num_slices": len(traj),
        "final_s": float(traj.times[-1]),
        "initial_energy": energies[0],
        "final_energy": energies[-1],
        "max_energy": np.max(energies),
        "potential": V.name,
    }
    return results, {"ds_used": traj.step, "grid_n": grid.n}


def _cmd_spectrum(c, out_dir, seed):
    grid = _grid(c["grid_n"])
    V = _build_potential(c["potential"])
    _cap("potential (max |V|)", V.max_abs(), MAX_POTENTIAL)
    window = _window(c["window"])
    roots = find_sigma_v(V, window=window, grid=grid)
    gen = assemble_generator(grid, V)
    rows = []
    entries = []
    for r in roots:
        mult = None
        nil = None
        if r.lam.real >= 1e-6:
            proj = growing_mode_projection(gen, [r.lam])
            key = next(iter(proj.multiplicity), None)
            if key is not None:
                mult = proj.multiplicity[key]
                nil = proj.nilpotency[key]
        entries.append({"re": r.lam.real, "im": r.lam.imag,
                        "multiplicity": mult, "nilpotency": nil,
                        "residual": r.residual})
        rows.append((r.lam.real, r.lam.imag,
                     -1 if mult is None else mult,
                     -1 if nil is None else nil, r.residual))
    _write_csv(out_dir / "series.csv",
               ["re", "im", "multiplicity", "nilpotency", "residual"], rows)
    results = {"potential": V.name, "num_roots": len(roots),
               "roots": entries,
               "window": {"re_max": window[0], "im_max": window[1]}}
    return results, {"grid_n": grid.n}


def _cmd_resolvent_check(c, out_dir, seed):
    grid = _grid(c["grid_n"])
    lam = complex(c["lambda"]["re"], c["lambda"]["im"])
    _cap("lambda.im (absolute value)", abs(lam.imag), MAX_IM)
    _cap("num_states", c["num_states"], MAX_NUM_STATES)
    _cap("band_limit", c["band_limit"], MAX_BAND_LIMIT)
    V = _build_potential(c["potential"])
    _cap("potential (max |V|)", V.max_abs(), MAX_POTENTIAL)
    eff_seed = c["seed"] if seed is None else seed

    spec = EnsembleSpec(count=c["num_states"], band_limit=c["band_limit"],
                        seed=eff_seed, decay=c["decay"])
    members = spec.fields(grid)
    gen = assemble_generator(grid, V)
    handle = resolvent_matrix(gen, lam)
    green = GreenFunction(V, lam)

    rows = []
    rels = []
    idds = []
    for m in members:
        w_mat = handle.apply(m.state)
        w_green = green.apply(m.state)
        num_d = np.linalg.norm(w_green.stacked() - w_mat.stacked())
        den_d = np.linalg.norm(w_mat.stacked())
        rel = float(num_d / den_d) if den_d > 0 else 0.0
        back = gen.apply(w_mat)
        resid = lam * w_mat.stacked() - back.stacked() - m.state.stacked()
        idd = float(np.linalg.norm(resid)
                    / max(np.linalg.norm(m.state.stacked()), 1e-300))
        rows.append((m.index, rel, idd))
        rels.append(rel)
        idds.append(idd)
    _write_csv(out_dir / "series.csv",
               ["state", "rel_diff", "identity_defect"], rows)
    results = {"potential": V.name,
               "lambda": {"re": lam.real, "im": lam.imag},
               "max_rel_diff": max(rels), "max_identity_defect": max(idds),
               "num_states": c["num_states"]}
    return results, {"grid_n": grid.n, "seed": eff_seed}


def _cmd_strichartz(c, out_dir, seed):
    mode = c["mode"]
    for key in ("potential", "window"):
        if mode == "free" and c[key] is not None:
            raise ConfigError(f"{key}: not read in free mode")
    grid = _grid(c["grid_n"], c["refine"])
    ens = c["ensemble"]
    _cap("ensemble.count x num_slices x grid_n",
         ens["count"] * c["num_slices"] * grid.n, MAX_SCAN)
    _cap("ensemble.band_limit", ens["band_limit"], MAX_BAND_LIMIT)
    _cap("exponents (pairs)", len(c["exponents"]), MAX_PAIRS)
    if mode == "potential":
        if c["potential"] is None:
            raise ConfigError("potential: required key missing")
        V = _build_potential(c["potential"])
        _cap("potential (max |V|)", V.max_abs(), MAX_POTENTIAL)
        window = _window(c["window"] or _resolve({}, _WINDOW, ""))
    eff_seed = ens["seed"] if seed is None else seed
    if eff_seed is None:
        raise ConfigError("ensemble.seed: required key missing")
    spec = EnsembleSpec(count=ens["count"], band_limit=ens["band_limit"],
                        seed=eff_seed, decay=ens["decay"])

    if mode == "free":
        report = run_free_scan(spec, c["exponents"], c["s_max"], grid=grid,
                               num_slices=c["num_slices"], refine=c["refine"])
    else:
        report = run_potential_scan(V, spec, c["exponents"], c["s_max"],
                                    grid=grid, window=window,
                                    num_slices=c["num_slices"],
                                    refine=c["refine"])

    header = ["member"] + [f"ratio_{p:g}_{q:g}" for p, q in report.exponents]
    rows = []
    for i in range(spec.count):
        rows.append([i] + [report.ratios[pq][i] for pq in report.exponents])
    _write_csv(out_dir / "series.csv", header, rows)
    results = {
        "potential": report.potential_id,
        "s_max": report.s_max,
        "grid_n": report.grid_n,
        "max_ratio": {_pair_key(p, q): report.max_ratio[(p, q)]
                      for p, q in report.exponents},
        "tail_share": {_pair_key(p, q): report.tail_share[(p, q)]
                       for p, q in report.exponents},
        "refinement": {_pair_key(p, q): report.refinement.get((p, q), {})
                       for p, q in report.exponents},
    }
    return results, {"seed": eff_seed}


def _cmd_yangmills(c, out_dir, seed):
    grid = _grid(c["grid_n"])
    s_max, ds = c["s_max"], c["ds"]
    # one direct solve at a step dividing the Picard step: its every
    # sub-th row is compared with Picard, and the decay report reads it
    # all; without a Picard step (ds > s_max) the library refuses the run
    steps = _step_count(s_max, ds, grid.n)[1]
    sub = _lawson_substeps(ds, s_max, grid.n) if steps else 1
    _cap("steps", sub * steps, MAX_STEPS)
    _cap("stored values", (sub * steps + 1) * grid.n, MAX_STORED)
    f, g = _build_data(grid, c["data"], "data")

    run = picard_solve(f, g, s_max, ds, max_iter=c["max_iter"], tol=c["tol"],
                       data_threshold=c["data_threshold"])
    resid = fixed_point_residual(run.prop, f, g, run.final)
    direct = nonlinear_evolve_direct(f, g, s_max, ds=ds / sub)
    on_nodes = slice(0, sub * run.prop.num_steps + 1, sub)
    Up = run.final.U
    Ud = direct.U[on_nodes]
    if len(Ud) != len(Up) or not np.allclose(
            direct.times[on_nodes], run.final.times, rtol=1e-12, atol=0.0):
        raise InvalidDataError("direct solver rows miss the Picard nodes")
    l6_diff = float(np.max(slice_norms(Up - Ud, grid, 6)))

    report = _stability_summary(direct, s_max, _report_stride(len(direct) - 1))
    _write_csv(out_dir / "series.csv", ["s", "l6_picard", "l6_direct"],
               np.column_stack([run.final.times, slice_norms(Up, grid, 6),
                                slice_norms(Ud, grid, 6)]).tolist())
    results = {
        "converged": run.converged,
        "num_iterates": len(run.x_norms),
        "x_norms": run.x_norms,
        "deltas": run.deltas,
        "ratios": run.ratios,
        "fixed_point_residual": resid,
        "picard_vs_direct_linf_l6": l6_diff,
        "data_energy": energy_norm(EnergyState(f, g)),
        "data_threshold": c["data_threshold"],
        "stability": report,
    }
    return results, {"grid_n": grid.n, "ds": ds}


def _cmd_crosscheck(c, out_dir, seed):
    refine = c["refine"]
    grid = _grid(c["grid_n"], refine)
    s0, s1, y_max, r_max, dr = (c[k] for k in ("s0", "s1", "y_max",
                                               "r_max", "dr"))
    # the refined run, at 2n and dr/2, is the larger; its leapfrog spans
    # t_end - s0 <= s1 - s0 + 1 (y_max <= 0.9) in steps of dr/2
    fine_dr = 0.5 * dr if refine else dr
    _cap("leapfrog levels x points",
         2.0 * r_max / fine_dr * (s1 - s0 + 1.0) / (0.5 * fine_dr),
         MAX_LEAPFROG)
    counts = _cross_check_steps(s1)
    _cap("Lawson steps", sum(counts) + counts[0] // 2, MAX_STEPS)
    _cap("stored values", (counts[-1] + 1) * grid.n * (2 if refine else 1),
         MAX_STORED)
    f, g = _build_data(grid, c["data"], "data")

    disc = cauchy_cross_check(f, g, s0=s0, s1=s1, y_max=y_max, r_max=r_max,
                              dr=dr)
    rows = [(s1, dr, grid.n, disc)]
    results = {"discrepancy": disc, "s0": s0, "s1": s1, "y_max": y_max}
    if refine:
        # rebuild the data on the doubled grid from its defining config
        grid2 = make_grid(2 * grid.n)
        f2, g2 = _build_data(grid2, c["data"], "data")
        disc2 = cauchy_cross_check(f2, g2, s0=s0, s1=s1, y_max=y_max,
                                   r_max=r_max, dr=0.5 * dr)
        rows.append((s1, 0.5 * dr, grid2.n, disc2))
        results["discrepancy_refined"] = disc2
        results["contraction_factor"] = disc / disc2 if disc2 > 0 else np.inf
    _write_csv(out_dir / "series.csv",
               ["s", "dr", "grid_n", "discrepancy"], rows)
    return results, {"grid_n": grid.n}


_RUNNERS = {
    "evolve": _cmd_evolve,
    "spectrum": _cmd_spectrum,
    "resolvent-check": _cmd_resolvent_check,
    "strichartz": _cmd_strichartz,
    "yangmills": _cmd_yangmills,
    "crosscheck": _cmd_crosscheck,
}


def _scipy_version():
    import scipy
    return scipy.__version__


def _finite(literal):
    """A JSON number literal as a finite float (NaN, +-Infinity and
    overflowing literals are refused)."""
    if not math.isfinite(val := float(literal)):
        if len(literal) > 24:
            literal = f"{literal[:12]}... ({len(literal)} characters)"
        raise ConfigError(f"non-finite number {literal} in config")
    return val


def _integer(literal):
    """A JSON integer literal as an int, refused like _finite when it
    overflows a float (the library takes numbers as floats)."""
    _finite(literal)
    return int(literal)


def _load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(), parse_float=_finite,
                         parse_int=_integer, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno},"
                          f" column {e.colno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hyperwave",
        description="hyperboloidal wave experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="hyperwave_out")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        c = _resolve(cfg, TABLES[args.command], "")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        results, extras = _RUNNERS[args.command](c, out_dir, args.seed)
        manifest = {
            "command": args.command,
            "config": cfg,
            "resolved": extras,
            "seed_override": args.seed,
            "versions": {
                "hyperwave": __version__,
                "numpy": np.__version__,
                "scipy": _scipy_version(),
            },
            "elapsed_seconds": time.time() - t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S",
                                       time.gmtime()),
        }
        _write_json(out_dir / "results.json", results)
        _write_json(out_dir / "manifest.json", manifest)
        print(f"{args.command}: wrote {out_dir}/results.json,"
              f" series.csv, manifest.json")
        return 0
    except (ConfigError, InvalidArgumentError) as e:
        # an out-of-range config value surfaces as InvalidArgumentError
        # from the library call it is passed to
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NUMERICAL_GUARDS as e:
        print(f"numerical guard: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

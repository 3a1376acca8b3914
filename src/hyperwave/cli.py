"""Command-line entry point: configured experiment runs with
machine-readable outputs.

Every run reads one JSON config, executes the named experiment, and
writes three files into the output directory: results.json (summary
numbers), series.csv (plot-ready table, 15 significant digits, fixed
column order), and manifest.json (resolved config echoed back, library
versions, and the wall-clock timestamp — the only non-deterministic
field).

Exit codes: 0 success, 2 config error (including a value the library
rejects as out of range), 3 numerical guard tripped, 4 internal error.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

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
    assemble_generator,
    evolve,
    growing_mode_projection,
    resolvent_matrix,
)
from .nonlinear import (
    DEFAULT_DATA_THRESHOLD,
    _lawson_substeps,
    _report_stride,
    _stability_summary,
    cauchy_cross_check,
    fixed_point_residual,
    make_propagators,
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
# config plumbing

def _cfg_get(cfg, key, path, types, default=KeyError, choices=None):
    if key not in cfg:
        if default is KeyError:
            raise ConfigError(f"{path}{key}: required key missing")
        return default
    val = cfg[key]
    types = (types,) if isinstance(types, type) else types
    # bool is an int subclass: accept it only where bool is asked for
    if types is not None and (not isinstance(val, types) or (
            isinstance(val, bool) and bool not in types)):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}{key}: expected {names},"
                          f" got {type(val).__name__}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}{key}: must be one of {sorted(choices)}")
    return val


def _no_unknown(cfg, allowed, path):
    for k in cfg:
        if k not in allowed:
            raise ConfigError(f"{path}{k}: unknown key")


def _cfg_number(cfg, key, path, default=KeyError, positive=False):
    v = _cfg_get(cfg, key, path, (int, float), default=default)
    if positive and v is not None and v <= 0:
        raise ConfigError(f"{path}{key}: must be positive")
    return v


def _cfg_numbers(cfg, key, path, default=KeyError):
    """A nonempty list of numbers (booleans refused)."""
    vals = _cfg_get(cfg, key, path, list, default=default)
    if not vals or not all(isinstance(c, (int, float))
                           and not isinstance(c, bool) for c in vals):
        raise ConfigError(f"{path}{key}: need a nonempty number list")
    return vals


def _cfg_seed(cfg, path, override, default=KeyError):
    """--seed if given, else the config's seed; the key is type-checked
    whenever present and is required only without --seed."""
    val = _cfg_get(cfg, "seed", path, int,
                   default=default if override is None else None)
    return val if override is None else override


def _build_potential(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _cfg_get(spec, "kind", path + ".", str,
                    choices={"constant", "even_poly"})
    if kind == "constant":
        _no_unknown(spec, {"kind", "value"}, path + ".")
        return Potential.constant(_cfg_number(spec, "value", path + "."))
    _no_unknown(spec, {"kind", "coeffs"}, path + ".")
    return Potential.even_poly(_cfg_numbers(spec, "coeffs", path + "."))


def _build_data(grid, spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _cfg_get(spec, "kind", path + ".", str,
                    choices={"linear", "mode", "zero", "bump", "cheb"})
    allowed = {"kind", "energy"}
    if kind == "bump":
        allowed |= {"amplitude", "width"}
    if kind == "cheb":
        allowed |= {"f", "g"}
    _no_unknown(spec, allowed, path + ".")
    y = grid.nodes
    if kind == "linear":
        f = OddField(grid, y)
        g = OddField.zero(grid)
    elif kind == "mode":
        f = OddField(grid, y)
        g = OddField(grid, y)
    elif kind == "zero":
        f = OddField.zero(grid)
        g = OddField.zero(grid)
    elif kind == "bump":
        amp = _cfg_number(spec, "amplitude", path + ".", default=1.0)
        width = _cfg_number(spec, "width", path + ".", default=0.5,
                            positive=True)
        vals = amp * y * np.exp(-((y / width) ** 2))
        f = OddField(grid, vals)
        g = OddField.zero(grid)
    else:
        cf = _cfg_numbers(spec, "f", path + ".", default=[0.0])
        cg = _cfg_numbers(spec, "g", path + ".", default=[0.0])
        try:
            sol = free_wave.from_chebyshev(grid, np.asarray(cf, float),
                                           np.asarray(cg, float))
        except HyperwaveError as e:
            raise ConfigError(f"{path}: {e}") from e
        f, g = sol.f_field, sol.g_field
    target = _cfg_number(spec, "energy", path + ".", default=None,
                         positive=True)
    if target is not None:
        e0 = energy_norm(EnergyState(f, g))
        if e0 <= 0:
            raise ConfigError(f"{path}.energy: cannot rescale zero data")
        f = (target / e0) * f
        g = (target / e0) * g
    return f, g


def _parse_exponent(v, path):
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return np.inf
        raise ConfigError(f"{path}: only 'inf' is accepted as a string")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number or 'inf'")
    return float(v)


def _build_exponents(spec, path):
    if spec is None:
        return DEFAULT_EXPONENTS
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{path}: expected a nonempty list of [p, q] pairs")
    out = []
    for i, pair in enumerate(spec):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected a [p, q] pair")
        out.append((_parse_exponent(pair[0], f"{path}[{i}][0]"),
                    _parse_exponent(pair[1], f"{path}[{i}][1]")))
    return out


def _grid_from(cfg, path, default=64):
    n = _cfg_get(cfg, "grid_n", path, int, default=default)
    try:
        return make_grid(n)
    except HyperwaveError as e:
        raise ConfigError(f"{path}grid_n: {e}") from e


def _window_from(cfg, path):
    spec = _cfg_get(cfg, "window", path, dict,
                    default={"re_max": 3.0, "im_max": 20.0})
    _no_unknown(spec, {"re_max", "im_max"}, path + "window.")
    a = _cfg_number(spec, "re_max", path + "window.", default=3.0,
                    positive=True)
    b = _cfg_number(spec, "im_max", path + "window.", default=20.0,
                    positive=True)
    if a > 3.0 + 1e-12 or b > 40.0 + 1e-12:
        raise ConfigError(f"{path}window: scan window capped at"
                          " re_max <= 3, im_max <= 40")
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
    lines = [",".join(header)]
    for row in rows:
        if all(type(v) is float for v in row):
            # one format operation per row; same bytes as _fmt_cell
            lines.append(",".join(["%.15g"] * len(row)) % tuple(row))
        else:
            lines.append(",".join(_fmt_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if obj is None:
        return None
    return str(obj)


def _write_json(path, obj):
    Path(path).write_text(
        json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _pair_key(p, q):
    return f"{p:g},{q:g}"


# ---------------------------------------------------------------------------
# commands

def _cmd_evolve(cfg, out_dir, seed):
    allowed = {"grid_n", "potential", "data", "s_max", "ds", "store_every"}
    _no_unknown(cfg, allowed, "")
    grid = _grid_from(cfg, "")
    V = _build_potential(_cfg_get(cfg, "potential", "", dict,
                                  default={"kind": "constant", "value": 0.0}),
                         "potential")
    f, g = _build_data(grid, _cfg_get(cfg, "data", "", dict), "data")
    s_max = _cfg_number(cfg, "s_max", "", positive=True)
    ds = _cfg_number(cfg, "ds", "", default=None, positive=True)
    store_every = _cfg_get(cfg, "store_every", "", int, default=16)

    gen = assemble_generator(grid, V)
    traj = evolve(gen, EnergyState(f, g), s_max, ds=ds,
                  store_every=store_every)
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


def _cmd_spectrum(cfg, out_dir, seed):
    _no_unknown(cfg, {"grid_n", "potential", "window"}, "")
    grid = _grid_from(cfg, "")
    V = _build_potential(_cfg_get(cfg, "potential", "", dict), "potential")
    window = _window_from(cfg, "")
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


def _cmd_resolvent_check(cfg, out_dir, seed):
    allowed = {"grid_n", "potential", "lambda", "num_states", "seed",
               "band_limit", "decay"}
    _no_unknown(cfg, allowed, "")
    grid = _grid_from(cfg, "", default=128)
    V = _build_potential(_cfg_get(cfg, "potential", "", dict), "potential")
    lam_spec = _cfg_get(cfg, "lambda", "", dict)
    _no_unknown(lam_spec, {"re", "im"}, "lambda.")
    lam = complex(_cfg_number(lam_spec, "re", "lambda."),
                  _cfg_number(lam_spec, "im", "lambda.", default=0.0))
    num = _cfg_get(cfg, "num_states", "", int, default=10)
    band = _cfg_get(cfg, "band_limit", "", int, default=10)
    decay = _cfg_number(cfg, "decay", "", default=2.0)
    eff_seed = _cfg_seed(cfg, "", seed, default=7)

    spec = EnsembleSpec(count=num, band_limit=band, seed=eff_seed,
                        decay=decay)
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
               "num_states": num}
    return results, {"grid_n": grid.n, "seed": eff_seed}


def _cmd_strichartz(cfg, out_dir, seed):
    allowed = {"grid_n", "mode", "potential", "ensemble", "exponents",
               "s_max", "num_slices", "window", "refine"}
    _no_unknown(cfg, allowed, "")
    grid = _grid_from(cfg, "")
    mode = _cfg_get(cfg, "mode", "", str, default="free",
                    choices={"free", "potential"})
    for key in ("potential", "window"):
        if mode == "free" and key in cfg:
            raise ConfigError(f"{key}: not read in free mode")
    ens = _cfg_get(cfg, "ensemble", "", dict)
    _no_unknown(ens, {"count", "band_limit", "seed", "decay"}, "ensemble.")
    eff_seed = _cfg_seed(ens, "ensemble.", seed)
    spec = EnsembleSpec(
        count=_cfg_get(ens, "count", "ensemble.", int),
        band_limit=_cfg_get(ens, "band_limit", "ensemble.", int),
        seed=eff_seed,
        decay=_cfg_number(ens, "decay", "ensemble.", default=2.0))
    exponents = _build_exponents(cfg.get("exponents"), "exponents")
    s_max = _cfg_number(cfg, "s_max", "", default=20.0, positive=True)
    num_slices = _cfg_get(cfg, "num_slices", "", int, default=400)
    refine = _cfg_get(cfg, "refine", "", bool, default=True)

    if mode == "free":
        report = run_free_scan(spec, exponents, s_max, grid=grid,
                               num_slices=num_slices, refine=refine)
    else:
        V = _build_potential(_cfg_get(cfg, "potential", "", dict),
                             "potential")
        window = _window_from(cfg, "")
        report = run_potential_scan(V, spec, exponents, s_max, grid=grid,
                                    window=window, num_slices=num_slices,
                                    refine=refine)

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


def _cmd_yangmills(cfg, out_dir, seed):
    allowed = {"grid_n", "data", "s_max", "ds", "max_iter", "tol",
               "data_threshold"}
    _no_unknown(cfg, allowed, "")
    grid = _grid_from(cfg, "")
    f, g = _build_data(grid, _cfg_get(cfg, "data", "", dict), "data")
    s_max = _cfg_number(cfg, "s_max", "", default=10.0, positive=True)
    ds = _cfg_number(cfg, "ds", "", default=0.05, positive=True)
    max_iter = _cfg_get(cfg, "max_iter", "", int, default=25)
    tol = _cfg_number(cfg, "tol", "", default=1e-10, positive=True)
    threshold = _cfg_number(cfg, "data_threshold", "",
                            default=DEFAULT_DATA_THRESHOLD, positive=True)

    run = picard_solve(f, g, s_max, ds, max_iter=max_iter, tol=tol,
                       data_threshold=threshold)
    prop = make_propagators(grid, ds, s_max)
    resid = fixed_point_residual(prop, f, g, run.final)

    # one direct solve at a step dividing the Picard step: its every
    # sub-th row is compared with Picard, and the decay report reads it all
    sub = _lawson_substeps(ds, s_max, grid.n)
    direct = nonlinear_evolve_direct(f, g, s_max, ds=ds / sub)
    on_nodes = slice(0, sub * prop.num_steps + 1, sub)
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
        "data_threshold": threshold,
        "stability": report,
    }
    return results, {"grid_n": grid.n, "ds": ds}


def _cmd_crosscheck(cfg, out_dir, seed):
    allowed = {"grid_n", "data", "s0", "s1", "y_max", "r_max", "dr",
               "refine"}
    _no_unknown(cfg, allowed, "")
    grid = _grid_from(cfg, "")
    f, g = _build_data(grid, _cfg_get(cfg, "data", "", dict), "data")
    s0 = _cfg_number(cfg, "s0", "", default=4.0, positive=True)
    s1 = _cfg_number(cfg, "s1", "", default=5.0, positive=True)
    y_max = _cfg_number(cfg, "y_max", "", default=0.9, positive=True)
    r_max = _cfg_number(cfg, "r_max", "", default=20.0, positive=True)
    dr = _cfg_number(cfg, "dr", "", default=1.0 / 64, positive=True)
    refine = _cfg_get(cfg, "refine", "", bool, default=False)

    disc = cauchy_cross_check(f, g, s0=s0, s1=s1, y_max=y_max, r_max=r_max,
                              dr=dr)
    rows = [(s1, dr, grid.n, disc)]
    results = {"discrepancy": disc, "s0": s0, "s1": s1, "y_max": y_max}
    if refine:
        # rebuild the data on the doubled grid from its defining config
        grid2 = make_grid(2 * grid.n)
        f2, g2 = _build_data(grid2, cfg["data"], "data")
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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        results, extras = _RUNNERS[args.command](cfg, out_dir, args.seed)
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

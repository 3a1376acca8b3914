"""Workload definitions for the hyperwave benchmark: the CLI jobs each
workload runs, the tiny warm-up jobs run before timing, and the
correctness check applied to every job's output.

Inputs are generated from the benchmark seed only; the program sees the
generated configs and nothing else. Sizes vary with the seed only where
the cost of a job does not, so that runs on different seeds measure the
same amount of work.
"""

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("spectrum", "scan", "trajectory")

BUMP = {"kind": "bump", "amplitude": 1.0, "width": 0.6}


def _const(value):
    return {"kind": "constant", "value": value}


def _job(name, command, config, check):
    return {"name": name, "command": command, "config": config,
            "check": check}


def jobs(workload, seed):
    """The job list of one pass of `workload`, generated from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum":
        return [
            _job("spectrum_v-6", "spectrum",
                 {"grid_n": 64, "potential": _const(-6.0),
                  "window": {"re_max": 2.0, "im_max": 10.0}},
                 {"roots": [[1.0, 0.0]], "multiplicity": 1, "nilpotency": 0}),
            # the root sits on the imaginary axis, which forces the cell
            # subdivision and the Newton polishing to work hardest
            _job("spectrum_v-2", "spectrum",
                 {"grid_n": 64, "potential": _const(-2.0),
                  "window": {"re_max": 1.0, "im_max": 1.0}},
                 {"roots": [[0.0, 0.0]]}),
            _job("spectrum_v-1", "spectrum",
                 {"grid_n": 64, "potential": _const(-1.0),
                  "window": {"re_max": 3.0, "im_max": 20.0}},
                 {"roots": []}),
            _job("resolvent", "resolvent-check",
                 {"grid_n": 128, "potential": _const(-1.0),
                  "lambda": {"re": 0.05, "im": 2.0}, "num_states": 10,
                  "seed": rng.randrange(1 << 30)},
                 {"max_rel_diff": 1e-6, "max_identity_defect": 1e-8}),
        ]
    if workload == "scan":
        ensemble = {"count": 100, "band_limit": 8,
                    "seed": rng.randrange(1 << 30)}
        common = {"grid_n": 64, "ensemble": ensemble,
                  "exponents": [[2, 4], [3, 6], ["inf", 2]],
                  "s_max": 10.0, "num_slices": 200, "refine": True}
        gate = {"max_ratio": 1e3, "max_refinement": 0.10}
        return [
            _job("scan_potential", "strichartz",
                 dict(common, mode="potential", potential=_const(-1.0)),
                 gate),
            _job("scan_free", "strichartz", dict(common, mode="free"), gate),
        ]
    if workload == "trajectory":
        def bump(energy=None):
            data = dict(BUMP, amplitude=round(rng.uniform(0.8, 1.2), 6),
                        width=round(rng.uniform(0.55, 0.65), 6))
            if energy is not None:
                data["energy"] = energy
            return data
        return [
            _job("evolve", "evolve",
                 {"grid_n": 64, "potential": _const(0.0), "data": bump(),
                  "s_max": 10.0, "store_every": 1},
                 {"num_slices": 10241}),
            _job("yangmills", "yangmills",
                 {"grid_n": 64, "data": bump(0.01), "s_max": 10.0,
                  "ds": 0.05},
                 {"max_ratio": 0.5, "fixed_point_residual": 1e-4,
                  "picard_vs_direct_linf_l6": 1e-4}),
            _job("crosscheck", "crosscheck",
                 {"grid_n": 64, "data": bump(0.01), "s0": 4.0, "s1": 5.0,
                  "y_max": 0.9, "r_max": 20.0, "dr": 1.0 / 32,
                  "refine": True},
                 {"discrepancy": 1e-3, "contraction_factor": [2.5, 7.0]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload):
    """Tiny jobs that run every command of `workload` once, so that lazy
    imports and first-call costs are paid before timing starts."""
    small = {"re_max": 0.5, "im_max": 1.0}
    ensemble = {"count": 2, "band_limit": 2, "seed": 1}
    scan = {"grid_n": 16, "s_max": 0.5, "num_slices": 8,
            "ensemble": ensemble}
    bump = dict(BUMP, energy=0.01)
    tiny = {
        "spectrum": [
            ("spectrum", {"grid_n": 16, "potential": _const(-1.0),
                          "window": small}),
            ("resolvent-check", {"grid_n": 16, "potential": _const(-1.0),
                                 "lambda": {"re": 0.05, "im": 2.0},
                                 "num_states": 1})],
        "scan": [
            ("strichartz", dict(scan, mode="potential",
                                potential=_const(-1.0), window=small)),
            ("strichartz", dict(scan, mode="free"))],
        "trajectory": [
            ("evolve", {"grid_n": 16, "data": BUMP, "s_max": 0.5}),
            ("yangmills", {"grid_n": 16, "data": bump, "s_max": 0.5}),
            ("crosscheck", {"grid_n": 16, "data": bump, "r_max": 6.0,
                            "dr": 0.25})],
    }
    return [_job(f"warmup_{i}", cmd, cfg, None)
            for i, (cmd, cfg) in enumerate(tiny[workload])]


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems, empty when the
# output is correct

def _finite_below(x, limit):
    return isinstance(x, (int, float)) and math.isfinite(x) and x <= limit


def _check_spectrum(res, out_dir, want):
    roots = res.get("roots", [])
    if len(roots) != len(want["roots"]) or res.get("num_roots") != len(roots):
        return [f"expected {len(want['roots'])} roots, got {len(roots)}"]
    problems = []
    for got, (re, im) in zip(roots, want["roots"]):
        err = abs(complex(got["re"], got["im"]) - complex(re, im))
        if not err <= 1e-8:
            problems.append(f"root error {err:.3e} > 1e-8")
        for key in ("multiplicity", "nilpotency"):
            if got.get(key) != want.get(key):
                problems.append(f"{key} {got.get(key)} != {want.get(key)}")
    return problems


def _check_resolvent(res, out_dir, want):
    return [f"{k} {res.get(k)} above {tol}" for k, tol in want.items()
            if not _finite_below(res.get(k), tol)]


def _check_strichartz(res, out_dir, want):
    problems = [f"max_ratio[{k}] = {v} not below {want['max_ratio']}"
                for k, v in res.get("max_ratio", {}).items()
                if not (isinstance(v, (int, float))
                        and v < want["max_ratio"])]
    changes = [v for d in res.get("refinement", {}).values()
               for v in d.values()]
    if not changes or not all(_finite_below(v, want["max_refinement"])
                              for v in changes):
        problems.append(f"refinement changes {changes} not all <= "
                        f"{want['max_refinement']}")
    if not res.get("max_ratio"):
        problems.append("no ratios reported")
    return problems


def _check_evolve(res, out_dir, want):
    with open(Path(out_dir) / "series.csv", newline="") as fh:
        energies = [float(row["energy"]) for row in csv.DictReader(fh)]
    problems = []
    if len(energies) != want["num_slices"] \
            or res.get("num_slices") != want["num_slices"]:
        problems.append(f"expected {want['num_slices']} slices, got "
                        f"{len(energies)} rows and {res.get('num_slices')}")
    rises = sum(1 for a, b in zip(energies, energies[1:]) if b > a)
    if rises:
        problems.append(f"energy increased on {rises} steps for V=0")
    if res.get("max_energy") != res.get("initial_energy"):
        problems.append("max_energy differs from the initial energy")
    return problems


def _check_yangmills(res, out_dir, want):
    problems = []
    if res.get("converged") is not True:
        problems.append("Picard iteration did not converge")
    ratios = res.get("ratios", [])[1:]
    if not all(_finite_below(r, want["max_ratio"]) for r in ratios):
        problems.append(f"iterate ratios {ratios} above {want['max_ratio']}")
    for key in ("fixed_point_residual", "picard_vs_direct_linf_l6"):
        if not _finite_below(res.get(key), want[key]):
            problems.append(f"{key} {res.get(key)} above {want[key]}")
    return problems


def _check_crosscheck(res, out_dir, want):
    problems = []
    if not _finite_below(res.get("discrepancy"), want["discrepancy"]):
        problems.append(f"discrepancy {res.get('discrepancy')} above "
                        f"{want['discrepancy']}")
    lo, hi = want["contraction_factor"]
    factor = res.get("contraction_factor")
    if not (isinstance(factor, (int, float)) and lo <= factor <= hi):
        problems.append(f"contraction factor {factor} outside [{lo}, {hi}]")
    return problems


CHECKS = {
    "spectrum": _check_spectrum,
    "resolvent-check": _check_resolvent,
    "strichartz": _check_strichartz,
    "evolve": _check_evolve,
    "yangmills": _check_yangmills,
    "crosscheck": _check_crosscheck,
}


def check_job(job, out_dir):
    """Problems with the output of `job` in `out_dir`; [] means correct."""
    path = Path(out_dir) / "results.json"
    try:
        res = json.loads(path.read_text())
        return CHECKS[job["command"]](res, out_dir, job["check"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

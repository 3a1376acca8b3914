"""Acceptance gate: twelve numbered criteria, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line even
on success. Each criterion prints exactly one PASS/FAIL line and then
asserts, so a failing run still reports all computed values.
"""

import json
import subprocess
import sys
import time

import numpy as np
from numpy.polynomial import chebyshev as cheb

import hyperwave as hw
from hyperwave import free_wave
from hyperwave.core_types import odd_extension
from hyperwave.spectral import build_u1, find_sigma_v, resolvent_apply, \
    wronskian_pair
from hyperwave.strichartz_harness import EnsembleSpec, _batch_slice_norms, \
    run_free_scan, run_potential_scan


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _odd_coeffs(rng, band=9):
    c = np.zeros(band + 1)
    k = np.arange(1, band + 1, 2)
    c[1::2] = rng.standard_normal(k.size) / (1.0 + k) ** 2
    return c


def _bump_data(grid, energy, width=0.6):
    y = grid.nodes
    f = hw.OddField(grid, y * np.exp(-((y / width) ** 2)))
    g = hw.OddField.zero(grid)
    e0 = hw.energy_norm(hw.EnergyState(f, g))
    return (energy / e0) * f, g


def test_criterion_01_free_closed_form():
    t0 = time.monotonic()
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(0.0))
    st = hw.EnergyState.from_callables(g, lambda y: y, lambda y: 0.0 * y)
    traj = hw.evolve(gen, st, 5.0, store_every=16)
    err = 0.0
    for s, state in zip(traj.times, traj):
        a = np.exp(-s) * (2.0 - np.exp(-s))
        u = odd_extension(state.u.half)
        err = max(err, float(np.max(np.abs(u - a * g.nodes))))
    elapsed = time.monotonic() - t0
    ok = err <= 1e-6 and elapsed <= 10.0
    _report(1, ok, f"max error {err:.3e} (tol 1e-6) over s in [0,5], "
                   f"n=64, runtime {elapsed:.2f}s (budget 10s)")


def test_criterion_02_exact_growing_mode():
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    st = hw.EnergyState.from_callables(g, lambda y: y, lambda y: y)
    traj = hw.evolve(gen, st, 3.0, store_every=10 ** 9)
    fin = traj[-1]
    u = odd_extension(fin.u.half)
    rel = float(np.max(np.abs(u - np.exp(3.0) * g.nodes)) / np.exp(3.0))
    ok = abs(traj.times[-1] - 3.0) < 1e-12 and rel <= 1e-6
    _report(2, ok, f"relative error {rel:.3e} (tol 1e-6) at s=3 "
                   f"for the e^s mode")


def test_criterion_03_energy_flux_identity():
    g = hw.make_grid(64)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        cf = _odd_coeffs(rng)
        cg = _odd_coeffs(rng)
        traj = free_wave.free_trajectory(cf, cg, g, 1.5, 5e-4)
        worst = max(worst, free_wave.energy_flux_check(traj))
    ok = worst <= 1e-3
    _report(3, ok, f"worst normalized flux defect {worst:.3e} (tol 1e-3) "
                   f"over 20 random band-limited data, n=64")


def test_criterion_04_wronskian_identity():
    pots = [hw.Potential.constant(0.0), hw.Potential.constant(-1.0),
            hw.Potential.constant(-6.0),
            hw.Potential.from_callable(lambda y: y * y - 2.0, name="y2-2")]
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(20):
        V = pots[k % 4]
        lam = complex(rng.uniform(-0.25, 0.25),
                      float(rng.choice([-1, 1])) * rng.uniform(1.0, 19.9))
        w = wronskian_pair(V, lam)
        worst = max(worst, abs(w - 2.0 * lam))
    ok = worst <= 1e-8
    _report(4, ok, f"worst |W - 2*lam| = {worst:.3e} (tol 1e-8) over "
                   f"20 random lam across 4 potentials")


def test_criterion_05_empty_spectrum_stable():
    V = hw.Potential.constant(-1.0)
    counts = {
        "base": len(find_sigma_v(V, window=(3.0, 20.0))),
        "points x2": len(find_sigma_v(V, window=(3.0, 20.0),
                                      points_per_edge=512)),
        "order x2": len(find_sigma_v(V, window=(3.0, 20.0), m=24)),
        "grid x2": len(find_sigma_v(V, window=(3.0, 20.0),
                                    grid=hw.make_grid(128))),
    }
    ok = all(c == 0 for c in counts.values())
    _report(5, ok, "root counts " + ", ".join(
        f"{k}={v}" for k, v in counts.items()) + " (all must be 0)")


def test_criterion_06_constructed_eigenvalues():
    details = []
    ok = True
    for lam0 in (0.5, 1.0, 1.5):
        V = hw.Potential.constant(-(lam0 + 1.0) * (lam0 + 2.0))
        g = hw.make_grid(64)
        gen = hw.assemble_generator(g, V)
        roots = find_sigma_v(V, window=(3.0, 20.0))
        root = min(roots, key=lambda r: abs(r.lam - lam0))
        root_err = abs(root.lam - lam0)
        sol = build_u1(V, root.lam, check_resonance=False)
        phi = sol.u1(np.abs(g.nodes)) * np.sign(g.nodes)
        c = (phi @ g.nodes) / (g.nodes @ g.nodes)
        collin = float(np.max(np.abs(phi - c * g.nodes))
                       / np.max(np.abs(phi)))
        proj = hw.riesz_projection(
            gen, {"kind": "circle", "center": [lam0, 0.0], "radius": 0.25})
        p2p = float(np.max(np.abs(proj.reduced @ proj.reduced
                                  - proj.reduced)))
        nil = proj.nilpotency[proj.eigenvalues_inside[0]]
        ok = ok and len(roots) == 1 and root_err <= 1e-8 \
            and collin <= 1e-8 and proj.rank == 1 and p2p <= 1e-8 \
            and nil == 0
        details.append(f"lam0={lam0:g}: root err {root_err:.1e}, "
                       f"eigfun resid {collin:.1e}, rank {proj.rank}, "
                       f"|P^2-P| {p2p:.1e}, n(lam0)={nil}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_resolvent_dual_route():
    g = hw.make_grid(128)
    V = hw.Potential.constant(-1.0)
    gen = hw.assemble_generator(g, V)
    lam = 0.05 + 2.0j
    handle = hw.resolvent_matrix(gen, lam)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        c = _odd_coeffs(rng)
        d = _odd_coeffs(rng)
        st = hw.EnergyState.from_callables(
            g, lambda y: cheb.chebval(y, c), lambda y: cheb.chebval(y, d))
        x = gen.reduce_state(st)
        w_mat = gen.expand_state(handle.solve(x)).stacked()
        w_gr = gen.expand_state(resolvent_apply(V, lam, g, x)).stacked()
        rel = float(np.linalg.norm(w_gr - w_mat) / np.linalg.norm(w_mat))
        worst = max(worst, rel)
    n = gen.reduced.shape[0]
    R = handle.solve(np.eye(n))
    ident = float(np.max(np.abs((lam * np.eye(n) - gen.reduced) @ R
                                - np.eye(n))))
    ok = worst <= 1e-6 and ident <= 1e-8
    _report(7, ok, f"worst dual-route rel diff {worst:.3e} (tol 1e-6) "
                   f"over 10 states; identity defect {ident:.3e} "
                   f"(tol 1e-8)")


def test_criterion_08_free_mixed_norm_ratios():
    pairs = [(2.0, 4.0), (3.0, 6.0), (np.inf, 2.0)]
    spec = EnsembleSpec(count=100, band_limit=8, seed=2026)
    rep = run_free_scan(spec, pairs, 20.0, num_slices=400, refine=True)
    finite = all(np.isfinite(rep.max_ratio[pq])
                 and rep.max_ratio[pq] < 1e3 for pq in pairs)
    worst_delta = max(v for pq in pairs
                      for v in rep.refinement[pq].values())
    ok = finite and worst_delta <= 0.10
    mx = ", ".join(f"({p:g},{q:g})={rep.max_ratio[(p, q)]:.3f}"
                   for p, q in pairs)
    _report(8, ok, f"free ratios {mx}; worst refinement change "
                   f"{worst_delta:.2e} (tol 0.10), 100 members")


def test_criterion_09_perturbed_mixed_norm_ratios():
    pairs = [(2.0, 4.0), (3.0, 6.0), (np.inf, 2.0)]
    spec = EnsembleSpec(count=100, band_limit=8, seed=2026)
    rep = run_potential_scan(hw.Potential.constant(-1.0), spec, pairs,
                             20.0, num_slices=400, refine=True)
    finite = all(np.isfinite(rep.max_ratio[pq])
                 and rep.max_ratio[pq] < 1e3 for pq in pairs)
    worst_delta = max(v for pq in pairs
                      for v in rep.refinement[pq].values())

    # growth contrast for the single-mode potential at s = 5
    g = hw.make_grid(64)
    gen = hw.assemble_generator(g, hw.Potential.constant(-6.0))
    proj = hw.growing_mode_projection(gen, [1.0 + 0.0j])
    members = spec.fields(g)
    X0 = np.stack([gen.reduce_state(m.state) for m in members], axis=1)
    Xp = X0 - proj.reduced @ X0
    _, raw = _batch_slice_norms(gen, X0, 5.0, 100, [2.0])
    _, prj = _batch_slice_norms(gen, Xp, 5.0, 100, [2.0])
    contrast = float(np.min(raw[2.0][-1] / prj[2.0][-1]))
    need = float(np.exp(2.5))

    ok = finite and worst_delta <= 0.10 and contrast >= need
    mx = ", ".join(f"({p:g},{q:g})={rep.max_ratio[(p, q)]:.3f}"
                   for p, q in pairs)
    _report(9, ok, f"projected ratios {mx}; worst refinement change "
                   f"{worst_delta:.2e} (tol 0.10); raw-vs-projected "
                   f"contrast min {contrast:.1f} >= e^2.5 = {need:.1f}")


def test_criterion_10_cubic_contraction():
    g = hw.make_grid(64)
    f, gg = _bump_data(g, 0.01)
    run = hw.picard_solve(f, gg, 10.0, 0.05)
    ratios_ok = run.converged and all(r <= 0.5 for r in run.ratios[1:])
    prop = hw.make_propagators(g, 0.05, 10.0)
    resid = hw.fixed_point_residual(prop, f, gg, run.final)
    sub = max(1, int(np.ceil(0.05 / (4.0 / g.n ** 2))))
    direct = hw.nonlinear_evolve_direct(f, gg, 10.0, ds=0.05 / sub,
                                        store_every=sub)
    m = min(len(run.final), len(direct))
    diff = np.abs(odd_extension(run.final.U[:m] - direct.U[:m]))
    l6 = float(np.max((diff ** 6 @ g.quad_weights) ** (1.0 / 6.0)))
    ok = ratios_ok and resid <= 1e-4 and l6 <= 1e-4
    worst_ratio = max(run.ratios[1:]) if len(run.ratios) > 1 else 0.0
    _report(10, ok, f"iterate ratios from step 2 max {worst_ratio:.2e} "
                    f"(tol 0.5); fixed-point residual {resid:.3e} "
                    f"(tol 1e-4); vs direct solver L^inf L^6 "
                    f"{l6:.3e} (tol 1e-4)")


def test_criterion_11_cross_chart_consistency():
    g = hw.make_grid(128)
    f, gg = _bump_data(g, 0.01)
    disc = hw.cauchy_cross_check(f, gg, s0=4.0, s1=5.0, y_max=0.9,
                                 r_max=20.0, dr=1.0 / 64)
    g2 = hw.make_grid(256)
    f2, gg2 = _bump_data(g2, 0.01)
    disc2 = hw.cauchy_cross_check(f2, gg2, s0=4.0, s1=5.0, y_max=0.9,
                                  r_max=20.0, dr=1.0 / 128)
    factor = disc / disc2
    ok = disc <= 1e-3 and 2.5 <= factor <= 7.0
    _report(11, ok, f"discrepancy {disc:.3e} (tol 1e-3) at n=128, "
                    f"dr=1/64; doubling shrinks by {factor:.2f}x "
                    f"(need ~4x, accepted 2.5-7)")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {"grid_n": 32, "mode": "free",
           "ensemble": {"count": 6, "band_limit": 5, "seed": 99},
           "exponents": [[2, 4], [3, 6]],
           "s_max": 6.0, "num_slices": 120, "refine": False}
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("run1", "run2"):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperwave.cli", "strichartz",
             "--config", str(cfg_path), "--out", str(tmp_path / name),
             "--seed", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(tmp_path / name)
    csv_same = (outs[0] / "series.csv").read_bytes() \
        == (outs[1] / "series.csv").read_bytes()
    res_same = (outs[0] / "results.json").read_bytes() \
        == (outs[1] / "results.json").read_bytes()
    ok = csv_same and res_same
    _report(12, ok, f"repeated seeded runs byte-identical: "
                    f"series.csv={csv_same}, results.json={res_same}")

"""Mixed-norm ratio scans over random odd data ensembles.

For each ensemble member the scan computes

    ratio = || u ||_{L^p_s L^q_y} / || (f,g) ||_E

with u the free closed-form solution (run_free_scan) or the
projected-out evolution under a potential (run_potential_scan). Reported
maxima come with refinement deltas (grid doubled, horizon doubled) and
the share of the L^p integral carried by the last quarter of the time
window, so saturation of the time integral is visible in the report.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import free_wave
from .core_types import (
    EnergyState,
    _mixed_from_samples,
    energy_norm,
    make_grid,
    odd_extension,
    slice_norms,
)
from .errors import InvalidArgumentError
from .evolution import (
    _growing_modes,
    _propagate,
    assemble_generator,
    growing_mode_projection,
    propagator,
)

DEFAULT_EXPONENTS = ((2, 4), (3, 6), (4, 8), (np.inf, 2))


@dataclass
class EnsembleMember:
    """One random datum sampled on a grid."""
    index: int
    state: EnergyState


@dataclass
class EnsembleSpec:
    """Reproducible random odd-Chebyshev data.

    Member fields are f = sum_{k<=K} c_k T_{2k+1} with independent
    standard-normal c_k damped by (k+1)^(-decay), and likewise for g.
    With g_only the f coefficients are zeroed after drawing, so the g
    data coincide with the ones a full ensemble of the same seed gets.
    """
    count: int
    band_limit: int
    seed: int
    decay: float = 2.0
    g_only: bool = False

    def coefficient_arrays(self):
        if self.count < 1 or self.band_limit < 0:
            raise InvalidArgumentError("count >= 1 and band_limit >= 0")
        rng = np.random.default_rng(self.seed)
        K = self.band_limit
        out = []
        for i in range(self.count):
            cf = np.zeros(2 * K + 2)
            cg = np.zeros(2 * K + 2)
            for k in range(K + 1):
                cf[2 * k + 1] = rng.standard_normal() * (k + 1.0) ** -self.decay
            for k in range(K + 1):
                cg[2 * k + 1] = rng.standard_normal() * (k + 1.0) ** -self.decay
            if self.g_only:
                cf = np.zeros_like(cf)
            out.append((cf, cg))
        return out

    def fields(self, grid):
        members = []
        for i, (cf, cg) in enumerate(self.coefficient_arrays()):
            sol = free_wave.from_chebyshev(grid, cf, cg)
            members.append(EnsembleMember(
                index=i, state=EnergyState(sol.f_field, sol.g_field)))
        return members


@dataclass
class StrichartzReport:
    potential_id: str
    exponents: List[Tuple[float, float]]
    ratios: Dict[Tuple[float, float], np.ndarray]
    max_ratio: Dict[Tuple[float, float], float]
    refinement: Dict[Tuple[float, float], Dict[str, float]]
    tail_share: Dict[Tuple[float, float], float]
    s_max: float = 0.0
    grid_n: int = 0


def _validate_exponents(exponents):
    pairs = []
    for p, q in exponents:
        p = float(p)
        q = float(q)
        if np.isinf(q):
            raise InvalidArgumentError(
                "q = inf is excluded: constant-in-y comparisons admit no"
                " sup-in-y bound by the energy (the constant-solution"
                " obstruction)")
        if p < 2:
            raise InvalidArgumentError(f"p >= 2 required, got {p}")
        if q < 1:
            raise InvalidArgumentError(f"q >= 1 required, got {q}")
        pairs.append((p, q))
    if not pairs:
        raise InvalidArgumentError("empty exponent list")
    return pairs


def _tail_share(times, lq, p, s_max):
    """Share of the L^p time integral carried by [3/4 s_max, s_max]."""
    sel = times >= 0.75 * s_max
    if np.isinf(p):
        total = float(np.max(lq))
        return float(np.max(lq[sel]) / total) if total > 0 else 0.0
    total = float(np.trapezoid(lq ** p, times))
    if total <= 0:
        return 0.0
    return float(np.trapezoid(lq[sel] ** p, times[sel]) / total)


def _run_scan(potential_id, spec, pairs, s_max, grid, num_slices, refine,
              norms_of):
    """Ratios, tail shares and refinement deltas shared by both scans.

    norms_of(sols, grid, times, qs) returns {q: (len(times), len(sols))}
    L^q norms of u on the slices for the members' closed-form data
    `sols`. Refinement reruns the argmax members with the grid doubled
    and with the horizon (and slice count) doubled.
    """
    qs = sorted({q for _, q in pairs})
    coeffs = spec.coefficient_arrays()

    def sample(idx, grid, s_max, num_slices):
        sols = [free_wave.from_chebyshev(grid, *coeffs[i]) for i in idx]
        energies = np.array([energy_norm(EnergyState(s.f_field, s.g_field))
                             for s in sols])
        times = np.linspace(0.0, s_max, num_slices + 1)
        return times, norms_of(sols, grid, times, qs), energies

    times, norms, energies = sample(range(len(coeffs)), grid, s_max,
                                    num_slices)
    ratios = {}
    tail = {}
    for p, q in pairs:
        r = np.full(len(coeffs), np.nan)
        for i in np.flatnonzero(energies > 0):
            r[i] = _mixed_from_samples(times, norms[q][:, i], p) / energies[i]
        ratios[(p, q)] = r
        best = int(np.nanargmax(r))
        tail[(p, q)] = _tail_share(times, norms[q][:, best], p, s_max)
    max_ratio = {pq: float(np.nanmax(r)) for pq, r in ratios.items()}

    refinement = {}
    if refine:
        best_set = sorted({int(np.nanargmax(r)) for r in ratios.values()})
        t_n, n_n, e_n = sample(best_set, make_grid(2 * grid.n), s_max,
                               num_slices)
        t_h, n_h, _ = sample(best_set, grid, 2.0 * s_max, 2 * num_slices)
        for p, q in pairs:
            best = int(np.nanargmax(ratios[(p, q)]))
            j = best_set.index(best)
            base = ratios[(p, q)][best]
            r_n = _mixed_from_samples(t_n, n_n[q][:, j], p) / e_n[j]
            r_h = _mixed_from_samples(t_h, n_h[q][:, j], p) / energies[best]
            refinement[(p, q)] = {
                "grid_doubled": abs(r_n - base) / base,
                "horizon_doubled": abs(r_h - base) / base,
            }
    return StrichartzReport(
        potential_id=potential_id, exponents=pairs, ratios=ratios,
        max_ratio=max_ratio, refinement=refinement, tail_share=tail,
        s_max=float(s_max), grid_n=grid.n)


def run_free_scan(spec, exponents=DEFAULT_EXPONENTS, s_max=20.0, grid=None,
                  num_slices=400, refine=True):
    """Ratio scan for the closed-form free evolution."""
    pairs = _validate_exponents(exponents)
    if grid is None:
        grid = make_grid(64)
    if s_max <= 0 or num_slices < 8:
        raise InvalidArgumentError("need s_max > 0 and num_slices >= 8")

    def norms_of(sols, grid, times, qs):
        cols = {q: [] for q in qs}
        for sol in sols:
            U = free_wave.evaluate(sol, times[:, None], grid.nodes)
            for q in qs:
                cols[q].append(slice_norms(U, grid, q))
        return {q: np.stack(c, axis=1) for q, c in cols.items()}

    return _run_scan("free", spec, pairs, s_max, grid, num_slices, refine,
                     norms_of)


def _batch_slice_norms(gen, X0, s_max, num_slices, qs):
    """Evolve a reduced column batch, recording L^q norms of the first
    component at num_slices+1 equispaced times, one propagator step
    apart."""
    grid = gen.grid
    ds = s_max / num_slices
    norms = {q: np.zeros((num_slices + 1, X0.shape[1])) for q in qs}

    def observer(i, s, X):
        U = odd_extension(X[:grid.n // 2].T)  # (members, n)
        for q in qs:
            norms[q][i] = slice_norms(U, grid, q)

    observer(0, 0.0, X0)
    _propagate(propagator(gen, ds), X0, ds, num_slices, observer=observer)
    times = np.linspace(0.0, s_max, num_slices + 1)
    return times, norms


def run_potential_scan(V, spec, exponents=DEFAULT_EXPONENTS, s_max=20.0,
                       grid=None, window=(3.0, 20.0), num_slices=400,
                       refine=True):
    """Ratio scan for the evolution under V, growing modes projected out.

    Aborts with a diagnostic if the mode finder reports imaginary-axis
    spectrum (the ratio bound is meaningless there). Ratios use the
    energy of the original (un-projected) data.
    """
    pairs = _validate_exponents(exponents)
    if grid is None:
        grid = make_grid(64)
    lams = _growing_modes(V, window, grid,
                          "the projected-evolution bound does not apply")
    flows = {}  # grid size -> (generator, growing-mode projection)

    def norms_of(sols, grid, times, qs):
        if grid.n not in flows:
            gen = assemble_generator(grid, V)
            flows[grid.n] = gen, growing_mode_projection(gen, lams)
        gen, proj = flows[grid.n]
        X0 = np.stack([gen.reduce_state(EnergyState(s.f_field, s.g_field))
                       for s in sols], axis=1)
        if proj is not None:
            X0 = X0 - proj.reduced @ X0
        return _batch_slice_norms(gen, X0, times[-1], len(times) - 1, qs)[1]

    return _run_scan(str(V.name), spec, pairs, s_max, grid, num_slices,
                     refine, norms_of)

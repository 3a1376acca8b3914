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
from numpy.polynomial import chebyshev as C

from . import free_wave
from .core_types import (
    EnergyState,
    OddField,
    _lq_norms,
    _mixed_from_samples,
    _odd_part,
    make_grid,
    positive_half,
    slice_energies,
)
from .errors import DivergenceError, InvalidArgumentError, InvalidDataError
from .evolution import (
    _growing_modes,
    assemble_generator,
    growing_mode_projection,
    propagator,
)

DEFAULT_EXPONENTS = ((2, 4), (3, 6), (4, 8), (np.inf, 2))
# slices per norm block in both scans (one Vandermonde product of the
# free solution, or that many buffered propagator steps): enough to
# amortise the call overhead, few enough to keep the block small
_SLICE_BLOCK = 16


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
    """
    count: int
    band_limit: int
    seed: int
    decay: float = 2.0

    def coefficient_arrays(self):
        """[(cf, cg)] per member; the draws run member by member, f
        before g, so a larger count keeps the earlier members."""
        if not (self.count >= 1 and self.band_limit >= 0 and self.seed >= 0
                and 0 <= self.decay < np.inf):
            raise InvalidArgumentError("count >= 1, band_limit >= 0,"
                                       " seed >= 0 and finite decay >= 0")
        rng = np.random.default_rng(self.seed)
        K = self.band_limit
        c = np.zeros((self.count, 2, 2 * K + 2))
        c[..., 1::2] = rng.standard_normal((self.count, 2, K + 1)) \
            * np.array([(k + 1.0) ** -self.decay for k in range(K + 1)])
        return [(cf, cg) for cf, cg in c]

    def fields(self, grid):
        F, G = _node_fields(grid, *_coefficient_matrices(self))
        return [EnsembleMember(index=i, state=EnergyState(
                    OddField.from_half(grid, f), OddField.from_half(grid, g)))
                for i, (f, g) in enumerate(zip(F, G))]


def _coefficient_matrices(spec):
    """(d, M) matrices of the members' f and g coefficients, one column
    per member; even-order coefficients are refused."""
    c = np.asarray(spec.coefficient_arrays(), dtype=float)  # (M, 2, d)
    if np.max(np.abs(c[..., 0::2])) > 0:
        raise InvalidDataError("even-order Chebyshev coefficients present")
    return c[:, 0].T, c[:, 1].T


def _node_fields(grid, cf, cg):
    """(M, n/2) samples at the positive nodes of the data with coefficient
    columns cf, cg, held to the OddField parity tolerance and projected."""
    return (_odd_part(grid, C.chebval(grid.nodes, cf), 2),
            _odd_part(grid, C.chebval(grid.nodes, cg), 2))


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


def _validate_scan(exponents, s_max, num_slices, grid):
    """The exponent pairs as floats and the grid (64 nodes by default) of
    a scan, after checking the exponents and the time window."""
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
    if not (s_max > 0 and num_slices >= 8):
        raise InvalidArgumentError("need s_max > 0 and num_slices >= 8")
    return pairs, make_grid(64) if grid is None else grid


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


def _ratios(pairs, times, norms, energies):
    """{(p, q): ratio per member}: the L^p-in-s norm of the L^q norms
    (columns of norms[q]) over the energy; NaN where the energy is 0."""
    live = energies > 0
    out = {}
    for p, q in pairs:
        r = np.full(energies.shape, np.nan)
        r[live] = _mixed_from_samples(times, norms[q][:, live], p) \
            / energies[live]
        out[(p, q)] = r
    return out


def _run_scan(potential_id, spec, pairs, s_max, grid, num_slices, refine,
              norms_of):
    """Ratios, tail shares and refinement deltas shared by both scans.

    norms_of(cf, cg, F, G, grid, times, qs) returns {q: (len(times), M)}
    L^q norms of u on the slices for M data, given as (d, M) coefficient
    columns cf, cg and as (M, n/2) positive-node samples F, G. Refinement
    reruns the argmax members with the grid doubled and with the horizon
    (and slice count) doubled.
    """
    qs = sorted({q for _, q in pairs})
    CF, CG = _coefficient_matrices(spec)

    def sample(cols, grid, s_max, num_slices):
        cf, cg = CF[:, cols], CG[:, cols]
        F, G = _node_fields(grid, cf, cg)
        times = np.linspace(0.0, s_max, num_slices + 1)
        norms = norms_of(cf, cg, F, G, grid, times, qs)
        if not all(np.all(np.isfinite(v)) for v in norms.values()):
            raise DivergenceError(
                f"non-finite slice norms on [0, {s_max:g}] with"
                f" {num_slices} slices")
        return times, norms, _ratios(pairs, times, norms,
                                     slice_energies(F, G, grid))

    times, norms, ratios = sample(slice(None), grid, s_max, num_slices)
    best = {pq: int(np.nanargmax(r)) for pq, r in ratios.items()}
    max_ratio = {pq: float(ratios[pq][i]) for pq, i in best.items()}
    tail = {(p, q): _tail_share(times, norms[q][:, best[(p, q)]], p, s_max)
            for p, q in pairs}

    refinement = {}
    if refine:
        best_set = sorted(set(best.values()))
        r_n = sample(best_set, make_grid(2 * grid.n), s_max, num_slices)[2]
        r_h = sample(best_set, grid, 2.0 * s_max, 2 * num_slices)[2]
        for pq, i in best.items():
            j = best_set.index(i)
            base = ratios[pq][i]
            refinement[pq] = {
                "grid_doubled": abs(r_n[pq][j] - base) / base,
                "horizon_doubled": abs(r_h[pq][j] - base) / base,
            }
    return StrichartzReport(
        potential_id=potential_id, exponents=pairs, ratios=ratios,
        max_ratio=max_ratio, refinement=refinement, tail_share=tail,
        s_max=float(s_max), grid_n=grid.n)


def _store_norms(norms, lo, U, grid, work):
    """Write the L^q norms of the (k, M, n/2) positive-node slice block U
    into rows lo, ..., lo + k - 1 of each norms[q]; `work`, a float array
    of U's shape and layout, holds |U|, and U's own memory the powers:
    the block is spent, both callers refill it."""
    spare = U.real
    if np.iscomplexobj(U) and U.strides[-1] == U.itemsize:
        # the first half of each row's floats: unit stride as in `work`,
        # so that matmul sums as it does on a new array
        spare = U.view(float)[..., :U.shape[-1]]
    for q, out in _lq_norms(U, grid, list(norms), work, spare).items():
        norms[q][lo:lo + len(U)] = out


# Both scans compute their norms in one set of block buffers per sample,
# the block itself and one float block for |U|: a block-sized temporary
# per call is, depending on the allocator's state, mapped afresh each
# time and page-faults on every use.

def _free_norms(cf, cg, grid, times, qs):
    """{q: (len(times), M)} L^q norms of the free solutions with the
    coefficient columns cf, cg, _SLICE_BLOCK slices per product. The
    characteristic endpoints swap exactly at the mirrored node, so the
    solution is odd and is evaluated at the positive nodes only."""
    H = free_wave.antiderivative_columns(cf, cg)
    y = positive_half(grid.nodes)
    norms = {q: np.empty((len(times), H.shape[1])) for q in qs}
    # (slices, n/2, members), read as (slices, members, n/2)
    values = np.empty((_SLICE_BLOCK, y.size, H.shape[1]), dtype=H.dtype)
    work = np.empty(values.shape).transpose(0, 2, 1)
    for lo in range(0, len(times), _SLICE_BLOCK):
        t = times[lo:lo + _SLICE_BLOCK]
        U = free_wave.evaluate_columns(H, t, y, out=values[:len(t)])
        _store_norms(norms, lo, U, grid, work[:len(t)])
    return norms


def run_free_scan(spec, exponents=DEFAULT_EXPONENTS, s_max=20.0, grid=None,
                  num_slices=400, refine=True):
    """Ratio scan for the closed-form free evolution."""
    pairs, grid = _validate_scan(exponents, s_max, num_slices, grid)

    def norms_of(cf, cg, F, G, grid, times, qs):
        return _free_norms(cf, cg, grid, times, qs)

    return _run_scan("free", spec, pairs, s_max, grid, num_slices, refine,
                     norms_of)


def _batch_slice_norms(gen, X0, s_max, num_slices, qs):
    """Evolve a reduced column batch, recording L^q norms of the first
    component at num_slices+1 equispaced times, one propagator step
    apart; the u-rows of _SLICE_BLOCK steps are taken together."""
    h = gen.grid.n // 2
    E = propagator(gen, s_max / num_slices)
    norms = {q: np.empty((num_slices + 1, X0.shape[1])) for q in qs}
    # (slices, members, n/2): the u-rows are the positive-node samples
    block = np.empty((_SLICE_BLOCK, X0.shape[1], h), dtype=X0.dtype)
    work = np.empty(block.shape)
    X = X0
    for lo in range(0, num_slices + 1, _SLICE_BLOCK):
        k = min(_SLICE_BLOCK, num_slices + 1 - lo)
        for j in range(k):
            if lo + j:
                X = E @ X
            block[j] = X[:h].T
        _store_norms(norms, lo, block[:k], gen.grid, work[:k])
    times = np.linspace(0.0, s_max, num_slices + 1)
    return times, norms


def run_potential_scan(V, spec, exponents=DEFAULT_EXPONENTS, s_max=20.0,
                       grid=None, window=(3.0, 20.0), num_slices=400,
                       refine=True):
    """Ratio scan for the evolution under V, growing modes projected out.

    Aborts with a diagnostic if the mode finder reports imaginary-axis
    spectrum (the ratio bound is meaningless there) or the base grid's
    generator has a growing eigenvalue the window missed. Ratios use the
    energy of the original (un-projected) data.
    """
    pairs, grid = _validate_scan(exponents, s_max, num_slices, grid)
    base = assemble_generator(grid, V)
    lams = _growing_modes(base, window,
                          "the projected-evolution bound does not apply")
    # grid size -> (generator, growing-mode projection)
    flows = {grid.n: (base, growing_mode_projection(base, lams))}

    def norms_of(cf, cg, F, G, grid, times, qs):
        if grid.n not in flows:
            gen = assemble_generator(grid, V)
            flows[grid.n] = gen, growing_mode_projection(gen, lams)
        gen, proj = flows[grid.n]
        # reduced columns [f; g] at the positive nodes, one per member
        X0 = np.stack([F, G]).transpose(0, 2, 1).reshape(grid.n, -1)
        if proj is not None:
            X0 = X0 - proj.reduced @ X0
        return _batch_slice_norms(gen, X0, times[-1], len(times) - 1, qs)[1]

    return _run_scan(str(V.name), spec, pairs, s_max, grid, num_slices,
                     refine, norms_of)

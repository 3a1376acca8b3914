"""The Schur-form Riesz projection against its definition: the contour
integral of the resolvent, evaluated by the trapezoid rule on a circle."""

import functools
import importlib.machinery

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, schur

import hyperwave as hw
from hyperwave.evolution import RieszProjection, _add_part, _lapack


# ---------------------------------------------------------------------------
# Quadrature oracle

def _contour_nodes(center, radius, points=128):
    """Nodes and weights of the trapezoid rule for (1/2 pi i) times the
    integral over the circle |lam - center| = radius; spectrally accurate
    for the resolvent, which is analytic on the circle."""
    e = np.exp(2j * np.pi * np.arange(points) / points)
    return center + radius * e, (radius / points) * e


def _quadrature_projection(L, lams, w):
    Iden = np.eye(L.shape[0])
    P = np.zeros(L.shape, dtype=complex)
    for lam, wk in zip(lams, w):
        P += wk * np.linalg.solve(lam * Iden - L, Iden)
    return P


def _matrix_rank_svd(P, threshold=1e-6):
    return int(np.sum(np.linalg.svd(P, compute_uv=False) > threshold))


def _nilpotency_order(L, lam, P):
    """Smallest k >= 0 such that (L - lam)^(k+1) P vanishes at tolerance."""
    A = L - lam * np.eye(L.shape[0])
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    Q = P.copy()
    for k in range(L.shape[0]):
        Q = A @ Q
        if float(np.linalg.norm(Q, 2)) / scale <= 1e-8 * (1.0 + abs(lam)):
            return k
    raise AssertionError(f"no nilpotency order at lambda = {lam}")


def _rel_diff(P, P_ref):
    return np.linalg.norm(P - P_ref, 2) / np.linalg.norm(P_ref, 2)


# ---------------------------------------------------------------------------
# Schur route vs oracle

@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("lam0", [0.5, 1.0, 1.5])
def test_schur_projection_matches_contour_quadrature(lam0, n):
    # V = -(lam0 + 1)(lam0 + 2) has the single growing mode e^{lam0 s};
    # these are the potentials of criteria 6 and 9
    V = hw.Potential.constant(-(lam0 + 1.0) * (lam0 + 2.0))
    gen = hw.assemble_generator(hw.make_grid(n), V)
    proj = hw.growing_mode_projection(gen, [complex(lam0)])
    P_quad = _quadrature_projection(gen.reduced,
                                    *_contour_nodes(lam0, 0.25))
    assert _rel_diff(proj.reduced, P_quad) <= 1e-10
    ((lam, mult),) = proj.multiplicity.items()
    assert mult == _matrix_rank_svd(P_quad) == 1
    assert proj.nilpotency[lam] == _nilpotency_order(gen.reduced, lam,
                                                     P_quad)


def test_jordan_block_multiplicity_and_nilpotency():
    # a 2 x 2 Jordan block at 1 beside the simple eigenvalues -0.5, 2 and
    # -1 +- i, under a fixed similarity S with cond(S) about 3
    J = np.diag([1.0, 1.0, -0.5, 2.0, -1.0, -1.0])
    J[0, 1] = 1.0
    J[4, 5], J[5, 4] = 1.0, -1.0
    S = np.eye(6) + 0.2 * np.random.default_rng(7).standard_normal((6, 6))
    assert np.linalg.cond(S) < 5.0
    A = S @ J @ np.linalg.inv(S)

    proj = RieszProjection(reduced=np.zeros((6, 6), dtype=complex), rank=0)
    _add_part(proj, *schur(A, output="complex"),
              {"center": 1.0, "radius": 0.25})
    P_quad = _quadrature_projection(A, *_contour_nodes(1.0, 0.25))
    assert _rel_diff(proj.reduced, P_quad) <= 1e-10
    ((lam, mult),) = proj.multiplicity.items()
    assert abs(lam - 1.0) < 1e-6
    assert mult == _matrix_rank_svd(P_quad) == proj.rank == 2
    assert proj.nilpotency[lam] == _nilpotency_order(A, lam, P_quad) == 1


# ---------------------------------------------------------------------------
# LAPACK without the scipy.linalg package

@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("V", [
    hw.Potential.constant(-6.0),
    hw.Potential.even_poly([-7.0, 2.0]),
    hw.Potential.from_callable(lambda y: -6.0 / np.cosh(3.0 * y) ** 2)],
    ids=["constant", "even_poly", "callable"])
def test_reduced_schur_equals_scipys(V, n):
    gen = hw.assemble_generator(hw.make_grid(n), V)
    T, Q = gen.reduced_schur()
    T_ref, Q_ref = schur(gen.reduced, output="complex")
    assert np.array_equal(T, T_ref)
    assert np.array_equal(Q, Q_ref)


def test_reduced_schur_refuses_non_finite_entries_as_scipy():
    # finite on from_callable's probe set, infinite at the outer nodes
    V = hw.Potential.from_callable(
        lambda y: np.where(np.abs(y) > 0.998, np.inf, -1.0))
    gen = hw.assemble_generator(hw.make_grid(128), V)
    with pytest.raises(ValueError) as ref:
        schur(gen.reduced, output="complex")
    with pytest.raises(ValueError) as own:
        gen.reduced_schur()
    assert str(own.value) == str(ref.value)


def test_lapack_loader_gives_scipys_routines():
    assert all(getattr(_lapack(), name) is getattr(lapack, name)
               for name in ("zgees", "ztrsen", "ztrsyl"))


def test_lapack_loader_names_a_missing_extension(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing.so"])
    with pytest.raises(ImportError, match=r"linalg/_flapack\.missing\.so"):
        _lapack.__wrapped__()


# ---------------------------------------------------------------------------
# Properties on random circles

@functools.lru_cache(maxsize=None)
def _generator(V, n):
    return hw.assemble_generator(hw.make_grid(n), hw.Potential.constant(V))


_circles = st.lists(st.fixed_dictionaries({
    "center": st.tuples(st.floats(-2.5, 2.5), st.floats(-2.0, 2.0)),
    "radius": st.floats(0.05, 2.0)}), min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(V=st.sampled_from([-3.75, -6.0]), n=st.sampled_from([32, 64]),
       circles=_circles)
def test_projection_properties_on_random_circles(V, n, circles):
    gen = _generator(V, n)
    z = gen.reduced_eigenvalues()
    discs = [(complex(*c["center"]), c["radius"]) for c in circles]
    for c, r in discs:
        assume(np.min(np.abs(np.abs(z - c) - r)) >= 1e-3)
        # left of Re = -3.25 the discretization eigenvalues have condition
        # numbers beyond 1e12, so no two eigenvalue routes agree to 1e-3
        assume(c.real - r > -3.25)
    if len(discs) == 2:
        (c0, r0), (c1, r1) = discs
        assume(abs(c0 - c1) > r0 + r1)

    proj = hw.riesz_projection(gen, circles)
    P, L = proj.reduced, gen.reduced
    # round-off in P grows with ||P||, the conditioning of the split
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    assert np.linalg.norm(P @ P - P, 2) <= 1e-8 * scale ** 2
    assert np.linalg.norm(P @ L - L @ P, 2) \
        <= 1e-8 * scale * np.linalg.norm(L, 2)
    count = sum(int(np.sum(np.abs(z - c) < r)) for c, r in discs)
    assert round(np.trace(P).real) == proj.rank == count
    assert np.array_equal(sum(proj.parts), P)

"""The package's DOP853 against scipy's solve_ivp, bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as coef
from scipy.integrate._ivp import rk

import hyperwave as hw
from hyperwave import _dop853, spectral
from hyperwave.spectral import FrobeniusSolution, build_u1


def _spy(monkeypatch):
    """The arguments that the private solver's next call receives."""
    seen = {}
    solve = _dop853.solve

    def spy(fun, t0, y0, t_bound, rtol, atol):
        seen.update(fun=fun, t0=t0, y0=y0, t_bound=t_bound, rtol=rtol,
                    atol=atol)
        return solve(fun, t0, y0, t_bound, rtol=rtol, atol=atol)

    monkeypatch.setattr(_dop853, "solve", spy)
    return seen


def _scipy(seen):
    assert (seen["rtol"], seen["atol"]) == (1e-12, 1e-14)
    return solve_ivp(seen["fun"], (seen["t0"], seen["t_bound"]), seen["y0"],
                     method="DOP853", rtol=1e-12, atol=1e-14,
                     dense_output=True)


def test_tableau_and_step_control_equal_scipys():
    assert np.array_equal(_dop853._C, coef.C)
    assert np.array_equal(_dop853._A, coef.A)
    assert np.array_equal(_dop853._B, coef.B)
    assert np.array_equal(_dop853._E3, coef.E3)
    assert np.array_equal(_dop853._E5, coef.E5)
    assert np.array_equal(_dop853._D, coef.D)
    assert (_dop853._SAFETY, _dop853._MIN_FACTOR, _dop853._MAX_FACTOR) == \
        (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert _dop853._ERROR_EXPONENT == -1 / (rk.DOP853.error_estimator_order
                                            + 1)


@pytest.mark.parametrize("V, lam", [
    (hw.Potential.constant(-6.0), 1.0),
    # build_u1's 0j path
    (hw.Potential.constant(-2.0), 0.0),
    # many steps
    (hw.Potential.constant(-1.0), 0.25 + 40.0j),
    (hw.Potential.even_poly([-7.0, 2.0]), 0.6 + 0.3j),
    (hw.Potential.from_callable(lambda y: -6.0 / np.cosh(3.0 * y) ** 2),
     0.4 + 1.5j),
], ids=["V-6", "V-2-zero", "V-1-high", "even_poly", "callable"])
def test_build_u1_matches_solve_ivp_bit_for_bit(monkeypatch, V, lam):
    seen = _spy(monkeypatch)
    sol = build_u1(V, lam, check_resonance=False)
    ref = _scipy(seen)
    assert ref.success
    dense = sol._dense
    assert np.array_equal(dense.ts, ref.t)
    want = FrobeniusSolution(sol.taylor_coeffs, ref.sol)
    assert sol.u1_at_zero == want.u1_at_zero
    # every step's ends and two inner points of it, as one array (in
    # shuffled order, so that the segment groups are sorted back) and
    # one by one (a step time belongs to the step that ends there)
    t = ref.t
    pts = np.concatenate([t, t[:-1] + (t[1:] - t[:-1]) / 3,
                          (t[1:] + t[:-1]) / 2])
    assert np.array_equal(dense(pts), ref.sol(pts))
    pts = np.random.default_rng(0).permutation(pts)
    assert np.array_equal(dense(pts), ref.sol(pts))
    for p in pts:
        assert np.array_equal(dense(p), ref.sol(p))
    # the grid's positive nodes, on the dense branch and the series branch
    grid = hw.make_grid(64)
    y = np.append(grid.nodes[grid.nodes > 0], 1.0 - 5e-7)
    assert np.array_equal(sol.u1(y), want.u1(y))
    assert np.array_equal(sol.du1(y), want.du1(y))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
       re=st.floats(0.0, 3.0), im=st.floats(-20.0, 20.0))
def test_solver_matches_solve_ivp_on_random_polynomial_wells(coeffs, re, im):
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy(mp)
        sol = build_u1(hw.Potential.even_poly(coeffs), complex(re, im),
                       check_resonance=False)
    ref = _scipy(seen)
    assert np.array_equal(sol._dense.ts, ref.t)
    t = ref.t
    mid = (t[1:] + t[:-1]) / 2
    assert np.array_equal(sol._dense(mid), ref.sol(mid))


def test_a_collapsing_step_fails_as_in_scipy(monkeypatch):
    # V is undefined (NaN) for |y| < 1/2: every step into it is rejected
    # until the step is below ten spacings of z. from_callable refuses
    # such a V, so it is built directly
    V = hw.Potential(fn=lambda y: np.where(np.abs(y) < 0.5, np.nan, -1.0))
    seen = _spy(monkeypatch)
    # both solvers divide NaN error estimates by NaN scales
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(hw.StiffFailureError) as err:
            build_u1(V, 1.0)
        ref = _scipy(seen)
        with pytest.raises(hw.StiffFailureError) as own:
            _dop853.solve(seen["fun"], seen["t0"], seen["y0"],
                          seen["t_bound"], rtol=1e-12, atol=1e-14)
    assert ref.status == -1
    assert str(own.value) == f"integration failed: {ref.message}"
    assert str(err.value) == str(own.value)


def test_solve_keeps_scipys_refusal_of_a_non_finite_seed():
    def fun(t, y):
        return y

    with pytest.raises(ValueError, match="must be finite") as ref:
        solve_ivp(fun, (0.0, 1.0), [np.nan, 1.0], method="DOP853")
    with pytest.raises(ValueError) as own:
        _dop853.solve(fun, 0.0, [np.nan, 1.0], 1.0, rtol=1e-12, atol=1e-14)
    assert str(own.value) == str(ref.value)


@pytest.mark.parametrize("lam", [complex(-0.25, 1e200), complex(1e200),
                                 complex(1e155, 1e155)])
def test_build_u1_refuses_an_overflowing_seed(lam, monkeypatch):
    # the series seed overflows for |lambda| ~ 1e155 and beyond; build_u1
    # refuses it, without a RuntimeWarning, before the solver runs
    seen = _spy(monkeypatch)
    with pytest.raises(hw.InvalidArgumentError, match="lambda"):
        spectral.build_u1(hw.Potential.constant(-1.0), lam)
    assert not seen

"""Chart maps between (t, x) and hyperboloidal (s, y)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwave as hw
from hyperwave.coords import logcosh, phi, phi_inv, pull_back_slice
from hyperwave.core_types import odd_extension


def test_phi_known_point():
    # at y = 0 the slice is the t = s line
    p = phi((2.0, 0.0))
    assert p.t == pytest.approx(2.0)
    assert p.x == pytest.approx(0.0)


def test_phi_inverse_known_point():
    q = phi_inv((3.0, 1.0))
    assert q.y == pytest.approx(np.tanh(1.0))
    assert q.s == pytest.approx(3.0 - np.log(np.cosh(1.0)))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=-0.995, max_value=0.995, allow_nan=False))
def test_phi_round_trip(s, y):
    t, x = phi((s, y))
    s2, y2 = phi_inv((t, x))
    assert s2 == pytest.approx(s, abs=1e-10)
    assert y2 == pytest.approx(y, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_phi_inv_round_trip(t, x):
    s, y = phi_inv((t, x))
    t2, x2 = phi((s, y))
    assert t2 == pytest.approx(t, abs=1e-9)
    assert x2 == pytest.approx(x, abs=1e-9)


def test_phi_rejects_boundary():
    with pytest.raises(hw.OutOfChartError):
        phi((0.0, 1.0))
    with pytest.raises(hw.OutOfChartError):
        phi((0.0, -1.5))


def test_chart_maps_take_arrays():
    # the solver maps a whole node set, or a level line, in one call
    y = np.linspace(-0.99, 0.99, 9)
    t, x = phi((1.5, y))
    assert t.shape == x.shape == y.shape
    s2, y2 = phi_inv((t, x))
    assert np.max(np.abs(s2 - 1.5)) < 1e-12
    assert np.max(np.abs(y2 - y)) < 1e-12
    with pytest.raises(hw.OutOfChartError):
        phi((0.0, np.array([0.5, 1.0])))


def test_logcosh_accuracy():
    xs = np.array([0.0, 1e-8, 0.5, 5.0, 50.0, 800.0, -800.0])
    want = np.array([0.0, 5e-17, np.log(np.cosh(0.5)), np.log(np.cosh(5.0)),
                     50.0 - np.log(2.0), 800.0 - np.log(2.0),
                     800.0 - np.log(2.0)])
    got = logcosh(xs)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) < 1e-12


def test_pull_back_slice_closed_form():
    # W(t, r) = e^{-t} tanh(r) pulls back to e^{-s} y sqrt(1 - y^2)
    g = hw.make_grid(32)

    def W(t, r):
        return np.exp(-t) * np.tanh(r)

    fld = pull_back_slice(W, 1.5, g)
    want = np.exp(-1.5) * g.nodes * np.sqrt(1.0 - g.nodes ** 2)
    assert np.max(np.abs(odd_extension(fld.half) - want)) < 1e-12


def test_pull_back_slice_domain_error():
    g = hw.make_grid(16)

    def W(t, r):
        if abs(r) > 1.0:
            raise hw.InterpolationDomainError("outside data")
        return 0.0 * t

    with pytest.raises(hw.InterpolationDomainError):
        pull_back_slice(W, 0.0, g)

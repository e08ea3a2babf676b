"""Loss models, proximal maps, and score functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from poisonlab import LogisticLoss, SquaredLoss, loss_by_name, prox
from poisonlab import losses
from poisonlab.losses import PROX_RTOL


def prox_residual(delta, x):
    """Relative residual |u + delta L'(u) - x| / max(1, |x|) of the logistic prox."""
    loss = LogisticLoss()
    u = prox(loss, delta, x)
    return abs(u + delta * float(loss.deriv(u)) - x) / max(1.0, abs(x))


def score_and_slope(loss, delta, x):
    """(f, f') at x: f = -L'(u) and f' = -L''(u) / (1 + delta L''(u)) at
    u = prox(delta, x)."""
    u = prox(loss, delta, x)
    ell2 = float(loss.second_deriv(u))
    return -float(loss.deriv(u)), -ell2 / (1.0 + delta * ell2)


class TestSquared:
    def test_values(self):
        loss = SquaredLoss()
        t = np.array([-1.0, 0.0, 1.0, 3.0])
        assert np.allclose(loss.value(t), 0.5 * (1 - t) ** 2)
        assert np.allclose(loss.deriv(t), t - 1)
        assert np.allclose(loss.second_deriv(t), 1.0)

    def test_prox_closed_form(self):
        loss = SquaredLoss()
        delta = 0.7
        for x in np.linspace(-5, 5, 11):
            assert prox(loss, delta, x) == pytest.approx((x + delta) / (1 + delta), rel=1e-15)

    def test_score_affine(self):
        # f(delta, x) = (1 - x) / (1 + delta), f' = -1 / (1 + delta)
        loss = SquaredLoss()
        delta = 0.25
        for x in (-2.0, 0.0, 4.0):
            f, fp = score_and_slope(loss, delta, x)
            assert f == pytest.approx((1 - x) / 1.25, rel=1e-15)
            assert fp == pytest.approx(-1 / 1.25, rel=1e-15)


class TestLogistic:
    def test_value_stable_at_extremes(self):
        loss = LogisticLoss()
        t = np.array([-800.0, 800.0])
        vals = loss.value(t)
        assert vals[0] == pytest.approx(800.0)
        assert vals[1] == 0.0
        assert np.all(np.isfinite(loss.deriv(t)))
        assert np.all(np.isfinite(loss.second_deriv(t)))

    def test_expit_matches_scipy(self):
        from scipy.special import expit

        t = np.linspace(-700.0, 700.0, 200_001)
        want = expit(t)
        assert np.all(np.abs(losses.expit(t) - want) <= 1e-14 * want)

    def test_derivatives_match_definition(self):
        loss = LogisticLoss()
        for t in (-3.0, -0.5, 0.0, 1.2, 6.0):
            assert loss.deriv(np.array([t]))[0] == pytest.approx(
                -1.0 / (1.0 + math.exp(t)), rel=1e-14
            )
            e = math.exp(t)
            assert loss.second_deriv(np.array([t]))[0] == pytest.approx(
                e / (1 + e) ** 2, rel=1e-13
            )

    def test_deriv_bounds(self):
        loss = LogisticLoss()
        t = np.linspace(-50, 50, 101)
        d = loss.deriv(t)
        # The open bound -1 saturates in float64 once exp(t) underflows
        # against 1, so only the closed bound is testable at t = -50.
        assert np.all(d < 0) and np.all(d >= -1)
        s = loss.second_deriv(t)
        assert np.all(s >= 0) and np.all(s <= 0.25)

    def test_prox_unit_step_at_zero(self):
        # u + 1 * L'(u) = 0  <=>  u = 1 / (1 + e^u); root-find independently.
        loss = LogisticLoss()
        expected = brentq(lambda u: u * (1 + math.exp(u)) - 1.0, 0.0, 1.0, xtol=1e-16)
        got = prox(loss, 1.0, 0.0)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_prox_residual_certificate(self):
        loss = LogisticLoss()
        rng = np.random.default_rng(2)
        x = np.concatenate([
            rng.uniform(-1e6, 1e6, 50),
            rng.standard_normal(50),
            np.array([0.0, -1e-12, 1e-12]),
        ])
        for delta in (1e-8, 1e-3, 1.0, 1e3):
            for point in x:
                u = prox(loss, delta, point)
                resid = abs(u + delta * float(loss.deriv(u)) - point)
                assert resid <= PROX_RTOL * max(1.0, abs(point)), (delta, point)

    def test_prox_bracket(self):
        # L' in (-1, 0) forces x < u < x + delta.
        loss = LogisticLoss()
        delta = 2.0
        for x in np.linspace(-20, 20, 41):
            assert x < prox(loss, delta, x) < x + delta

    def test_prox_monotone_in_x(self):
        loss = LogisticLoss()
        u = [prox(loss, 5.0, x) for x in np.linspace(-10, 10, 201)]
        assert np.all(np.diff(u) > 0)

    def test_score_bounds(self):
        loss = LogisticLoss()
        for delta in (0.0, 0.5, 4.0):
            for x in np.linspace(-30, 30, 301):
                f, fp = score_and_slope(loss, delta, x)
                assert 0 < f < 1
                assert -0.25 / (1 + 0.25 * delta) - 1e-15 <= fp <= 0


class TestLogisticProxSafeguard:
    """The logistic prox is rtsafe: Newton inside a bisection bracket."""

    @pytest.mark.parametrize("x, delta", [
        (-19.2638, 22.38), (-2.65728, 306.9), (-2.85598, 6560.0),
    ])
    def test_large_step_points_certify(self, x, delta):
        # Undamped Newton cycles inside the bracket at these points.
        assert prox_residual(delta, x) <= PROX_RTOL

    @pytest.mark.parametrize("x, delta", [
        (-7.83, 5345.6), (-2.657, 306.9),
        (-19.2638, 22.38), (-2.65728, 306.9), (-2.85598, 6560.0),
    ])
    def test_large_steps_certify_in_twelve_passes(self, x, delta, monkeypatch):
        # With x < 0 the root sits near log(delta), far below x + delta;
        # the bracket's upper end is capped there, so the loop does not
        # bisect down from x + delta first.
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 12)
        assert prox_residual(delta, x) <= PROX_RTOL

    def test_saturated_margins_finish_in_few_passes(self, monkeypatch):
        # The root lies within an ulp of a bracket end here; the start
        # x - delta L'(x) is already the root to rounding.  With the pass
        # bound at 6, a point that needs more raises.
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 6)
        for x in (33.41, -64.72, -129.0):
            for delta in (0.32, 1.06, 1.17):
                assert prox_residual(delta, x) <= PROX_RTOL, (x, delta)

    @settings(max_examples=50, deadline=None)
    @given(
        log_delta=st.floats(math.log(1e-8), math.log(1e4)),
        log_scale=st.floats(0.0, math.log(1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_point_certifies_inside_the_bracket(self, log_delta, log_scale, seed):
        delta = math.exp(log_delta)
        for x in math.exp(log_scale) * np.random.default_rng(seed).standard_normal(200):
            u = prox(LogisticLoss(), delta, x)
            assert prox_residual(delta, x) <= PROX_RTOL
            assert x <= u <= x + delta

    def test_root_pinned_to_the_last_bit_certifies(self):
        # Here ulp(u) (1 + delta L''(u)) is about 2.1e-14, above PROX_RTOL *
        # max(|x|, 1) = 1e-14, so no float meets the residual test.  The
        # bracket closes on adjacent floats around the root, which a
        # 40-digit solve puts at 10.0347185719847802250.
        u = prox(LogisticLoss(), 240973.14368532915, -0.5316728923617833)
        assert abs(u - 10.0347185719847802250) <= math.ulp(u)

    def test_exhausted_iteration_bound_raises(self, monkeypatch):
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="did not certify"):
            prox(LogisticLoss(), 6560.0, -2.85598)


def test_prox_delta_zero_identity():
    for loss in (SquaredLoss(), LogisticLoss()):
        for x in (-2.0, 0.3, 7.0):
            assert prox(loss, 0.0, x) == x


def test_prox_rejects_negative_delta():
    with pytest.raises(ValueError):
        prox(SquaredLoss(), -0.1, 0.0)


@pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()], ids=lambda l: l.name)
@pytest.mark.parametrize("delta", [0.0, 0.8, 306.9])
def test_scalar_and_0d_input_match_one_element_array(loss, delta):
    # prox gives one float for a float, a numpy scalar and a 0-d array, and
    # L' and L'' there match their values in a one-element array.
    for x in (-2.65728, 0.0, 33.41):
        u = prox(loss, delta, x)
        assert type(u) is float
        for arg in (np.float64(x), np.array(x)):
            assert prox(loss, delta, arg) == u, (x, type(arg))
        for method in (loss.deriv, loss.second_deriv):
            assert np.shape(method(u)) == ()
            assert method(u) == method(np.array([u]))[0]


def test_loss_registry():
    assert isinstance(loss_by_name("squared"), SquaredLoss)
    assert isinstance(loss_by_name("logistic"), LogisticLoss)
    with pytest.raises(ValueError):
        loss_by_name("hinge")


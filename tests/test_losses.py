"""Loss models, proximal maps, and score functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from poisonlab import LogisticLoss, SquaredLoss, f_both, loss_by_name, prox
from poisonlab import losses
from poisonlab.losses import PROX_RTOL


def prox_residual(delta, x):
    """Relative residual |u + delta L'(u) - x| / max(1, |x|) of the logistic prox."""
    loss = LogisticLoss()
    x = np.asarray(x, dtype=float)
    u = prox(loss, delta, x)
    return np.abs(u + delta * loss.deriv(u) - x) / np.maximum(1.0, np.abs(x))


class TestSquared:
    def test_values(self):
        loss = SquaredLoss()
        t = np.array([-1.0, 0.0, 1.0, 3.0])
        assert np.allclose(loss.value(t), 0.5 * (1 - t) ** 2)
        assert np.allclose(loss.deriv(t), t - 1)
        assert np.allclose(loss.second_deriv(t), 1.0)

    def test_prox_closed_form(self):
        loss = SquaredLoss()
        x = np.linspace(-5, 5, 11)
        delta = 0.7
        assert np.allclose(prox(loss, delta, x), (x + delta) / (1 + delta), rtol=1e-15)

    def test_score_affine(self):
        # f(delta, x) = (1 - x) / (1 + delta), f' = -1 / (1 + delta)
        loss = SquaredLoss()
        x = np.array([-2.0, 0.0, 4.0])
        delta = 0.25
        f, fp = f_both(loss, delta, x)
        assert np.allclose(f, (1 - x) / 1.25, rtol=1e-15)
        assert np.allclose(fp, -1 / 1.25, rtol=1e-15)


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
        got = float(prox(loss, 1.0, np.array([0.0]))[0])
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
            u = prox(loss, delta, x)
            resid = np.abs(u + delta * loss.deriv(u) - x)
            assert np.all(resid <= PROX_RTOL * np.maximum(1.0, np.abs(x)))

    def test_prox_bracket(self):
        # L' in (-1, 0) forces x < u < x + delta.
        loss = LogisticLoss()
        x = np.linspace(-20, 20, 41)
        delta = 2.0
        u = prox(loss, delta, x)
        assert np.all(u > x) and np.all(u < x + delta)

    def test_prox_monotone_in_x(self):
        loss = LogisticLoss()
        x = np.linspace(-10, 10, 201)
        u = prox(loss, 5.0, x)
        assert np.all(np.diff(u) > 0)

    def test_score_bounds(self):
        loss = LogisticLoss()
        x = np.linspace(-30, 30, 301)
        for delta in (0.0, 0.5, 4.0):
            f, fp = f_both(loss, delta, x)
            assert np.all(f > 0) and np.all(f < 1)
            assert np.all(fp <= 0)
            assert np.all(fp >= -0.25 / (1 + 0.25 * delta) - 1e-15)


def reference_logistic_prox(delta, x):
    """(u, expit(-u)) by the rtsafe loop written one expression per update,
    with fresh arrays each pass: the in-place solve must match it bit for
    bit."""
    lo = x.copy()
    hi = np.minimum(x + delta, np.maximum(x, 0.0) + math.log1p(delta) + 1.0)
    u = np.minimum(x + delta * losses.expit(-x), hi)
    tol = PROX_RTOL * np.maximum(1.0, np.abs(x))
    step_before_last = step_last = np.full_like(x, delta)
    for k in range(losses._PROX_MAX_ITER):
        s = losses.expit(-u)
        g = u - delta * s - x
        todo = np.abs(g) > tol
        if k >= losses._PROX_PINNED_PASS:
            todo &= np.nextafter(lo, hi) < hi
        if not todo.any():
            return u, s
        lo = np.where(g < 0, u, lo)
        hi = np.where(g > 0, u, hi)
        step = g / (1.0 + delta * s * (1.0 - s))
        newton = u - step
        bisect = (newton <= lo) | (newton >= hi) | (2.0 * np.abs(step) > step_before_last)
        step_before_last, step_last = step_last, np.where(bisect, 0.5 * (hi - lo), np.abs(step))
        u = np.where(todo, np.where(bisect, 0.5 * (lo + hi), newton), u)
    raise AssertionError("reference prox did not certify")


@settings(max_examples=50, deadline=None)
@given(
    log_delta=st.floats(math.log(1e-8), math.log(1e4)),
    log_scale=st.floats(0.0, math.log(1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_prox_and_score_match_the_reference_loop(log_delta, log_scale, seed):
    delta = math.exp(log_delta)
    x = math.exp(log_scale) * np.random.default_rng(seed).standard_normal(200)
    want_u, want_f = reference_logistic_prox(delta, x)
    f, _ = f_both(LogisticLoss(), delta, x)
    assert np.array_equal(prox(LogisticLoss(), delta, x), want_u)
    assert np.array_equal(f, want_f)


class TestLogisticProxSafeguard:
    """The logistic prox is rtsafe: Newton inside a bisection bracket."""

    @pytest.mark.parametrize("x, delta", [
        (-19.2638, 22.38), (-2.65728, 306.9), (-2.85598, 6560.0),
    ])
    def test_large_step_points_certify(self, x, delta):
        # Undamped Newton cycles inside the bracket at these points.
        assert prox_residual(delta, [x])[0] <= PROX_RTOL

    @pytest.mark.parametrize("x, delta", [
        (-7.83, 5345.6), (-2.657, 306.9),
        (-19.2638, 22.38), (-2.65728, 306.9), (-2.85598, 6560.0),
    ])
    def test_large_steps_certify_in_twelve_passes(self, x, delta, monkeypatch):
        # With x < 0 the root sits near log(delta), far below x + delta;
        # the bracket's upper end is capped there, so the loop does not
        # bisect down from x + delta first.
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 12)
        assert prox_residual(delta, [x])[0] <= PROX_RTOL

    def test_saturated_margins_finish_in_few_passes(self, monkeypatch):
        # The root lies within an ulp of a bracket end here; the start
        # x - delta L'(x) is already the root to rounding.  With the pass
        # bound at 6, a point that needs more raises.
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 6)
        for x in (33.41, -64.72, -129.0):
            for delta in (0.32, 1.06, 1.17):
                assert prox_residual(delta, [x])[0] <= PROX_RTOL, (x, delta)

    @settings(max_examples=50, deadline=None)
    @given(
        log_delta=st.floats(math.log(1e-8), math.log(1e4)),
        log_scale=st.floats(0.0, math.log(1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_point_certifies_inside_the_bracket(self, log_delta, log_scale, seed):
        delta = math.exp(log_delta)
        x = math.exp(log_scale) * np.random.default_rng(seed).standard_normal(200)
        u = prox(LogisticLoss(), delta, x)
        assert np.all(prox_residual(delta, x) <= PROX_RTOL)
        assert np.all((u >= x) & (u <= x + delta))

    def test_root_pinned_to_the_last_bit_certifies(self):
        # Here ulp(u) (1 + delta L''(u)) is about 2.1e-14, above PROX_RTOL *
        # max(|x|, 1) = 1e-14, so no float meets the residual test.  The
        # bracket closes on adjacent floats around the root, which a
        # 40-digit solve puts at 10.0347185719847802250.
        u = prox(LogisticLoss(), 240973.14368532915, np.array([-0.5316728923617833]))[0]
        assert abs(u - 10.0347185719847802250) <= math.ulp(u)

    def test_exhausted_iteration_bound_raises(self, monkeypatch):
        monkeypatch.setattr(losses, "_PROX_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="did not certify"):
            prox(LogisticLoss(), 6560.0, np.array([-2.85598]))


def test_prox_delta_zero_identity():
    for loss in (SquaredLoss(), LogisticLoss()):
        x = np.array([-2.0, 0.3, 7.0])
        assert np.allclose(prox(loss, 0.0, x), x, rtol=0, atol=0)


def test_prox_rejects_negative_delta():
    with pytest.raises(ValueError):
        prox(SquaredLoss(), -0.1, np.array([0.0]))


def test_f_both_score_is_negative_loss_slope_at_prox():
    loss = LogisticLoss()
    x = np.linspace(-4, 4, 17)
    f, _ = f_both(loss, 0.8, x)
    assert np.allclose(f, -loss.deriv(prox(loss, 0.8, x)), rtol=0, atol=0)


@pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()], ids=lambda l: l.name)
@pytest.mark.parametrize("delta", [0.0, 0.8, 306.9])
def test_scalar_and_0d_input_match_one_element_array(loss, delta):
    for x in (-2.65728, 0.0, 33.41):
        want_u = prox(loss, delta, np.array([x]))[0]
        want_f, want_fp = (a[0] for a in f_both(loss, delta, np.array([x])))
        for arg in (x, np.float64(x), np.array(x)):
            u = prox(loss, delta, arg)
            f, fp = f_both(loss, delta, arg)
            assert np.shape(u) == np.shape(f) == np.shape(fp) == ()
            assert (u, f, fp) == (want_u, want_f, want_fp), (x, type(arg))


def test_loss_registry():
    assert isinstance(loss_by_name("squared"), SquaredLoss)
    assert isinstance(loss_by_name("logistic"), LogisticLoss)
    with pytest.raises(ValueError):
        loss_by_name("hinge")


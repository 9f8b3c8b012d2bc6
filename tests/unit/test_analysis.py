"""Unit tests for the iterated-map analysis toolkit."""

import math
import re

import numpy as np
import pytest

from repro.analysis.bifurcation import (bifurcation_diagram,
                                        quadratic_map_sweep)
from repro.analysis.classify import Regime, classify_tail
from repro.analysis.lyapunov import lyapunov_exponent
from repro.analysis.maps import (QuadraticRateMap, orbit, orbit_tail,
                                 quadratic_lyapunov_exponents,
                                 quadratic_orbit_tails)
from repro.errors import RateVectorError


class TestQuadraticRateMap:
    def test_fixed_point(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        assert m.fixed_point == pytest.approx(0.5)
        assert m(0.5) == pytest.approx(0.5)

    def test_multiplier(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        assert m.multiplier == pytest.approx(0.0)  # 1 - 2*1*0.5

    def test_stability_threshold(self):
        assert QuadraticRateMap(a=1.9, beta=0.25).is_linearly_stable
        assert not QuadraticRateMap(a=2.1, beta=0.25).is_linearly_stable
        assert QuadraticRateMap(a=1.0, beta=0.25).period_doubling_gain \
            == pytest.approx(2.0)

    def test_truncation(self):
        m = QuadraticRateMap(a=10.0, beta=0.01)
        assert m(5.0) == 0.0
        free = QuadraticRateMap(a=10.0, beta=0.01, truncate=False)
        assert free(5.0) < 0.0

    def test_derivative_on_clamped_branch_is_zero(self):
        m = QuadraticRateMap(a=10.0, beta=0.01)
        assert m.derivative(5.0) == 0.0
        assert m.derivative(0.05) == pytest.approx(1.0 - 2 * 10 * 0.05)

    def test_from_system(self):
        m = QuadraticRateMap.from_system(8, eta=0.25, beta=0.25)
        assert m.a == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(RateVectorError):
            QuadraticRateMap(a=0.0, beta=0.25)
        with pytest.raises(RateVectorError):
            QuadraticRateMap(a=1.0, beta=-1.0)
        with pytest.raises(RateVectorError):
            QuadraticRateMap.from_system(0, eta=0.1, beta=0.25)


class TestOrbit:
    def test_length_with_initial(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        o = orbit(m, 0.1, steps=10)
        assert o.shape == (11,)
        assert o[0] == 0.1

    def test_discard(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        o = orbit(m, 0.1, steps=10, discard=5)
        assert o.shape == (5,)

    def test_convergence_to_fixed_point(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        o = orbit(m, 0.1, steps=200)
        assert o[-1] == pytest.approx(0.5, abs=1e-8)

    def test_divergence_raises(self):
        with pytest.raises(RateVectorError):
            orbit(lambda x: 2 * x + 1, 1.0, steps=2000)

    def test_bad_args(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        with pytest.raises(RateVectorError):
            orbit(m, 0.1, steps=0)
        with pytest.raises(RateVectorError):
            orbit(m, 0.1, steps=5, discard=9)

    def test_orbit_tail_shape(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        assert orbit_tail(m, 0.1, transient=50, keep=20).shape == (20,)


class TestClassify:
    def test_fixed_point(self):
        tail = np.full(200, 0.5)
        cls = classify_tail(tail, max_period=32)
        assert cls.regime is Regime.FIXED_POINT
        assert cls.period == 1

    def test_period_two(self):
        tail = np.tile([0.2, 0.8], 100)
        cls = classify_tail(tail, max_period=32)
        assert cls.regime is Regime.PERIODIC
        assert cls.period == 2

    def test_smallest_period_reported(self):
        tail = np.tile([0.2, 0.8], 100)
        # period 4 also matches, but 2 must win
        assert classify_tail(tail, max_period=32).period == 2

    def test_aperiodic(self):
        rng = np.random.default_rng(0)
        tail = rng.random(300)
        cls = classify_tail(tail, max_period=32)
        assert cls.regime is Regime.APERIODIC
        assert cls.period is None

    def test_too_short_rejected(self):
        with pytest.raises(RateVectorError):
            classify_tail(np.zeros(10), max_period=32)

    def test_str(self):
        tail = np.tile([0.2, 0.8], 100)
        assert str(classify_tail(tail, max_period=8)) == "periodic(2)"


class TestLyapunov:
    def test_negative_at_stable_fixed_point(self):
        m = QuadraticRateMap(a=1.5, beta=0.25)
        lam = lyapunov_exponent(m, m.derivative, 0.3, steps=2000,
                                discard=500)
        # |F'(x*)| = |1 - 1.5| = 0.5 -> log 0.5
        assert lam == pytest.approx(math.log(0.5), abs=1e-6)

    def test_positive_in_chaotic_band(self):
        m = QuadraticRateMap(a=2.62, beta=0.25, truncate=False)
        lam = lyapunov_exponent(m, m.derivative, 0.4, steps=6000,
                                discard=2000)
        assert lam > 0.05

    def test_validation(self):
        m = QuadraticRateMap(a=1.0, beta=0.25)
        with pytest.raises(RateVectorError):
            lyapunov_exponent(m, m.derivative, 0.1, steps=0)


class TestBifurcation:
    def test_quadratic_sweep_regimes(self):
        pts = quadratic_map_sweep([1.0, 2.3], beta=0.25, transient=2000,
                                  keep=256)
        assert pts[0].classification.regime is Regime.FIXED_POINT
        assert pts[1].classification.regime is Regime.PERIODIC

    def test_point_fields(self):
        (pt,) = quadratic_map_sweep([1.5], beta=0.25, transient=1000,
                                    keep=256)
        assert pt.parameter == 1.5
        assert pt.attractor.shape == (256,)
        assert pt.n_branches == 1
        assert math.isfinite(pt.lyapunov)

    def test_keep_too_small_rejected(self):
        with pytest.raises(RateVectorError):
            bifurcation_diagram(
                lambda a: QuadraticRateMap(a=a, beta=0.25),
                [1.0], x0=0.1, keep=10, max_period=64)

    def test_no_derivative_gives_nan(self):
        pts = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25),
            [1.0], x0=0.1, transient=500, keep=200, max_period=32)
        assert math.isnan(pts[0].lyapunov)

    def test_continuation_default_off_is_bit_identical(self):
        gains = [1.0, 1.5, 2.3]
        kwargs = dict(x0=0.1, transient=800, keep=200, max_period=32)
        cold = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25), gains, **kwargs)
        default = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25), gains,
            continuation=False, **kwargs)
        for pt, dpt in zip(cold, default):
            assert np.array_equal(pt.attractor, dpt.attractor)

    def test_continuation_agrees_in_stable_regime(self):
        # Below the period-doubling gain the fixed point is the unique
        # attractor, so warm starts must land on the same answer with
        # a much shorter transient.
        gains = np.linspace(0.6, 1.8, 13)
        cold = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25), gains,
            x0=0.1, transient=3000, keep=200, max_period=32)
        warm = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25), gains,
            x0=0.1, transient=300, keep=200, max_period=32,
            continuation=True)
        for cpt, wpt in zip(cold, warm):
            assert cpt.classification.regime is wpt.classification.regime
            assert np.max(np.abs(cpt.attractor - wpt.attractor)) < 1e-6


class TestVectorizedQuadraticGrid:
    GAINS = [0.5, 1.0, 1.5, 2.3, 2.62]

    def test_orbit_tails_match_scalar(self):
        for truncate in (True, False):
            tails = quadratic_orbit_tails(self.GAINS, beta=0.25, x0=0.4,
                                          transient=1500, keep=64,
                                          truncate=truncate)
            for i, a in enumerate(self.GAINS):
                m = QuadraticRateMap(a=a, beta=0.25, truncate=truncate)
                expect = orbit_tail(m, 0.4, transient=1500, keep=64)
                assert np.array_equal(tails[i], expect)

    def test_zero_transient_includes_x0(self):
        tails = quadratic_orbit_tails([1.0], beta=0.25, x0=0.4,
                                      transient=0, keep=5)
        assert tails.shape == (1, 6)
        assert tails[0, 0] == 0.4

    def test_lyapunov_match_scalar(self):
        lams = quadratic_lyapunov_exponents(self.GAINS, beta=0.25, x0=0.4,
                                            steps=2000, discard=500,
                                            truncate=False)
        for i, a in enumerate(self.GAINS):
            m = QuadraticRateMap(a=a, beta=0.25, truncate=False)
            expect = lyapunov_exponent(m, m.derivative, 0.4, steps=2000,
                                       discard=500)
            assert lams[i] == pytest.approx(expect, abs=1e-12)

    def test_sweep_matches_generic_diagram(self):
        pts = quadratic_map_sweep(self.GAINS, beta=0.25, x0=0.4,
                                  transient=1200, keep=256)
        generic = bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25),
            self.GAINS, x0=0.4, transient=1200, keep=256,
            derivative_family=lambda a: QuadraticRateMap(
                a=a, beta=0.25).derivative)
        for pt, gpt in zip(pts, generic):
            assert np.array_equal(pt.attractor, gpt.attractor)
            assert pt.classification.regime is gpt.classification.regime
            assert pt.lyapunov == pytest.approx(gpt.lyapunov, abs=1e-12)

    def test_validation(self):
        with pytest.raises(RateVectorError):
            quadratic_orbit_tails([], beta=0.25, x0=0.1)
        with pytest.raises(RateVectorError):
            quadratic_orbit_tails([1.0, -1.0], beta=0.25, x0=0.1)
        with pytest.raises(RateVectorError):
            quadratic_orbit_tails([1.0], beta=-1.0, x0=0.1)
        with pytest.raises(RateVectorError):
            quadratic_lyapunov_exponents([1.0], beta=0.25, x0=0.1, steps=0)


def _stepwise_tails(gains, beta, x0, transient, keep, truncate):
    """The per-step grid loop the blocked orbit replaced, transcribed."""
    a = np.asarray(gains, dtype=float)
    out = np.empty((a.size, keep + (1 if transient == 0 else 0)))
    col = 0
    x = np.full(a.size, float(x0))
    if transient == 0:
        out[:, col] = x
        col += 1
    for k in range(1, transient + keep + 1):
        image = x + a * (beta - x * x)
        x = np.maximum(0.0, image) if truncate else image
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise RateVectorError(
                f"orbit diverged to {x[bad]!r} at step {k} "
                f"(gain a={a[bad]!r})")
        if k > transient:
            out[:, col] = x
            col += 1
    return out


def _stepwise_lyapunov(gains, beta, x0, steps, discard, truncate):
    """The per-step grid Lyapunov loop, transcribed."""
    from repro.analysis.lyapunov import _SLOPE_FLOOR
    a = np.asarray(gains, dtype=float)

    def advance(x):
        image = x + a * (beta - x * x)
        return np.maximum(0.0, image) if truncate else image

    x = np.full(a.size, float(x0))
    for _ in range(discard):
        x = advance(x)
        if not np.all(np.isfinite(x)):
            raise RateVectorError("orbit diverged during transient")
    total = np.zeros(a.size)
    for _ in range(steps):
        slope = 1.0 - 2.0 * a * x
        if truncate:
            image = x + a * (beta - x * x)
            slope = np.where(image < 0.0, 0.0, slope)
        total += np.log(np.maximum(np.abs(slope), _SLOPE_FLOOR))
        x = advance(x)
        if not np.all(np.isfinite(x)):
            raise RateVectorError("orbit diverged during averaging")
    return total / steps


def _message(fn, *args):
    with pytest.raises(RateVectorError) as info:
        fn(*args)
    return str(info.value)


class TestOneOrbitSweep:
    """The grid functions read one blocked orbit; they must give the
    per-step loops' bits, and the sweep both outputs of one orbit."""

    GAINS = [0.5, 1.0, 1.5, 1.9, 2.3, 2.45, 2.52, 2.58, 2.62, 2.9]

    @pytest.mark.parametrize("truncate", [True, False])
    @pytest.mark.parametrize("transient,keep", [
        (0, 5), (1, 1), (255, 1), (256, 256), (700, 64), (3000, 256)])
    def test_tails_equal_stepwise_loop(self, truncate, transient, keep):
        got = quadratic_orbit_tails(self.GAINS, 0.25, 0.4, transient,
                                    keep, truncate)
        want = _stepwise_tails(self.GAINS, 0.25, 0.4, transient, keep,
                               truncate)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("truncate", [True, False])
    @pytest.mark.parametrize("steps,discard", [
        (1, 0), (300, 0), (256, 256), (1000, 250), (3000, 750)])
    def test_lyapunov_equal_stepwise_loop(self, truncate, steps, discard):
        got = quadratic_lyapunov_exponents(self.GAINS, 0.25, 0.4, steps,
                                           discard, truncate)
        want = _stepwise_lyapunov(self.GAINS, 0.25, 0.4, steps, discard,
                                  truncate)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("truncate", [True, False])
    @pytest.mark.parametrize("transient,keep", [
        # keep shorter and longer than transient // 4
        (1000, 192), (1000, 256), (3000, 256), (500, 300)])
    def test_sweep_equals_both_grid_functions(self, truncate, transient,
                                              keep):
        pts = quadratic_map_sweep(self.GAINS, beta=0.25, x0=0.4,
                                  transient=transient, keep=keep,
                                  truncate=truncate)
        tails = quadratic_orbit_tails(self.GAINS, 0.25, 0.4, transient,
                                      keep, truncate)
        lams = quadratic_lyapunov_exponents(self.GAINS, 0.25, 0.4,
                                            transient, transient // 4,
                                            truncate)
        for i, pt in enumerate(pts):
            assert pt.parameter == self.GAINS[i]
            assert np.array_equal(pt.attractor, tails[i])
            assert pt.lyapunov == lams[i]

    def test_sweep_with_zero_transient_raises_as_before(self):
        # The exponent averages over ``transient`` steps, so a sweep
        # needs at least one.
        with pytest.raises(RateVectorError, match="steps must be >= 1, "
                                                  "got 0"):
            quadratic_map_sweep(self.GAINS, transient=0, keep=256)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_diverging_orbit_messages(self):
        # x0 = 10 escapes the untruncated map within a few steps.
        gains = [0.5, 1.0]
        tail_msg = _message(quadratic_orbit_tails, gains, 0.25, 10.0, 50,
                            10, False)
        assert tail_msg == _message(_stepwise_tails, gains, 0.25, 10.0,
                                    50, 10, False)
        assert "at step" in tail_msg and "gain a=" in tail_msg
        for discard, stage in ((50, "transient"), (0, "averaging")):
            msg = _message(quadratic_lyapunov_exponents, gains, 0.25,
                           10.0, 100, discard, False)
            assert msg == _message(_stepwise_lyapunov, gains, 0.25, 10.0,
                                   100, discard, False)
            assert msg == f"orbit diverged during {stage}"
        assert _message(quadratic_map_sweep, gains, 0.25, 10.0, 1000, 256,
                        False) == _message(_stepwise_tails, gains, 0.25,
                                           10.0, 1000, 256, False)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_divergence_stage_boundary(self):
        # The first non-finite step k ends the transient when discard
        # is k, and falls in the averaging when discard is k - 1.
        gains = [0.5, 1.0]
        msg = _message(_stepwise_tails, gains, 0.25, 10.0, 100, 1, False)
        k = int(re.search(r"at step (\d+) ", msg).group(1))
        for discard, stage in ((k, "transient"), (k - 1, "averaging")):
            want = _message(_stepwise_lyapunov, gains, 0.25, 10.0, 50,
                            discard, False)
            assert want == f"orbit diverged during {stage}"
            assert _message(quadratic_lyapunov_exponents, gains, 0.25,
                            10.0, 50, discard, False) == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_late_escape_found_in_a_later_block(self):
        # Just past the boundary crisis the untruncated orbit wanders
        # for hundreds of steps before escaping: a = 3.00003 goes at
        # step ~219, a = 3.00012 at ~355, so the first block finds the
        # first and the second block alone holds the other.
        gains = [1.0, 3.00012, 3.00003]
        msg = _message(quadratic_orbit_tails, gains, 0.25, 0.4, 1000, 10,
                       False)
        assert msg == _message(_stepwise_tails, gains, 0.25, 0.4, 1000,
                               10, False)
        assert "3.00003" in msg
        late = [3.00012]
        msg = _message(quadratic_orbit_tails, late, 0.25, 0.4, 300, 100,
                       False)
        assert msg == _message(_stepwise_tails, late, 0.25, 0.4, 300,
                               100, False)
        # Past the sweep's tail but inside its exponent's window, the
        # sweep raises the exponent's message.
        want = _message(_stepwise_lyapunov, late, 0.25, 0.4, 320, 80,
                        False)
        assert want == "orbit diverged during averaging"
        assert _message(quadratic_map_sweep, late, 0.25, 0.4, 320, 24,
                        False, 8) == want

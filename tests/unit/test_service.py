"""Unit tests for the service-discipline base and preemptive priority."""

import math

import numpy as np
import pytest

from repro.core.math_utils import g
from repro.core.service import PreemptivePriority, ServiceDiscipline
from repro.errors import RateVectorError


class TestPreemptivePriority:
    def test_priority_order_validation(self):
        with pytest.raises(RateVectorError):
            PreemptivePriority([0, 0, 1])
        with pytest.raises(RateVectorError):
            PreemptivePriority([1, 2, 3])

    def test_top_class_sees_own_mm1(self):
        disc = PreemptivePriority([0, 1])
        q = disc.queue_lengths([0.4, 0.3], 1.0)
        assert q[0] == pytest.approx(g(0.4))

    def test_cumulative_conservation(self):
        disc = PreemptivePriority([0, 1, 2])
        r = np.array([0.2, 0.3, 0.25])
        q = disc.queue_lengths(r, 1.0)
        assert q[0] + q[1] == pytest.approx(g(0.5))
        assert q.sum() == pytest.approx(g(0.75))

    def test_order_matters(self):
        r = np.array([0.3, 0.3])
        q_a = PreemptivePriority([0, 1]).queue_lengths(r, 1.0)
        q_b = PreemptivePriority([1, 0]).queue_lengths(r, 1.0)
        assert q_a[0] == pytest.approx(q_b[1])
        assert q_a[0] < q_a[1]

    def test_low_priority_starved_on_overload(self):
        disc = PreemptivePriority([0, 1])
        q = disc.queue_lengths([0.6, 0.6], 1.0)
        assert np.isfinite(q[0])
        assert math.isinf(q[1])

    def test_zero_rate_zero_queue(self):
        disc = PreemptivePriority([0, 1])
        q = disc.queue_lengths([0.0, 0.5], 1.0)
        assert q[0] == 0.0

    def test_wrong_length_rejected(self):
        disc = PreemptivePriority([0, 1])
        with pytest.raises(RateVectorError):
            disc.queue_lengths([0.1, 0.2, 0.3], 1.0)


class TestDelays:
    def test_little_law(self):
        disc = PreemptivePriority([0, 1])
        r = np.array([0.2, 0.4])
        q = disc.queue_lengths(r, 1.0)
        d = disc.delays(r, 1.0)
        assert np.allclose(d, q / r)

    def test_total_queue_default(self):
        disc = PreemptivePriority([0, 1])
        assert disc.total_queue([0.2, 0.4], 1.0) == \
            pytest.approx(g(0.6))

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ServiceDiscipline()


class TestSojourns:
    """``sojourns_batch`` divides without ``np.errstate`` only when every
    rate is positive and finite; the bits and warnings stay the plain
    guarded division's."""

    @staticmethod
    def _guarded(disc, rates, queues, mu):
        positive = rates > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = queues / rates
        if not positive.all():
            probe = rates.copy()
            probe[~positive] = mu * 1e-9
            q_probe = disc.queue_lengths_batch(probe, mu)
            out[~positive] = q_probe[~positive] / (mu * 1e-9)
        return out

    @pytest.mark.parametrize("row", [[0.2, 0.4], [0.0, 0.4], [0.5, 0.6],
                                     [0.2, math.inf], [0.2, math.nan],
                                     [1e-300, 0.3], []])
    def test_same_bits_and_no_warning(self, row):
        from repro.core.fifo import Fifo
        disc = Fifo()
        rates = np.array([row], dtype=float).reshape(1, len(row))
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore"):
            queues = disc.queue_lengths_batch(rates, 1.0)
        with np.errstate(over="ignore"):
            want = self._guarded(disc, rates, queues, 1.0)
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            got = disc.sojourns_batch(rates, queues, 1.0)
        assert np.array_equal(got, want, equal_nan=True)

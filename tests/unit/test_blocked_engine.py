"""Unit tests for blocked ensemble execution and history policies.

Blocked execution is an out-of-core strategy, not a semantic change:
``run_ensemble(block_size=k)`` must be bit-identical to the one-shot
run for every ``k`` — finals, outcomes, steps, periods, mask events,
fault events, and retained histories.  The history policies trade
memory for retention (``full`` > ``tail`` > ``none``) without touching
the finals, and the retention buffers are views, never hidden copies.
"""

import warnings

import numpy as np
import pytest

from repro.core.dynamics import (HISTORY_POLICIES, FlowControlSystem,
                                 Outcome, ensemble_buffer_bytes)
from repro.core.fairshare import FairShare
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway
from repro.errors import RateVectorError, SweepError
from repro.faults import FaultPlan
from repro.faults.injectors import SignalLoss
from repro.observability import collect


@pytest.fixture(scope="module")
def system():
    return FlowControlSystem(single_gateway(4, mu=1.0), FairShare(),
                             LinearSaturating(),
                             TargetRule(eta=0.1, beta=0.5),
                             style=FeedbackStyle.INDIVIDUAL)


@pytest.fixture(scope="module")
def starts():
    rng = np.random.default_rng(11)
    return rng.uniform(0.0, 0.6, size=(7, 4))


def _same(a, b):
    assert np.array_equal(a.finals, b.finals)
    assert a.outcomes == b.outcomes
    assert np.array_equal(a.steps, b.steps)
    assert a.periods == b.periods


class TestBlockedBitIdentity:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 5, 7])
    def test_blocked_equals_one_shot(self, system, starts, block_size):
        # 7 members: block sizes that divide M, straddle it, and the
        # degenerate 1-member block all reproduce the one-shot run.
        one_shot = system.run_ensemble(starts, max_steps=800)
        blocked = system.run_ensemble(starts, max_steps=800,
                                      block_size=block_size)
        _same(blocked, one_shot)
        assert blocked.block_size == block_size
        assert one_shot.block_size is None

    def test_blocked_equals_one_shot_under_faults(self, system, starts):
        plan = FaultPlan(seed=5, injectors=(SignalLoss(rate=0.2),))
        one_shot = system.run_ensemble(starts, max_steps=300,
                                       faults=plan)
        blocked = system.run_ensemble(starts, max_steps=300,
                                      faults=plan, block_size=2)
        _same(blocked, one_shot)
        assert blocked.fault_events == one_shot.fault_events

    def test_blocked_members_match_scalar_runs(self, system, starts):
        blocked = system.run_ensemble(starts, max_steps=800,
                                      block_size=3)
        for m in range(len(blocked)):
            traj = system.run(starts[m], max_steps=800)
            assert blocked.outcomes[m] is traj.outcome
            assert int(blocked.steps[m]) == traj.steps
            assert np.array_equal(blocked.finals[m], traj.final)

    def test_telemetry_records_match_and_carry_block_fields(
            self, system, starts):
        with collect() as session:
            system.run_ensemble(starts, max_steps=300, block_size=2)
            system.run_ensemble(starts, max_steps=300)
        blocked_rec, oneshot_rec = [r.to_dict()
                                    for r in session.run_records]
        assert blocked_rec["n_blocks"] == 4
        assert blocked_rec["block_size"] == 2
        assert oneshot_rec["n_blocks"] == 1
        assert oneshot_rec["block_size"] is None
        # Mask events merge across blocks into the one-shot order.
        assert blocked_rec["mask_events"] == oneshot_rec["mask_events"]
        assert blocked_rec["outcome_counts"] == \
            oneshot_rec["outcome_counts"]


class TestHistoryPolicies:
    def test_policy_catalogue(self):
        assert HISTORY_POLICIES == ("full", "tail", "none")

    def test_default_policy_is_tail(self, system, starts):
        result = system.run_ensemble(starts, max_steps=300)
        assert result.history_policy == "tail"
        assert result.histories is None

    def test_none_policy_keeps_finals_drops_retention(self, system,
                                                      starts):
        lean = system.run_ensemble(starts, max_steps=300,
                                   history="none", block_size=2)
        full = system.run_ensemble(starts, max_steps=300)
        assert np.array_equal(lean.finals, full.finals)
        assert lean.outcomes == full.outcomes
        assert np.array_equal(lean.steps, full.steps)
        assert lean.histories is None
        with pytest.raises(RateVectorError, match="history='full'"):
            lean.trajectory(0)

    def test_none_policy_cannot_detect_oscillation(self, system):
        # Without the rolling tail there is nothing to search for a
        # cycle in: a member that exhausts the budget is UNDECIDED.
        start = np.full((1, 4), 0.2)
        tail = system.run_ensemble(start, max_steps=40, tol=0.0)
        lean = system.run_ensemble(start, max_steps=40, tol=0.0,
                                   history="none")
        assert np.array_equal(lean.finals, tail.finals)
        assert lean.outcomes[0] in (Outcome.UNDECIDED,)

    def test_blocked_full_histories_match_scalar(self, system, starts):
        result = system.run_ensemble(starts, max_steps=300,
                                     history="full", block_size=3)
        for m in range(len(result)):
            traj = system.run(starts[m], max_steps=300)
            assert np.array_equal(result.histories[m], traj.history)


class TestHistoryOwnership:
    def test_ensemble_histories_are_views_without_cross_aliasing(
            self, system, starts):
        result = system.run_ensemble(starts, max_steps=300, history="full")
        # Views into the block buffer (the zero-copy contract)...
        assert all(h.base is not None for h in result.histories)
        # ...but distinct members never alias: writing through one view
        # must not leak into another member's trajectory.
        before = result.histories[1].copy()
        result.histories[0][...] = -1.0
        assert np.array_equal(result.histories[1], before)

    def test_run_full_budget_returns_buffer_not_copy(self, system):
        # tol=0 burns the whole budget; the trajectory keeps the
        # preallocated buffer itself instead of duplicating ~max_steps
        # rows at the finish line.  It is a view of the one-member
        # block buffer, and no second buffer stands behind it.
        traj = system.run(np.full(4, 0.2), max_steps=50, tol=0.0)
        assert traj.steps == 50
        assert traj.history.shape == (51, 4)
        assert traj.history.base.size == traj.history.size

    def test_run_early_exit_trims_with_copy(self, system):
        traj = system.run(np.full(4, 0.1), max_steps=5000)
        assert traj.outcome is Outcome.CONVERGED
        assert traj.steps < 5000
        assert traj.history.shape == (traj.steps + 1, 4)
        # A copy that owns its rows — not a view pinning the full
        # 5000-row buffer in memory.
        assert traj.history.flags.owndata


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "4"])
    def test_bad_block_size_raises(self, system, starts, bad):
        with pytest.raises(SweepError, match="block_size"):
            system.run_ensemble(starts, max_steps=10, block_size=bad)

    def test_oversized_block_warns_and_matches(self, system, starts):
        one_shot = system.run_ensemble(starts, max_steps=300)
        with pytest.warns(RuntimeWarning, match="exceeds the ensemble"):
            blocked = system.run_ensemble(starts, max_steps=300,
                                          block_size=99)
        _same(blocked, one_shot)

    def test_bad_history_policy_raises(self, system, starts):
        with pytest.raises(SweepError, match="history must be one of"):
            system.run_ensemble(starts, max_steps=10, history="most")

    def test_empty_ensemble_accepts_policies(self, system):
        empty = system.run_ensemble(np.empty((0, 4)), max_steps=10,
                                    history="none", block_size=4)
        assert len(empty) == 0
        assert empty.history_policy == "none"


class TestBufferProjection:
    def test_policy_ordering(self):
        full = ensemble_buffer_bytes(64, 1000, max_steps=500,
                                     history="full")
        tail = ensemble_buffer_bytes(64, 1000, max_steps=500,
                                     history="tail")
        none = ensemble_buffer_bytes(64, 1000, max_steps=500,
                                     history="none")
        assert full > tail > none > 0

    def test_tail_formula(self):
        # base (finals + initials) + M * tail_cap * N doubles.
        m, n, cap = 8, 100, min(4 * 64, 501)
        expected = 2 * m * n * 8 + m * cap * n * 8
        assert ensemble_buffer_bytes(m, n, max_steps=500,
                                     history="tail") == expected

    def test_bad_policy_raises(self):
        with pytest.raises(SweepError, match="history"):
            ensemble_buffer_bytes(8, 100, history="everything")

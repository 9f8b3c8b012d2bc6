"""Unit tests for the router-side RCP controller and its dynamics
threading: fixed points, stability factors, scalar/batch bit-identity,
and the controlled-system guards."""

import numpy as np
import pytest

from repro.core.dynamics import FlowControlSystem, Outcome
from repro.core.fairness import jain_index, max_min_allocation
from repro.core.fifo import Fifo
from repro.core.ratecontrol import RcpSourceRule, TargetRule
from repro.core.rcp import RcpBank, RcpController
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import parking_lot, random_network, single_gateway
from repro.errors import RateVectorError, SweepError
from repro.scenarios import FaultPlanSpec, InjectorSpec


def controlled(network, alpha=0.5, beta=0.05):
    return FlowControlSystem(
        network, Fifo(), LinearSaturating(), RcpSourceRule(),
        style=FeedbackStyle.INDIVIDUAL,
        controller=RcpController(alpha=alpha, beta=beta))


class TestRcpController:
    def test_validation(self):
        with pytest.raises(RateVectorError):
            RcpController(alpha=0.0)
        with pytest.raises(RateVectorError):
            RcpController(beta=-0.1)
        with pytest.raises(RateVectorError):
            RcpController(fill=0.0)
        with pytest.raises(RateVectorError):
            RcpController(fill=1.5)

    def test_fixed_point_solves_alpha_beta_balance(self):
        ctl = RcpController(alpha=0.5, beta=0.05)
        x = ctl.fixed_point_utilisation()
        assert 0 < x < 1
        assert ctl.alpha * (1 - x) ** 2 == pytest.approx(
            ctl.beta * x, abs=1e-12)

    def test_zero_beta_fills_the_link(self):
        assert RcpController(alpha=0.5, beta=0.0) \
            .fixed_point_utilisation() == 1.0

    def test_stability_factor(self):
        ctl = RcpController(alpha=0.5, beta=0.0)
        assert ctl.stability_factor() == pytest.approx(0.5)
        ctl = RcpController(alpha=0.5, beta=0.05)
        x = ctl.fixed_point_utilisation()
        assert ctl.stability_factor() == pytest.approx(0.5 * (1 + x))


class TestRcpEquilibrium:
    def test_single_gateway_converges_to_fair_split(self):
        network = single_gateway(4, mu=2.0)
        system = controlled(network)
        traj = system.run([0.01, 0.2, 0.4, 0.9], max_steps=2000)
        assert traj.outcome is Outcome.CONVERGED
        predicted = system.bank.predicted_allocation()
        x = system.controller.fixed_point_utilisation()
        assert np.allclose(predicted, x * 2.0 / 4)
        assert np.allclose(traj.final, predicted, rtol=1e-6)
        assert jain_index(traj.final) == pytest.approx(1.0)

    def test_parking_lot_converges_to_max_min_of_effective_capacities(
            self):
        network = parking_lot(3)
        system = controlled(network)
        traj = system.run([0.05] * network.num_connections,
                          max_steps=4000)
        assert traj.outcome is Outcome.CONVERGED
        expected = max_min_allocation(
            network, system.bank.effective_capacities())
        assert np.allclose(traj.final, expected, rtol=1e-6)

    def test_unstable_gain_does_not_converge(self):
        # s = alpha = 3 > 2 with beta = 0: the fixed point is repelling
        # (the map is conjugate to a chaotic logistic map).  fill=0.45
        # keeps the clipped first step off the exact fixed point, which
        # fill=0.5 would hit dead-on (0.45 * FACTOR_MAX != fill * mu).
        system = FlowControlSystem(
            single_gateway(2, mu=1.0), Fifo(), LinearSaturating(),
            RcpSourceRule(), style=FeedbackStyle.INDIVIDUAL,
            controller=RcpController(alpha=3.0, beta=0.0, fill=0.45))
        traj = system.run([0.1, 0.2], max_steps=1500)
        assert traj.outcome is not Outcome.CONVERGED


class TestRcpBankBatch:
    def test_update_batch_matches_scalar_bitwise(self):
        network = parking_lot(3)
        bank = RcpBank(network, RcpController(alpha=0.6, beta=0.08))
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.01, 0.5,
                            size=(5, network.num_connections))
        state = bank.initial_state_batch(5)
        for _ in range(4):
            state_rows = [bank.update(rates[m], state[m])
                          for m in range(5)]
            state = bank.update_batch(rates, state)
            assert np.array_equal(state, np.stack(state_rows))
            adv_rows = [bank.advertised(state[m]) for m in range(5)]
            adv = bank.advertised_batch(state)
            assert np.array_equal(adv, np.stack(adv_rows))
            rates = adv

    def test_ensemble_matches_scalar_runs(self):
        system = controlled(single_gateway(3, mu=1.5))
        initials = np.array([[0.01, 0.1, 0.3], [0.2, 0.2, 0.2]])
        ens = system.run_ensemble(initials, max_steps=800)
        for m in range(2):
            traj = system.run(initials[m], max_steps=800)
            assert ens.outcomes[m] is traj.outcome
            assert int(ens.steps[m]) == traj.steps
            assert np.array_equal(ens.finals[m], traj.final)


class TestControlledSystemGuards:
    def test_rcp_source_rule_requires_controller(self):
        with pytest.raises(RateVectorError):
            FlowControlSystem(single_gateway(2), Fifo(),
                              LinearSaturating(), RcpSourceRule(),
                              style=FeedbackStyle.INDIVIDUAL)

    def test_controller_requires_rcp_source_rules(self):
        with pytest.raises(RateVectorError):
            FlowControlSystem(single_gateway(2), Fifo(),
                              LinearSaturating(),
                              TargetRule(eta=0.1, beta=0.5),
                              style=FeedbackStyle.INDIVIDUAL,
                              controller=RcpController())

    def test_step_raises_on_controlled_system(self):
        system = controlled(single_gateway(2))
        with pytest.raises(RateVectorError):
            system.step(np.array([0.1, 0.1]))
        with pytest.raises(RateVectorError):
            system.step_batch(np.array([[0.1, 0.1]]))

    @pytest.mark.parametrize("state", [
        np.array([0.1]), np.array([0.1, np.nan, 0.1]), np.ones(4)],
        ids=["broadcast", "nan", "wrong-length"])
    def test_step_controlled_requires_a_finite_state_per_gateway(
            self, state):
        system = controlled(random_network(3, 6, 2))
        assert system.bank.num_gateways == 3
        with pytest.raises(RateVectorError, match=r"shape \(3,\)"):
            system.step_controlled(np.full(6, 0.1), state)

    @pytest.mark.parametrize("state", [
        np.ones((1, 3)), np.full((2, 3), np.inf), np.ones(3)],
        ids=["too-few-rows", "inf", "one-row"])
    def test_step_controlled_batch_requires_a_row_per_rate_row(
            self, state):
        system = controlled(random_network(3, 6, 2))
        with pytest.raises(RateVectorError, match=r"shape \(2, 3\)"):
            system.step_controlled_batch(np.full((2, 6), 0.1), state)

    def test_faults_and_controller_are_mutually_exclusive(self):
        system = controlled(single_gateway(2))
        plan = FaultPlanSpec(
            seed=1,
            injectors=(InjectorSpec("delay",
                                    {"delay": 1, "jitter": 0}),)).build()
        with pytest.raises(SweepError):
            system.run([0.1, 0.1], faults=plan)
        with pytest.raises(SweepError):
            system.run_ensemble(np.array([[0.1, 0.1]]), faults=plan)

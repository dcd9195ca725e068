"""Newton steps in value iteration: every family, against plain sweeps."""

import numpy as np
import pytest

from mdpkit import (
    ConstrainedInstance,
    CovarianceModel,
    DistributionalInstance,
    EntropyRegularizer,
    GumbelIid,
    GumbelInverseCdf,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MarginalDistributionModel,
    MarginalMomentModel,
    RegularizedInstance,
    StandardInstance,
    StochasticInstance,
    UniformPerEntry,
    random_mdp,
    value_iteration,
)

TOL = 1e-6
FAMILIES = ("standard", "entropy", "kl", "marginal-moment", "covariance",
            "gumbel-mdm", "kl-ball", "l1-ball", "chi2-ball", "gumbel-cf",
            "monte-carlo")


def family_instance(name, discount, states=2, actions=3, seed=5):
    m = random_mdp(states, actions, seed=seed, reward_range=(-2.0, 2.0),
                   discount=discount)
    rng = np.random.default_rng(seed)
    ref = rng.dirichlet(np.full(actions, 2.0))
    b = rng.normal(size=(states, actions, actions))
    cov = np.einsum("sij,skj->sik", b, b) / actions + 0.2 * np.eye(actions)
    half = rng.uniform(0.3, 1.5, (states, actions))
    return {
        "standard": StandardInstance(m),
        "entropy": RegularizedInstance(m, EntropyRegularizer(0.5)),
        "kl": RegularizedInstance(m, KlRegularizer(0.5, ref)),
        "marginal-moment": DistributionalInstance(
            m, MarginalMomentModel(rng.uniform(0.2, 1.0, (states, actions)))),
        "covariance": DistributionalInstance(m, CovarianceModel(cov)),
        "gumbel-mdm": DistributionalInstance(m, MarginalDistributionModel(
            [[GumbelInverseCdf(1.0)] * actions] * states)),
        "kl-ball": ConstrainedInstance(m, [KlBall(ref, 0.2)] * states),
        "l1-ball": ConstrainedInstance(m, [L1Ball(ref, 0.5)] * states),
        "chi2-ball": ConstrainedInstance(
            m, [L2ChiSquareBall(ref, 0.4)] * states),
        "gumbel-cf": StochasticInstance(m, GumbelIid.mean_zero(0.5),
                                        method="closed_form"),
        # common random numbers: the argmax share is the gradient of the
        # sample-average max, so Newton steps are exact policy iteration
        "monte-carlo": StochasticInstance(
            m, UniformPerEntry(np.stack([-half, half], axis=-1)),
            mc_samples=2000, seed=seed, method="mc"),
    }[name]


@pytest.mark.parametrize("discount", [0.9, 0.99])
@pytest.mark.parametrize("family", FAMILIES)
def test_newton_agrees_with_value_iteration(family, discount):
    inst = family_instance(family, discount)
    plain = value_iteration(inst.model, inst.operator(), tol=TOL,
                            newton=False)
    newton = inst.solve(tol=TOL)
    assert newton.iterations <= 6 < plain.iterations
    assert newton.residual <= TOL
    gap = np.max(np.abs(newton.value - plain.value))
    assert gap <= discount / (1.0 - discount) * TOL

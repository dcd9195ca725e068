"""Tabular MDP solvers for five interchangeable backup frameworks.

The same synchronous value iteration runs a standard max backup, a
concave-regularized backup (entropy, KL, and numerically conjugated
regularizers), a noisy-reward expected-max backup (closed-form Gumbel or
Monte Carlo), a distributionally robust backup over marginal/covariance
ambiguity sets, and a feasible-set-constrained backup (KL/L1/L2 balls).
`equivalence` compares any two instances empirically and reproduces the
nested-relation map between the frameworks; `cli` exposes everything as
the `mdpkit` command.
"""

from .constrained import (ChiSquareLagrangeRegularizer, DualDiscrepancy,
                          KlBall, L1Ball, L2ChiSquareBall, PhiBall, Singleton,
                          ZeroRegularizer, constraint_violation,
                          ct_to_r_convert, generic_phi_ball_backup,
                          grid_oracle_backup, kl_constrained_backup,
                          l1_constrained_backup, l1_dual_discrepancy,
                          l2_constrained_backup, l2_dual_discrepancy,
                          r_to_ct_convert)
from .core import (ConvergenceError, MdpModel, ModelValidationError,
                   SolveResult, bellman_sweep, derive_rng, policy_evaluation_exact,
                   q_vector, random_mdp, standard_backup,
                   standard_backup_operator, validate_model,
                   validate_policy_matrix, value_iteration)
from .distributional import (CovarianceModel, CovarianceRegularizer,
                             ExponentialInverseCdf, GumbelInverseCdf,
                             MarginalDistributionModel, MarginalMomentModel,
                             MdmRegularizer, MmmRegularizer,
                             TabulatedInverseCdf, UniformInverseCdf, ds_backup,
                             ds_backup_operator, ds_lower_bound_check,
                             regularizer_for)
from .equivalence import (ConstrainedInstance, DistributionalInstance,
                          EquivalenceReport, FrameworkInstance,
                          NestedRelationReport, RegularizedInstance,
                          StandardInstance, StochasticInstance,
                          StructureMismatchError, check_equivalence,
                          counterexample_suite, interior_policy_sweep)
from .regularized import (AffineRegularizer, ConjugateResult,
                          EntropyRegularizer, KlRegularizer, Regularizer,
                          bregman_divergence, entropy_backup, kl_backup,
                          numeric_conjugate, regularized_backup_operator)
from .stochastic import (GaussianJoint, GumbelIid, UniformPerEntry,
                         build_uniform_counterexample, mc_emax,
                         mc_counterexample_ratio, mc_policy,
                         refute_single_eta_fit, smdp_backup_operator,
                         uniform_counterexample_ratio)

__version__ = "0.1.0"

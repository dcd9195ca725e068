"""Model container, plain Bellman backup, and value iteration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import tracemalloc_peak

from mdpkit import (
    ConjugateResult,
    ConstrainedInstance,
    ConvergenceError,
    DistributionalInstance,
    EntropyRegularizer,
    GumbelIid,
    KlBall,
    KlRegularizer,
    MarginalMomentModel,
    MdpModel,
    ModelValidationError,
    RegularizedInstance,
    StandardInstance,
    StochasticInstance,
    UniformPerEntry,
    ZeroRegularizer,
    bellman_sweep,
    check_equivalence,
    derive_rng,
    grid_oracle_backup,
    interior_policy_sweep,
    mc_counterexample_ratio,
    mc_emax,
    mc_policy,
    policy_evaluation_exact,
    q_vector,
    r_to_ct_convert,
    random_mdp,
    regularized_backup_operator,
    smdp_backup_operator,
    standard_backup,
    validate_model,
    validate_policy_matrix,
    value_iteration,
)
from mdpkit.core import _blocks, _count, _evaluation_matrix

# the plain Bellman backup operator: phi = 0
STANDARD = regularized_backup_operator(ZeroRegularizer())


def chain_model(discount=0.5):
    """Two states, two actions: action 0 stays, action 1 hops to the other."""
    transition = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
    ])
    reward = np.array([[1.0, 0.0], [0.0, 2.0]])
    return MdpModel(num_states=2, num_actions=2, transition=transition,
                    reward=reward, discount=discount)


def one_state_model(r=1.0, discount=0.5):
    return MdpModel(num_states=1, num_actions=1,
                    transition=np.ones((1, 1, 1)), reward=np.array([[r]]),
                    discount=discount)


# ---------------------------------------------------------------- validation


def test_valid_model_has_no_violations():
    assert validate_model(chain_model()) == []


def test_bad_row_sum_rejected():
    t = np.ones((1, 1, 1)) * 0.5
    with pytest.raises(ModelValidationError) as exc:
        MdpModel(1, 1, t, np.zeros((1, 1)), 0.9)
    assert any("sum" in v for v in exc.value.violations)


def test_negative_probability_rejected():
    t = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
    with pytest.raises(ModelValidationError):
        MdpModel(2, 1, t, np.zeros((2, 1)), 0.9)


@pytest.mark.parametrize("discount", [-0.1, 1.0, 1.5, np.nan])
def test_bad_discount_rejected(discount):
    with pytest.raises(ModelValidationError):
        MdpModel(1, 1, np.ones((1, 1, 1)), np.zeros((1, 1)), discount)


def test_reward_shape_mismatch_rejected():
    with pytest.raises(ModelValidationError):
        MdpModel(2, 2, np.full((2, 2, 2), 0.5), np.zeros((2, 3)), 0.9)


def test_nonfinite_reward_rejected():
    r = np.array([[np.inf, 0.0]])
    with pytest.raises(ModelValidationError):
        MdpModel(1, 2, np.full((1, 2, 1), 1.0), r, 0.9)


def test_transition_shape_mismatch_rejected():
    with pytest.raises(ModelValidationError):
        MdpModel(3, 2, np.full((2, 2, 2), 0.5), np.zeros((3, 2)), 0.9)


def test_model_arrays_are_frozen():
    m = chain_model()
    with pytest.raises(ValueError):
        m.reward[0, 0] = 99.0


@pytest.mark.parametrize("entry, expected", [
    (np.nan, "transition has non-finite entries"),
    (np.inf, "transition has non-finite entries"),
    (-np.inf, "transition has non-finite entries"),
    (-0.25, "negative transition probability at (s=1, a=0)"),
])
def test_kernel_violations_name_the_first_bad_row(entry, expected):
    # bad entries in rows (1, 0) and (2, 1), each row summing to 1
    t = np.full((3, 2, 3), 1.0 / 3.0)
    t[1, 0] = [0.75, 0.5, entry]
    t[2, 1] = [entry, 0.5, 0.75]
    with pytest.raises(ModelValidationError) as exc:
        MdpModel(3, 2, t, np.zeros((3, 2)), 0.9)
    assert exc.value.violations == [expected]


def test_row_sum_violation_names_the_first_bad_row():
    t = np.full((2, 2, 2), 0.5)
    t[1, 0] = [0.5, 0.6]
    t[1, 1] = [0.5, 0.7]
    with pytest.raises(ModelValidationError) as exc:
        MdpModel(2, 2, t, np.zeros((2, 2)), 0.9)
    assert exc.value.violations == [
        "transition row (s=1, a=0) sums to 1.1000000000000001, "
        "outside 1 +/- 1e-12"]


def test_discount_and_policy_messages_print_17_digits():
    t = np.full((2, 2, 2), 0.5)
    with pytest.raises(ModelValidationError) as exc:
        MdpModel(2, 2, t, np.zeros((2, 2)), np.float64(1.1))
    assert exc.value.violations == ["discount 1.1000000000000001 outside [0, 1)"]
    probs = np.array([[0.5, 0.5], [0.5, 0.6]])
    assert validate_policy_matrix(probs) == [
        "policy row s=1 sums to 1.1000000000000001"]


# ------------------------------------------------------------ kernel memory


def test_random_mdp_holds_one_kernel():
    model, peak = tracemalloc_peak(random_mdp, 200, 10, seed=1,
                                   warm=(5, 3, 1))
    assert peak <= 1.1 * model.transition.nbytes
    assert not model.transition.flags.writeable


def test_blocks_cover_the_range_in_order():
    for count, item, nbytes in [(300, 24000, 2**20), (5, 10**9, 2**20),
                                (1, 8, 2**20), (10, 3, 7)]:
        blocks = _blocks(count, item, nbytes)
        assert [i for b in blocks for i in range(count)[b]] == \
            list(range(count))
        assert all(b.stop - b.start == max(1, nbytes // item)
                   for b in blocks[:-1])


@pytest.mark.parametrize("shape", [(300, 10), (7, 3), (1, 1)])
def test_random_mdp_draws_its_kernel_by_blocks_bit_for_bit(shape):
    # the one-shot draw: the whole kernel, floored and normalized at once;
    # (300, 10) takes several blocks, the last one partial
    S, A = shape
    blocks = _blocks(S, A * S * 8)
    assert (len(blocks) > 1) == (S == 300)
    assert S != 300 or blocks[-1].stop - blocks[-1].start < blocks[0].stop
    rng = np.random.default_rng(17)
    kernel = rng.random((S, A, S))
    kernel += 1e-9
    kernel /= kernel.sum(axis=2, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(S, A))
    model = random_mdp(S, A, seed=17)
    assert model.transition.tobytes() == kernel.tobytes()
    assert model.reward.tobytes() == reward.tobytes()


@pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "negative", "sum"])
def test_kernel_violations_in_the_last_block_are_named(fault):
    # row (299, 2) lies in the last of several blocks of the kernel
    S, A, s, a = 300, 4, 299, 2
    blocks = _blocks(S, A * S * 8)
    assert len(blocks) > 1 and s in range(S)[blocks[-1]]
    t = random_mdp(S, A, seed=3).transition.copy()
    if fault == "negative":
        t[s, a] = 0.0
        t[s, a, :2] = [-1.0, 2.0]
    elif fault == "sum":
        t[s, a] *= 1.5
    else:
        t[s, a, 5] = float(fault)
    expected = {
        "negative": f"negative transition probability at (s={s}, a={a})",
        "sum": f"transition row (s={s}, a={a}) sums to "
               f"{t.sum(axis=2)[s, a]:.17g}, outside 1 +/- 1e-12",
    }.get(fault, "transition has non-finite entries")
    with pytest.raises(ModelValidationError) as exc:
        MdpModel(S, A, t, np.zeros((S, A)), 0.9)
    assert exc.value.violations == [expected]


def test_frozen_kernel_is_shared_by_derived_models():
    m = random_mdp(6, 3, seed=5, discount=0.8)
    reward = np.ones((6, 3))
    phi = EntropyRegularizer(0.5)
    instances = [
        (StandardInstance(m), None),
        (RegularizedInstance(m, phi), "phi_per_state"),
        (StochasticInstance(m, GumbelIid(0.5, num_actions=3), mc_samples=64,
                            seed=3, method="mc"), "noise"),
        (DistributionalInstance(m, MarginalMomentModel(np.full((6, 3), 0.4))),
         "ambiguity"),
        (ConstrainedInstance(m, [ZeroRegularizer()] * 6), "constraints"),
    ]
    for inst, structure in instances:
        twin = inst.with_rewards(reward)
        assert type(twin) is type(inst)
        assert twin.model.transition is m.transition
        assert np.array_equal(twin.model.reward, reward)
        assert inst.model.reward is m.reward
        if structure is not None:
            assert getattr(twin, structure) is getattr(inst, structure)
    twin = instances[2][0].with_rewards(reward)
    assert (twin.mc_samples, twin.seed, twin.method) == (64, 3, "mc")
    assert r_to_ct_convert(m, phi).ct_model.transition is m.transition


def test_writeable_views_and_fortran_inputs_are_copied():
    base = random_mdp(4, 3, seed=6)
    writeable = np.array(base.transition)
    m = MdpModel(4, 3, writeable, base.reward, base.discount)
    assert m.transition is not writeable
    writeable[0, 0] = [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(m.transition, base.transition)
    view = base.transition[:, :, :]
    assert not view.flags.writeable
    assert MdpModel(4, 3, view, base.reward, base.discount).transition \
        is not view
    fortran = np.asfortranarray(base.transition)
    fortran.setflags(write=False)
    m = MdpModel(4, 3, fortran, base.reward, base.discount)
    assert m.transition is not fortran
    assert m.transition.flags.c_contiguous


def test_validate_policy_matrix():
    assert validate_policy_matrix(np.array([[0.3, 0.7]])) == []
    assert validate_policy_matrix(np.array([[0.3, 0.3]]))  # bad row sum
    assert validate_policy_matrix(np.array([[1.2, -0.2]]))
    assert validate_policy_matrix(np.array([[0.5, 0.5]]), num_actions=3)


# ------------------------------------------------------------------- backup


def test_q_vector_by_hand():
    m = chain_model(discount=0.5)
    v = np.array([10.0, 20.0])
    # state 0: action 0 stays (r=1 + 0.5*10), action 1 hops (r=0 + 0.5*20)
    assert np.allclose(q_vector(m, v, 0), [6.0, 10.0])
    assert np.allclose(q_vector(m, v, 1), [10.0, 7.0])


def test_standard_backup_picks_max():
    val, row = standard_backup([0.5, 2.0, -1.0])
    assert val == 2.0
    assert row.tolist() == [0.0, 1.0, 0.0]


def test_standard_backup_tie_goes_to_lowest_index():
    val, row = standard_backup([3.0, 3.0, 3.0])
    assert val == 3.0
    assert row.tolist() == [1.0, 0.0, 0.0]
    # a table is backed up row by row on its last axis, with the same rule
    table = [[3.0, 3.0, 3.0], [1.0, 2.0, 2.0], [0.0, -1.0, 0.0], [-1, -1, 5]]
    vals, rows = standard_backup(table)
    assert vals.tolist() == [3.0, 2.0, 0.0, 5.0]
    assert rows.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]]
    for w, v, r in zip(table, vals, rows):
        one_value, one_row = standard_backup(w)
        assert one_value == v and np.array_equal(one_row, r)


def test_bellman_sweep_shapes():
    m = chain_model()
    v, pi = bellman_sweep(m, STANDARD, np.zeros(2))
    assert v.shape == (2,)
    assert pi.shape == (2, 2)
    assert validate_policy_matrix(pi) == []


# ------------------------------------------------------------------ Q table


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (7, 4), (60, 9)])
def test_q_table_matches_stacked_rows(shape):
    m = random_mdp(*shape, seed=sum(shape), discount=0.9)
    for scale in (1.0, 1e6):
        v = scale * derive_rng(3, *shape).normal(size=shape[0])
        rows = np.stack([q_vector(m, v, s) for s in range(shape[0])])
        table = q_vector(m, v)
        assert table.shape == shape
        assert np.max(np.abs(table - rows)) <= 1e-13 * (1.0 + np.max(np.abs(v)))


def _signed_zero_model(seed, states=6, actions=3):
    """A random model whose kernel and rewards hold -0.0 entries."""
    rng = derive_rng(seed, 0)
    transition = rng.random((states, actions, states))
    transition[rng.random(transition.shape) < 0.3] = -0.0
    transition[..., 0] += 0.5  # no row of zeros
    transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.normal(size=(states, actions))
    reward[rng.random(reward.shape) < 0.3] = -0.0
    return MdpModel(states, actions, transition, reward, 0.9), rng


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


@pytest.mark.parametrize("seed", [1, 7919])
def test_q_vector_at_zero_is_the_product_bit_for_bit(seed):
    # at V = 0 q_vector skips the kernel; the table is still the product's
    m, rng = _signed_zero_model(seed)
    S, A = m.num_states, m.num_actions
    assert np.any(np.signbit(m.transition)) and np.any(np.signbit(m.reward))
    p_zero = (m.transition.reshape(S * A, S) @ np.zeros(S)).reshape(S, A)
    table = q_vector(m, np.zeros(S))
    assert _same_bits(table, m.reward + m.discount * p_zero)
    assert not np.shares_memory(table, m.reward)
    stack = rng.normal(size=(4, S, A))
    stack[rng.random(stack.shape) < 0.3] = -0.0
    assert _same_bits(q_vector(m, np.zeros((4, S)), reward=stack),
                      stack + m.discount * p_zero)
    for s in range(S):
        assert _same_bits(q_vector(m, np.zeros(S), s),
                          m.reward[s] + m.discount * (m.transition[s]
                                                      @ np.zeros(S)))


def test_a_solve_makes_no_kernel_product_at_v_zero(monkeypatch):
    m = random_mdp(50, 4, seed=1)
    products = []
    matmul = np.matmul

    def spy(a, *args, **kwargs):
        products.append(np.shape(a) == (50 * 4, 50))
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    result = value_iteration(m, STANDARD)
    assert result.iterations == 3
    assert products == [True, True]


def test_fortran_ordered_kernel_is_stored_c_contiguous():
    base = random_mdp(5, 3, seed=4)
    m = MdpModel(5, 3, np.asfortranarray(base.transition),
                 np.asfortranarray(base.reward), base.discount)
    assert m.transition.flags.c_contiguous
    assert np.shares_memory(m.transition.reshape(15, 5), m.transition)
    assert np.array_equal(m.transition, base.transition)


def test_bellman_sweep_passes_table_rows_in_state_order():
    m = random_mdp(6, 3, seed=9, discount=0.8)
    v = derive_rng(9).normal(size=6)
    seen = []

    def op(table, states, sweep):
        seen.append((table.copy(), list(states), sweep))
        return standard_backup(table)

    value, policy = bellman_sweep(m, op, v, 4)
    table = q_vector(m, v)
    # one call per sweep, with the whole table and the states in order
    assert len(seen) == 1
    assert seen[0][1] == list(range(6))
    assert seen[0][2] == 4
    assert np.array_equal(seen[0][0], table)
    assert np.array_equal(value, table.max(axis=1))
    assert np.array_equal(policy.argmax(axis=1), table.argmax(axis=1))
    # the per-row loop hands each row over with its own state, in order
    rows_seen = []

    class Recorder:
        def __init__(self, state):
            self.state = state

        def conjugate(self, w):
            rows_seen.append((w.copy(), self.state))
            return ConjugateResult(*standard_backup(w))

    by_row = bellman_sweep(
        m, regularized_backup_operator([Recorder(s) for s in range(6)]), v, 4)
    assert [s for _, s in rows_seen] == list(range(6))
    assert all(np.array_equal(w, table[s]) for w, s in rows_seen)
    assert np.array_equal(by_row[0], value)
    assert np.array_equal(by_row[1], policy)
    # the default sweep index is 0, and per-state rows agree to rounding
    value0, _ = bellman_sweep(m, op, v)
    assert len(seen) == 2 and seen[-1][2] == 0
    rows = np.array([q_vector(m, v, s).max() for s in range(6)])
    assert np.max(np.abs(value0 - rows)) <= 1e-13 * (1.0 + np.max(np.abs(v)))


def test_operators_back_up_any_subset_of_rows_as_the_full_table_does():
    # per-state structure and the Monte Carlo draws key on `states`, so a
    # call on some rows returns exactly those rows of the full-table call
    m = random_mdp(7, 3, seed=21, discount=0.8)
    table = q_vector(m, derive_rng(21).normal(size=7))
    rng = derive_rng(22)
    instances = [
        StandardInstance(m),
        RegularizedInstance(m, EntropyRegularizer(0.5)),
        RegularizedInstance(m, KlRegularizer(0.7, [0.2, 0.3, 0.5])),
        StochasticInstance(m, GumbelIid(0.5, location=0.3),
                           method="closed_form"),
        StochasticInstance(m, GumbelIid(0.5, num_actions=3), mc_samples=500,
                           seed=4, method="mc"),
        ConstrainedInstance(m, [KlBall(rng.dirichlet(np.ones(3)), 0.2)
                                for _ in range(7)]),
        DistributionalInstance(m, MarginalMomentModel(
            rng.uniform(0.2, 1.0, (7, 3)))),
    ]
    for inst in instances:
        values, rows = inst.operator()(table, np.arange(7), 2)
        assert values.shape == (7,) and rows.shape == (7, 3)
        for idx in ([3], [5, 0, 2], [6, 6, 1]):
            sub_values, sub_rows = inst.operator()(table[idx], np.array(idx), 2)
            assert np.array_equal(sub_values, values[idx])
            assert np.array_equal(sub_rows, rows[idx])


# ----------------------------------------------------------- value iteration


def test_single_state_geometric_value():
    # [TRIVIAL] self-loop with reward 1 and discount 0.5 has value 1/(1-0.5).
    res = value_iteration(one_state_model(), STANDARD)
    assert res.value[0] == pytest.approx(2.0, abs=1e-9)
    assert res.residual <= 1e-10
    assert res.iterations > 0


def test_chain_model_analytic_value():
    # optimal at g=0.5: state 0 keeps collecting 1, state 1 hops once for 2,
    # so V0 = 1/(1-g) and V1 = 2 + g*V0.
    g = 0.5
    res = value_iteration(chain_model(g), STANDARD)
    v0 = 1.0 / (1.0 - g)
    assert res.value[0] == pytest.approx(v0, abs=1e-9)
    assert res.value[1] == pytest.approx(2.0 + g * v0, abs=1e-9)
    assert res.policy[0].tolist() == [1.0, 0.0]
    assert res.policy[1].tolist() == [0.0, 1.0]


def test_value_matches_exact_evaluation_of_greedy_policy():
    m = random_mdp(6, 3, seed=11, reward_range=(-2.0, 2.0), discount=0.9)
    res = value_iteration(m, STANDARD, tol=1e-12)
    exact = policy_evaluation_exact(m, res.policy)
    assert np.max(np.abs(res.value - exact)) < 1e-9


def test_value_matches_truncated_neumann_series():
    # [DERIVED] oracle: V_pi = sum_k (gamma P_pi)^k r_pi, truncated at K
    # terms with gamma^K below 1e-18 relative.
    m = random_mdp(4, 2, seed=3, reward_range=(0.0, 1.0), discount=0.5)
    res = value_iteration(m, STANDARD, tol=1e-13)
    p_pi = np.einsum("sa,sat->st", res.policy, m.transition)
    r_pi = np.einsum("sa,sa->s", res.policy, m.reward)
    v = np.zeros(m.num_states)
    term = r_pi.copy()
    for _ in range(60):
        v = v + term
        term = m.discount * (p_pi @ term)
    assert np.max(np.abs(res.value - v)) < 1e-10


def test_convergence_error_carries_partial_result():
    m = random_mdp(5, 3, seed=7, discount=0.95)
    with pytest.raises(ConvergenceError) as exc:
        value_iteration(m, STANDARD, tol=1e-12, max_iter=1)
    err = exc.value
    assert err.residual > 1e-12
    assert err.best is not None
    assert err.best.value.shape == (5,)


def test_non_finite_residual_stops_value_iteration_at_once():
    m = chain_model(0.9)
    sweeps = []

    def op(table, states, sweep):
        sweeps.append((sweep, list(states)))
        rows = np.tile([1.0, 0.0], (len(states), 1))
        return np.full(len(states), np.nan), rows

    with pytest.raises(ConvergenceError) as exc:
        value_iteration(m, op)
    assert sweeps == [(0, [0, 1])]
    assert np.isnan(exc.value.residual)
    assert exc.value.best.iterations == 1
    # a NaN temperature is rejected before any sweep
    with pytest.raises(ValueError, match="eta must be a finite number"):
        EntropyRegularizer(float("nan"))


def test_newton_convergence_error_carries_the_last_sweep():
    m = chain_model(0.9)
    with pytest.raises(ConvergenceError) as exc:
        value_iteration(m, STANDARD, max_iter=1)
    best = exc.value.best
    # the first sweep backs up V = 0: TV is the best reward of each state
    assert best.iterations == 1
    assert best.value.tolist() == [1.0, 2.0]
    assert best.policy.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert exc.value.residual == best.residual == 2.0
    assert best.error_bound == 0.9 / (1.0 - 0.9) * 2.0


@pytest.mark.parametrize("budget", [{"tol": 0.0}, {"max_iter": 0}])
def test_value_iteration_rejects_an_empty_budget(budget):
    with pytest.raises(ValueError):
        value_iteration(chain_model(), STANDARD, **budget)


@pytest.mark.parametrize("newton", [False, True])
@pytest.mark.parametrize("eta", [None, 0.5])
def test_error_bound_bounds_the_distance_to_the_policy_value(newton, eta):
    # [DERIVED] |TV - V^pi| <= gamma / (1 - gamma) |TV - V| for the rows pi
    # of the sweep; V^pi of a soft row is the linear solve with r + phi(pi)
    m = random_mdp(8, 3, seed=5, reward_range=(-2.0, 2.0), discount=0.95)
    if eta is None:
        op, phi = STANDARD, None
    else:
        phi = EntropyRegularizer(eta)
        op = regularized_backup_operator(phi)
    res = value_iteration(m, op, tol=1e-3, newton=newton)
    assert res.error_bound == 0.95 / (1.0 - 0.95) * res.residual
    reward = m.reward
    if phi is not None:
        reward = reward + phi.value(res.policy)[:, None]
    shifted = MdpModel(num_states=8, num_actions=3, transition=m.transition,
                       reward=reward, discount=0.95)
    exact = policy_evaluation_exact(shifted, res.policy)
    assert np.max(np.abs(res.value - exact)) <= res.error_bound + 1e-12


def _policies(kind, rng, states=30, actions=4):
    """A one-hot policy, its weights scaled, every third row soft, or soft."""
    policy = np.zeros((states, actions))
    picks = rng.integers(actions, size=states)
    policy[np.arange(states), picks] = 1.0
    if kind == "scaled":
        policy[np.arange(states), picks] = rng.uniform(0.5, 1.5, size=states)
    elif kind == "mixed":
        policy[::3] = rng.dirichlet(np.ones(actions), size=states // 3)
    elif kind == "soft":
        policy = rng.dirichlet(np.ones(actions), size=states)
    return policy


@pytest.mark.parametrize("rows", ["one-hot", "scaled", "mixed",
                                  "one-hot+scaled+one-hot",
                                  "one-hot+soft+mixed+scaled", "soft+mixed"])
def test_evaluation_matrix_equals_the_batched_product(rows):
    # "+" joins the policies of a (k, S, A) stack; one soft policy makes
    # the whole stack a product, which adds only exact zeros to a one-hot row
    m = random_mdp(30, 4, seed=12, discount=0.9)
    rng = derive_rng(12, 1)
    policies = [_policies(kind, rng) for kind in rows.split("+")]
    mats = _evaluation_matrix(m, np.array(policies) if "+" in rows
                              else policies[0])
    for policy, mat in zip(policies, mats if "+" in rows else [mats]):
        p_pi = np.matmul(policy[:, None, :], m.transition)[:, 0, :]
        assert np.array_equal(mat, np.eye(30) - m.discount * p_pi)


def test_newton_keeps_stepping_when_the_residual_grows():
    # [DERIVED] state 0 stays (reward 1) or hops to state 1, which pays 10
    # and moves to either state; sweep 1 greedily stays, its value [100,
    # 117.8] has residual 16.6 > 10, and one more Newton step reaches V*
    transition = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.5], [0.5, 0.5]],
    ])
    m = MdpModel(num_states=2, num_actions=2, transition=transition,
                 reward=np.array([[1.0, 0.0], [10.0, 10.0]]), discount=0.99)
    res = value_iteration(m, STANDARD, tol=1e-10)
    assert res.iterations <= 6
    plain = value_iteration(m, STANDARD, tol=1e-10,
                            newton=False)
    assert np.max(np.abs(res.value - plain.value)) <= plain.error_bound


def test_newton_safeguard_rescues_rows_that_are_not_the_gradient():
    # the rows claim the worst action, so a Newton step on this chain
    # (optimum: hop from both states) overshoots and the next sweep lowers
    # a value; without the fallback to plain sweeps the iterates diverge
    def wrong_rows(table, states, sweep):
        rows = np.zeros(table.shape)
        rows[np.arange(len(table)), np.argmin(table, axis=1)] = 1.0
        return table.max(axis=1), rows

    m = MdpModel(num_states=2, num_actions=2,
                 transition=chain_model().transition,
                 reward=np.array([[0.0, 1.0], [0.0, 2.0]]), discount=0.5)
    plain = value_iteration(m, STANDARD, tol=1e-12,
                            newton=False)
    res = value_iteration(m, wrong_rows, tol=1e-12, max_iter=1000)
    assert res.iterations <= plain.iterations + 2
    assert np.max(np.abs(res.value - plain.value)) <= 2.0 * plain.error_bound


# ------------------------------------------------- stacked reward tables


def _stack_operators(m):
    rng = derive_rng(7, 1)
    ref = rng.dirichlet(np.full(3, 2.0))
    moments = MarginalMomentModel(rng.uniform(0.2, 1.0, (5, 3)))
    half = rng.uniform(0.3, 1.5, (5, 3))
    noise = UniformPerEntry(np.stack([-half, half], axis=-1))
    return {
        "standard": lambda: STANDARD,
        "entropy": lambda: regularized_backup_operator(EntropyRegularizer(0.5)),
        "kl": lambda: regularized_backup_operator(KlRegularizer(0.5, ref)),
        "mmm-rowwise": DistributionalInstance(m, moments).operator,
        "kl-ball": ConstrainedInstance(m, KlBall(ref, 0.2)).operator,
        "monte-carlo": StochasticInstance(m, noise, mc_samples=500,
                                          seed=3).operator,
    }


# small tables converge in 1-5 sweeps; at 3e4 the Newton step's rounding
# exceeds tol, so on some of them a later sweep lowers a value and the
# safeguard switches that table to plain sweeps
STACK = np.array([np.zeros((5, 3))]
                 + [derive_rng(7, 2, k).uniform(-5.0, 5.0, (5, 3))
                    for k in range(3)]
                 + [derive_rng(7, 2, k).uniform(-3e4, 3e4, (5, 3))
                    for k in (4, 6, 8, 24, 27)])


@pytest.mark.parametrize("family", ["standard", "entropy", "kl",
                                    "mmm-rowwise", "kl-ball", "monte-carlo"])
def test_stacked_solve_equals_one_solve_per_table(family, monkeypatch):
    import mdpkit.core as core

    m = random_mdp(5, 3, seed=7, discount=0.95)
    make = _stack_operators(m)[family]
    steps, evaluate = [], core._evaluation_matrix
    monkeypatch.setattr(core, "_evaluation_matrix", lambda model, policy: (
        steps.append(len(policy) if policy.ndim == 3 else 1)
        or evaluate(model, policy)))
    alone = []
    for reward in STACK:
        steps.clear()
        twin = MdpModel(num_states=5, num_actions=3, transition=m.transition,
                        reward=reward, discount=0.95)
        alone.append((value_iteration(twin, make(), tol=1e-10), sum(steps)))
    stacked = value_iteration(m, make(), tol=1e-10, rewards=STACK)
    assert len(stacked) == len(STACK)
    for (one, _), res in zip(alone, stacked):
        assert np.array_equal(res.value, one.value)
        assert np.array_equal(res.policy, one.policy)
        assert res.iterations == one.iterations
        assert res.residual == one.residual
        assert res.error_bound == one.error_bound
    # the tables stop at different sweeps; one switches to plain sweeps
    # (fewer Newton steps than sweeps after the first) while others step
    assert len({one.iterations for one, _ in alone}) >= 3
    assert any(n < one.iterations - 1 for one, n in alone)
    assert any(n == one.iterations - 1 >= 2 for one, n in alone)


def test_stacked_solve_raises_the_error_of_the_lowest_failing_table():
    # within a two-sweep budget the 1e308 table overflows (its second
    # sweep is inf - inf) and STACK[5] runs out of sweeps; one table at a
    # time, the first of them to fail is the error
    m = random_mdp(5, 3, seed=7, discount=0.95)
    stack = np.array([np.zeros((5, 3)), STACK[5], np.full((5, 3), 1e308)])
    for order in ([0, 1, 2], [0, 2, 1]):
        tables = stack[order]
        errors = []
        for trial, reward in enumerate(tables):
            twin = MdpModel(num_states=5, num_actions=3,
                            transition=m.transition, reward=reward,
                            discount=0.95)
            try:
                value_iteration(twin, STANDARD, max_iter=2)
            except ConvergenceError as exc:
                errors.append((trial, exc))
        assert [trial for trial, _ in errors] == [1, 2]
        trial, first = errors[0]
        with pytest.raises(ConvergenceError) as exc:
            value_iteration(m, STANDARD, max_iter=2,
                            rewards=tables)
        assert exc.value.trial == trial
        assert str(exc.value) == str(first)
        assert np.array_equal(exc.value.residual, first.residual,
                              equal_nan=True)
        assert np.array_equal(exc.value.best.value, first.best.value,
                              equal_nan=True)
        assert exc.value.best.iterations == first.best.iterations


def test_stacked_solve_checks_its_reward_tables():
    m = random_mdp(5, 3, seed=7, discount=0.95)
    stack = np.zeros((3, 5, 3))
    stack[1, 2, 1] = np.inf
    stack[2, 0, 0] = np.nan
    with pytest.raises(ModelValidationError,
                       match=r"^reward not finite at \(s=2, a=1\)$"):
        value_iteration(m, STANDARD, rewards=stack)
    with pytest.raises(ModelValidationError, match="reward stack shape"):
        value_iteration(m, STANDARD, rewards=stack[0])
    assert value_iteration(m, STANDARD,
                           rewards=stack[:0]) == []


@pytest.mark.parametrize("call, field", [
    (lambda m: value_iteration(m, STANDARD, rewards="x"),
     "rewards"),
    (lambda m: policy_evaluation_exact(m, {"p": 1}), "policy"),
])
def test_outside_arrays_name_their_field(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be an array of "
                                         "numbers"):
        call(random_mdp(5, 3, seed=7))


def test_iteration_count_shrinks_with_looser_tol():
    m = random_mdp(5, 3, seed=7, discount=0.9)
    loose = value_iteration(m, STANDARD, tol=1e-4,
                            newton=False)
    tight = value_iteration(m, STANDARD, tol=1e-10,
                            newton=False)
    assert loose.iterations < tight.iterations


# -------------------------------------------------------------- randomness


def test_random_mdp_is_reproducible():
    a = random_mdp(4, 3, seed=42)
    b = random_mdp(4, 3, seed=42)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    c = random_mdp(4, 3, seed=43)
    assert not np.array_equal(a.reward, c.reward)


def test_random_mdp_respects_bounds():
    m = random_mdp(5, 4, seed=1, reward_range=(-3.0, -1.0), discount=0.7)
    assert np.all(m.reward >= -3.0) and np.all(m.reward <= -1.0)
    assert np.allclose(m.transition.sum(axis=2), 1.0)
    assert m.discount == 0.7


def test_random_mdp_names_a_bad_size():
    # a float count raised numpy's TypeError, a negative one numpy's
    # "negative dimensions are not allowed"
    for args, message in [((2.5, 3), "num_states must be a positive integer, "
                                     "got 2.5"),
                          ((2, -1), "num_actions must be a positive integer, "
                                    "got -1"),
                          ((True, 3), "num_states must be a positive "
                                      "integer, got True")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_mdp(*args, seed=0)
    assert random_mdp(np.int64(2), np.int32(3), seed=0).num_actions == 3


def test_derive_rng_streams():
    a = derive_rng(0, 1).random(4)
    b = derive_rng(0, 1).random(4)
    c = derive_rng(0, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # extra key levels give yet another stream
    d = derive_rng(0, 1, 0).random(4)
    assert not np.array_equal(a, d)


# ------------------------------------------------------------------ counts

M32 = random_mdp(3, 2, seed=1)
# entry point: (argument name, least value, call on a count, a valid count,
# whether None asks for the default); every count or seed from outside
# goes through core._count
COUNTS = {
    "random_mdp-num_states": (
        "num_states", 1, lambda n: random_mdp(n, 2, seed=1), 3, False),
    "random_mdp-num_actions": (
        "num_actions", 1, lambda n: random_mdp(3, n, seed=1), 2, False),
    "MdpModel-num_states": ("num_states", 1, lambda n: MdpModel(
        n, 2, M32.transition, M32.reward, 0.9), 3, False),
    "MdpModel-num_actions": ("num_actions", 1, lambda n: MdpModel(
        3, n, M32.transition, M32.reward, 0.9), 2, False),
    "value_iteration-max_iter": ("max_iter", 1, lambda n: value_iteration(
        M32, STANDARD, max_iter=n), 100, False),
    "StochasticInstance-mc_samples": ("mc_samples", 1, lambda n:
        StochasticInstance(M32, GumbelIid(1.0), mc_samples=n), 3, False),
    "StochasticInstance-seed": ("seed", 0, lambda n:
        StochasticInstance(M32, GumbelIid(1.0), seed=n), 0, False),
    "mc_emax-samples": ("samples", 1, lambda n: mc_emax(
        np.zeros(2), GumbelIid(1.0), samples=n, seed=0), 3, False),
    "mc_policy-samples": ("samples", 1, lambda n: mc_policy(
        np.zeros(2), GumbelIid(1.0), samples=n, seed=0), 3, False),
    "GumbelIid.sample-samples": ("samples", 1, lambda n: GumbelIid(
        1.0, num_actions=2).sample(0, n, derive_rng(0)), 3, False),
    "smdp_backup_operator-samples": ("samples", 1, lambda n:
        smdp_backup_operator(GumbelIid(1.0), n, 0), 3, False),
    "smdp_backup_operator-seed": ("seed", 0, lambda n:
        smdp_backup_operator(GumbelIid(1.0), 3, n), 0, False),
    "mc_counterexample_ratio-samples": ("samples", 1, lambda n:
        mc_counterexample_ratio(0.0, 0.25, samples=n), 3, False),
    "check_equivalence-trials": ("trials", 0, lambda n: check_equivalence(
        StandardInstance(M32), StandardInstance(M32), trials=n), 0, False),
    "grid_oracle_backup-resolution": ("resolution", 1, lambda n:
        grid_oracle_backup([1.0, 0.0], KlBall([0.5, 0.5], 0.1),
                           resolution=n), 10, True),
    "interior_policy_sweep-settings": ("settings", 1, lambda n:
        interior_policy_sweep(settings=n), 3, False),
    "GumbelIid-num_actions": ("num_actions", 1, lambda n:
        GumbelIid(1.0, num_actions=n), 2, True),
    "derive_rng-seed": ("seed", 0, lambda n: derive_rng(n, 1), 0, False),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_is_read_by_one_rule(entry):
    # before one rule: True ran one sweep or one draw, 2.5 and "3" raised
    # TypeError or were cut to 2, -1 raised numpy's message, and 0 returned
    # the reference row, inf or NaN shares
    name, low, call, valid, none_ok = COUNTS[entry]
    kind = "positive" if low else "nonnegative"
    bad = [True, np.True_, 2.5, "3", -1] + [None] * (not none_ok) \
        + [0] * low
    for x in bad:
        shown = repr(x) if isinstance(x, str) else x
        with pytest.raises(ValueError, match=f"^{name} must be a {kind} "
                                             f"integer, got {shown}$"):
            call(x)
    for x in (valid, np.int64(valid), np.uint8(valid)):
        call(x)


def test_a_numpy_integer_count_is_stored_as_an_int():
    counts = [_count(np.int64(3), "n"), _count(np.uint8(0), "seed", 0),
              random_mdp(np.int64(3), np.int32(2), seed=1).num_states,
              MdpModel(np.int64(3), np.int64(2), M32.transition, M32.reward,
                       0.9).num_actions,
              GumbelIid(1.0, num_actions=np.int64(2)).num_actions]
    inst = StochasticInstance(M32, GumbelIid(1.0), mc_samples=np.int64(5),
                              seed=np.int64(7))
    counts += [inst.mc_samples, inst.seed]
    assert [type(c) for c in counts] == [int] * len(counts)
    assert counts == [3, 0, 3, 2, 2, 5, 7]


# ------------------------------------------------------ operator properties


W_VECTORS = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                     min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(w=W_VECTORS, u=W_VECTORS)
def test_standard_backup_is_nonexpansive_and_monotone(w, u):
    w = np.array(w)
    u = np.array(u)
    vw, _ = standard_backup(w)
    vu, _ = standard_backup(u)
    assert abs(vw - vu) <= np.max(np.abs(w - u)) + 1e-12
    hi = np.maximum(w, u)
    vh, _ = standard_backup(hi)
    assert vh >= vw - 1e-12 and vh >= vu - 1e-12


@settings(max_examples=60, deadline=None)
@given(w=W_VECTORS, c=st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_standard_backup_translates_exactly(w, c):
    w = np.array(w)
    base, _ = standard_backup(w)
    shifted, _ = standard_backup(w + c)
    assert shifted == pytest.approx(base + c, abs=1e-12)


def test_sweep_is_gamma_contraction_on_random_models():
    rng = np.random.default_rng(5)
    for k in range(5):
        m = random_mdp(4, 3, seed=100 + k, discount=0.9)
        w = rng.uniform(-5, 5, 4)
        u = rng.uniform(-5, 5, 4)
        vw, _ = bellman_sweep(m, STANDARD, w)
        vu, _ = bellman_sweep(m, STANDARD, u)
        gap = np.max(np.abs(vw - vu))
        assert gap <= m.discount * np.max(np.abs(w - u)) + 1e-12

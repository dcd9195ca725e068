"""JSON file formats: model blocks, framework blocks, and exact round trips."""

import json

import numpy as np
import pytest
from util import tracemalloc_peak

from mdpkit import (
    ChiSquareLagrangeRegularizer,
    ConstrainedInstance,
    DistributionalInstance,
    EntropyRegularizer,
    ExponentialInverseCdf,
    FullSimplex,
    GaussianJoint,
    GumbelIid,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MarginalDistributionModel,
    MarginalMomentModel,
    CovarianceModel,
    MmmRegularizer,
    ModelValidationError,
    OffsetRegularizer,
    PhiBall,
    RegularizedInstance,
    Singleton,
    StandardInstance,
    StochasticInstance,
    UniformPerEntry,
    ZeroRegularizer,
    random_mdp,
)
from mdpkit.modelio import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_model,
    model_from_dict,
    model_to_dict,
    save_instance,
    save_model,
)


def base_model():
    return random_mdp(3, 2, seed=31, discount=0.85)


def roundtrip(instance):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))


# ------------------------------------------------------------- model blocks


def test_model_round_trip_is_exact(tmp_path):
    m = base_model()
    again = model_from_dict(model_to_dict(m))
    assert np.array_equal(m.transition, again.transition)
    assert np.array_equal(m.reward, again.reward)
    assert m.discount == again.discount
    path = tmp_path / "model.json"
    save_model(m, path)
    text = path.read_text()
    assert text.endswith("\n")
    third = load_model(path)
    assert np.array_equal(m.reward, third.reward)


def test_parsed_model_holds_one_kernel():
    data = model_to_dict(random_mdp(200, 10, seed=3))
    model, peak = tracemalloc_peak(model_from_dict, data)
    assert peak <= 1.1 * model.transition.nbytes
    assert not model.transition.flags.writeable


def test_model_file_is_sorted_and_stable(tmp_path):
    m = base_model()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(m, a)
    save_model(m, b)
    assert a.read_bytes() == b.read_bytes()
    keys = list(json.loads(a.read_text()).keys())
    assert keys == sorted(keys)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("discount"), "discount"),
    (lambda d: d.update(discount=1.2), "discount"),
    (lambda d: d.update(transition=[[0.5, 0.5]]), "transition"),
    (lambda d: d.update(num_states=7), ""),
    (lambda d: d.update(reward="zeros"), "reward"),
])
def test_malformed_model_blocks_are_rejected(mutate, fragment):
    d = model_to_dict(base_model())
    mutate(d)
    with pytest.raises(ModelValidationError) as exc:
        model_from_dict(d)
    if fragment:
        assert fragment in str(exc.value)


def test_unknown_framework_name_is_rejected():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "quantum"}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)


# -------------------------------------------------------- instance round trips


def test_standard_instance_round_trip():
    inst = StandardInstance(base_model())
    again = roundtrip(inst)
    assert isinstance(again, StandardInstance)
    assert np.array_equal(inst.model.reward, again.model.reward)


def test_regularized_instance_round_trip_per_state():
    phis = [EntropyRegularizer(0.7),
            KlRegularizer(1.1, np.array([0.25, 0.75])),
            OffsetRegularizer(EntropyRegularizer(0.4), -1.5)]
    inst = RegularizedInstance(base_model(), phis)
    again = roundtrip(inst)
    assert isinstance(again, RegularizedInstance)
    got = again.phi_per_state
    assert isinstance(got[0], EntropyRegularizer) and got[0].eta == 0.7
    assert isinstance(got[1], KlRegularizer)
    assert np.allclose(got[1].reference, [0.25, 0.75])
    assert isinstance(got[2], OffsetRegularizer) and got[2].offset == -1.5


def test_regularized_round_trip_mmm_and_covariance_kinds():
    phis = [MmmRegularizer(np.array([0.3, 0.5])),
            ChiSquareLagrangeRegularizer(0.8, np.array([0.6, 0.4]), 0.2),
            ZeroRegularizer()]
    inst = RegularizedInstance(base_model(), phis)
    got = roundtrip(inst).phi_per_state
    assert isinstance(got[0], MmmRegularizer)
    assert np.allclose(got[0].sigma, [0.3, 0.5])
    assert isinstance(got[1], ChiSquareLagrangeRegularizer)
    assert got[1].lam == 0.8 and got[1].radius == 0.2
    assert isinstance(got[2], ZeroRegularizer)


def test_stochastic_gumbel_round_trip():
    inst = StochasticInstance(base_model(), GumbelIid(0.9, num_actions=2))
    again = roundtrip(inst)
    assert isinstance(again.noise, GumbelIid)
    assert again.noise.eta == 0.9
    assert again.noise.location == 0.0


def test_stochastic_mean_zero_location_string():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "stochastic",
                      "noise": {"kind": "gumbel_iid", "eta": 0.5,
                                "location": "mean_zero"}}
    inst = instance_from_dict(d)
    assert inst.noise.location == pytest.approx(-0.5 * np.euler_gamma)
    # serialization writes the resolved numeric location
    block = instance_to_dict(inst)["framework"]["noise"]
    assert isinstance(block["location"], float)


def test_stochastic_uniform_and_gaussian_round_trip():
    m = base_model()
    bounds = np.zeros((3, 2, 2))
    bounds[0, 0] = [-0.5, 0.5]
    uni = roundtrip(StochasticInstance(m, UniformPerEntry(bounds)))
    assert isinstance(uni.noise, UniformPerEntry)
    assert np.array_equal(uni.noise.bounds, bounds)
    cov = np.broadcast_to(0.2 * np.eye(2), (3, 2, 2)).copy()
    gau = roundtrip(StochasticInstance(m, GaussianJoint(cov)))
    assert isinstance(gau.noise, GaussianJoint)
    assert np.allclose(gau.noise.cov, cov)


def test_distributional_families_round_trip():
    m = base_model()
    mdm = MarginalDistributionModel([[ExponentialInverseCdf(1.3)] * 2] * 3)
    got = roundtrip(DistributionalInstance(m, mdm))
    assert isinstance(got.ambiguity, MarginalDistributionModel)
    assert got.ambiguity.inverse_cdfs[0][0].rate == 1.3
    mmm = MarginalMomentModel(np.full((3, 2), 0.4))
    got = roundtrip(DistributionalInstance(m, mmm))
    assert np.allclose(got.ambiguity.sigma, 0.4)
    cov = CovarianceModel(np.broadcast_to(0.1 * np.eye(2), (3, 2, 2)).copy())
    got = roundtrip(DistributionalInstance(m, cov))
    assert np.allclose(got.ambiguity.matrices, cov.matrices)


def test_tabulated_and_other_cdf_families_round_trip():
    d = model_to_dict(base_model())
    d["framework"] = {
        "name": "distributional",
        "ambiguity": {"kind": "mdm", "family": "tabulated",
                      "t": [0.25, 0.75], "values": [-1.0, 1.0]},
    }
    inst = instance_from_dict(d)
    cdf = inst.ambiguity.inverse_cdfs[0][0]
    assert cdf(0.5) == 0.0
    again = roundtrip(inst)
    assert np.array_equal(again.ambiguity.inverse_cdfs[1][1].values, [-1.0, 1.0])


def test_heterogeneous_mdm_table_has_no_file_form():
    m = base_model()
    rows = [[ExponentialInverseCdf(1.0)] * 2,
            [ExponentialInverseCdf(2.0)] * 2,
            [ExponentialInverseCdf(3.0)] * 2]
    inst = DistributionalInstance(m, MarginalDistributionModel(rows))
    with pytest.raises(ValueError):
        instance_to_dict(inst)


def test_constrained_instance_round_trip_all_kinds():
    cons = [KlBall(np.array([0.5, 0.5]), 0.2),
            L1Ball(np.array([0.25, 0.75]), 0.3),
            PhiBall(EntropyRegularizer(0.9), -0.4)]
    inst = ConstrainedInstance(base_model(), cons)
    got = roundtrip(inst).constraints
    assert isinstance(got[0], KlBall) and got[0].radius == 0.2
    assert isinstance(got[1], L1Ball)
    assert isinstance(got[2], PhiBall)
    assert isinstance(got[2].phi, EntropyRegularizer)
    assert got[2].radius == -0.4
    more = [L2ChiSquareBall(np.array([0.5, 0.5]), 0.6),
            Singleton(np.array([0.1, 0.9])),
            FullSimplex()]
    got = roundtrip(ConstrainedInstance(base_model(), more)).constraints
    assert isinstance(got[0], L2ChiSquareBall)
    assert isinstance(got[1], Singleton)
    assert np.allclose(got[1].row, [0.1, 0.9])
    assert isinstance(got[2], FullSimplex)


def test_broadcast_framework_block():
    # a single block broadcasts to every state; solving matches the
    # explicitly per-state form
    d = model_to_dict(base_model())
    d["framework"] = {"name": "regularized",
                      "regularizer": {"kind": "entropy", "eta": 0.5}}
    single = instance_from_dict(d)
    assert isinstance(single.phi_per_state, EntropyRegularizer)
    d["framework"]["regularizer"] = [{"kind": "entropy", "eta": 0.5}] * 3
    listed = instance_from_dict(d)
    a = single.solve()
    b = listed.solve()
    assert np.array_equal(a.value, b.value)


def test_wrong_per_state_count_is_rejected():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "regularized",
                      "regularizer": [{"kind": "entropy", "eta": 0.5}] * 2}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)


def test_unknown_kinds_are_rejected():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "regularized",
                      "regularizer": {"kind": "ridge", "eta": 1.0}}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)
    d["framework"] = {"name": "constrained",
                      "constraint": {"kind": "polytope"}}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)
    d["framework"] = {"name": "stochastic",
                      "noise": {"kind": "cauchy"}}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)


def test_missing_required_field_is_rejected():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "regularized",
                      "regularizer": {"kind": "kl", "eta": 1.0}}  # no reference
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)


# ------------------------------------------------------------------- files


def test_instance_file_round_trip(tmp_path):
    inst = RegularizedInstance(base_model(), [EntropyRegularizer(0.6)] * 3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert isinstance(again, RegularizedInstance)
    assert again.phi_per_state[2].eta == 0.6
    assert np.array_equal(again.model.transition, inst.model.transition)


def test_malformed_json_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises((ModelValidationError, ValueError)):
        load_model(path)


def test_loader_passes_mc_settings_through():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "stochastic",
                      "noise": {"kind": "gumbel_iid", "eta": 1.0}}
    inst = instance_from_dict(d, mc_samples=777, seed=5)
    assert inst.mc_samples == 777
    assert inst.seed == 5

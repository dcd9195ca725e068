"""JSON file formats: model blocks, framework blocks, and exact round trips."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import tracemalloc_peak

from mdpkit import (
    ChiSquareLagrangeRegularizer,
    ConjugateResult,
    ConstrainedInstance,
    CovarianceRegularizer,
    DistributionalInstance,
    AffineRegularizer,
    EntropyRegularizer,
    ExponentialInverseCdf,
    GaussianJoint,
    GumbelIid,
    GumbelInverseCdf,
    KlBall,
    KlRegularizer,
    L1Ball,
    L2ChiSquareBall,
    MarginalDistributionModel,
    MarginalMomentModel,
    CovarianceModel,
    MdmRegularizer,
    MdpModel,
    MmmRegularizer,
    ModelValidationError,
    PhiBall,
    RegularizedInstance,
    StandardInstance,
    StochasticInstance,
    TabulatedInverseCdf,
    UniformInverseCdf,
    UniformPerEntry,
    ZeroRegularizer,
    ct_to_r_convert,
    random_mdp,
)
from mdpkit import modelio
from mdpkit.cli import main
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
    tiny = model_to_dict(random_mdp(5, 3, seed=1))
    model, peak = tracemalloc_peak(model_from_dict, data, warm=(tiny,))
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


@pytest.mark.parametrize("key, value", [
    ("num_states", True), ("num_states", 0), ("num_actions", 2.0),
    ("num_actions", "2"), ("num_actions", None)])
def test_a_bad_count_in_a_model_file_is_named(key, value):
    # true loaded as a one-state model; 0 and 2.0 were rejected without
    # the field's name
    d = model_to_dict(base_model())
    d[key] = value
    shown = repr(value) if isinstance(value, str) else value
    with pytest.raises(ValueError, match=f"^{key} must be a positive "
                                         f"integer, got {shown}$"):
        model_from_dict(d)


def test_a_model_built_from_numpy_counts_saves_and_reloads(tmp_path):
    # the counts were kept as np.int64, which json cannot write: save_model
    # raised TypeError and left a truncated file
    m = random_mdp(np.int64(3), np.int64(2), seed=1)
    path = tmp_path / "m.json"
    save_model(m, path)
    again = load_model(path)
    assert (again.num_states, again.num_actions) == (3, 2)
    assert np.array_equal(again.transition, m.transition)
    assert np.array_equal(again.reward, m.reward)


def test_unknown_framework_name_is_rejected():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "quantum"}
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)


@pytest.mark.parametrize("framework", [{}, False, 0, [], ""],
                         ids=["empty-object", "false", "zero", "empty-list",
                              "empty-string"])
def test_a_falsy_framework_block_is_rejected_not_read_as_standard(framework):
    # only a missing or null block means a standard model
    d = model_to_dict(base_model())
    d["framework"] = framework
    with pytest.raises(ModelValidationError):
        instance_from_dict(d)
    d["framework"] = None
    assert isinstance(instance_from_dict(d), StandardInstance)


# -------------------------------------------------------- instance round trips


def test_standard_instance_round_trip():
    inst = StandardInstance(base_model())
    again = roundtrip(inst)
    assert isinstance(again, StandardInstance)
    assert np.array_equal(inst.model.reward, again.model.reward)


def test_regularized_instance_round_trip_per_state():
    phis = [EntropyRegularizer(0.7),
            KlRegularizer(1.1, np.array([0.25, 0.75])),
            AffineRegularizer(EntropyRegularizer(0.4), offset=-1.5)]
    inst = RegularizedInstance(base_model(), phis)
    again = roundtrip(inst)
    assert isinstance(again, RegularizedInstance)
    got = again.phi_per_state
    assert isinstance(got[0], EntropyRegularizer) and got[0].eta == 0.7
    assert isinstance(got[1], KlRegularizer)
    assert np.allclose(got[1].reference, [0.25, 0.75])
    assert isinstance(got[2], AffineRegularizer) and got[2].offset == -1.5


def test_regularized_round_trip_mmm_and_covariance_kinds():
    phis = [MmmRegularizer(np.array([0.3, 0.5])),
            ChiSquareLagrangeRegularizer(0.8, np.array([0.6, 0.4]), 0.2),
            ZeroRegularizer()]
    inst = RegularizedInstance(base_model(), phis)
    got = roundtrip(inst).phi_per_state
    assert isinstance(got[0], MmmRegularizer)
    assert np.allclose(got[0].sigma, [0.3, 0.5])
    assert isinstance(got[1], ChiSquareLagrangeRegularizer)
    assert got[1].multiplier == 0.8 and got[1].radius == 0.2
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
            L1Ball(np.array([0.1, 0.9]), 0.0),
            ZeroRegularizer()]
    got = roundtrip(ConstrainedInstance(base_model(), more)).constraints
    assert isinstance(got[0], L2ChiSquareBall)
    assert isinstance(got[1], L1Ball) and got[1].radius == 0.0
    assert np.allclose(got[1].reference, [0.1, 0.9])
    assert isinstance(got[2], ZeroRegularizer)


def test_one_zero_regularizer_is_the_full_set_and_the_zero_regularizer():
    # phi = 0 is the indicator of the whole simplex: one object, whose
    # block kind is its role in the file
    zero = ZeroRegularizer()
    as_set = ConstrainedInstance(base_model(), zero)
    as_phi = RegularizedInstance(base_model(), zero)
    assert instance_to_dict(as_set)["framework"]["constraint"] == \
        {"kind": "full"}
    assert instance_to_dict(as_phi)["framework"]["regularizer"] == \
        {"kind": "zero"}
    assert type(roundtrip(as_set).constraints) is ZeroRegularizer
    assert type(roundtrip(as_phi).phi_per_state) is ZeroRegularizer
    ball = roundtrip(ConstrainedInstance(base_model(),
                                         PhiBall(zero, 0.0))).constraints
    assert type(ball) is PhiBall and type(ball.phi) is ZeroRegularizer
    assert ball.radius == 0.0


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


# ------------------------------------------------------------ schema tables

GOLDEN = Path(__file__).parent / "data" / "modelio_golden.json"

# table -> (its name in modelio, the framework key that holds its block)
TABLES = {"regularizer": ("_REGULARIZERS", "regularizer"),
          "noise": ("_NOISES", "noise"),
          "family": ("_FAMILIES", "ambiguity"),
          "ambiguity": ("_AMBIGUITIES", "ambiguity"),
          "constraint": ("_CONSTRAINTS", "constraint")}


def golden_model():
    return MdpModel(num_states=2, num_actions=2,
                    transition=np.array([[[0.5, 0.5], [1.0, 0.0]],
                                         [[0.25, 0.75], [0.0, 1.0]]]),
                    reward=np.array([[1.0, 0.0], [0.5, -1.0]]),
                    discount=0.9)


def _mdm(cdf):
    return DistributionalInstance(golden_model(),
                                  MarginalDistributionModel([[cdf] * 2] * 2))


def _regularized(phi):
    return RegularizedInstance(golden_model(), phi)


def _stochastic(noise):
    return StochasticInstance(golden_model(), noise)


def _constrained(con):
    return ConstrainedInstance(golden_model(), con)


COV = np.array([[[1.0, 0.5], [0.5, 2.0]], [[0.25, 0.0], [0.0, 0.5]]])

# one instance per block kind, named "<table>/<kind>", and a few more forms
CASES = {
    "standard": lambda: StandardInstance(golden_model()),
    "regularizer/entropy": lambda: _regularized(EntropyRegularizer(0.5)),
    "regularizer/kl": lambda: _regularized(KlRegularizer(1.5, [0.25, 0.75])),
    "regularizer/mmm": lambda: _regularized(MmmRegularizer([0.5, 0.25])),
    "regularizer/covariance": lambda: _regularized(
        CovarianceRegularizer(COV[0])),
    "regularizer/chi_square_lagrange": lambda: _regularized(
        ChiSquareLagrangeRegularizer(0.75, [0.5, 0.5], 0.125)),
    "regularizer/zero": lambda: _regularized(ZeroRegularizer()),
    "regularizer/scaled-offset-per-state": lambda: _regularized(
        [AffineRegularizer(EntropyRegularizer(1.0), 2.0),
         AffineRegularizer(AffineRegularizer(KlRegularizer(0.5, [0.5, 0.5]),
                                             0.25), offset=-1.5)]),
    "noise/gumbel_iid": lambda: _stochastic(GumbelIid(0.5, location=0.25)),
    "noise/gumbel_iid-mean_zero": lambda: StochasticInstance(
        golden_model(), GumbelIid.mean_zero(0.5), mc_samples=500,
        method="closed_form"),
    "noise/uniform": lambda: _stochastic(UniformPerEntry(
        [[[-0.5, 0.5], [0.0, 1.0]], [[-1.0, -0.5], [0.25, 0.25]]])),
    "noise/gaussian": lambda: _stochastic(GaussianJoint(COV)),
    "family/exponential": lambda: _mdm(ExponentialInverseCdf(2.0)),
    "family/uniform": lambda: _mdm(UniformInverseCdf(-1.0, 0.5)),
    "family/gumbel": lambda: _mdm(GumbelInverseCdf(0.75)),
    "family/tabulated": lambda: _mdm(TabulatedInverseCdf([0.25, 0.75],
                                                         [-1.0, 1.5])),
    "ambiguity/mmm": lambda: DistributionalInstance(
        golden_model(), MarginalMomentModel([[0.5, 0.25], [0.0, 1.0]])),
    "ambiguity/covariance": lambda: DistributionalInstance(
        golden_model(), CovarianceModel(COV)),
    "constraint/kl_ball": lambda: _constrained(KlBall([0.25, 0.75], 0.125)),
    "constraint/l1_ball": lambda: _constrained(L1Ball([0.5, 0.5], 0.5)),
    "constraint/l2_ball": lambda: _constrained(
        L2ChiSquareBall([0.75, 0.25], 0.25)),
    "constraint/full": lambda: _constrained(ZeroRegularizer()),
    "constraint/phi_ball": lambda: _constrained(
        PhiBall(EntropyRegularizer(0.5), -0.25)),
    "constraint/per-state": lambda: _constrained(
        [KlBall([0.5, 0.5], 0.25), PhiBall(ZeroRegularizer(), 0.0)]),
}

TABLE_KINDS = [(t, kind) for t, (attr, _) in TABLES.items()
               for kind in getattr(modelio, attr)]
REQUIRED_FIELDS = [(t, kind, field[0]) for t, (attr, _) in TABLES.items()
                   for kind, (_, fields) in getattr(modelio, attr).items()
                   for field in fields if len(field) == 1]


def test_cases_cover_every_table_kind():
    assert {f"{t}/{kind}" for t, kind in TABLE_KINDS} \
        == {name for name in CASES if "/" in name and "-" not in name}


@pytest.mark.parametrize("table,kind", TABLE_KINDS)
def test_every_table_kind_round_trips(table, kind):
    inst = CASES[f"{table}/{kind}"]()
    data = instance_to_dict(inst)
    block = data["framework"][TABLES[table][1]]
    assert block["family" if table == "family" else "kind"] == kind
    again = roundtrip(inst)
    assert type(again) is type(inst)
    assert instance_to_dict(again) == data


@pytest.mark.parametrize("table,kind,key", REQUIRED_FIELDS)
def test_missing_field_message_names_the_field(table, kind, key):
    data = instance_to_dict(CASES[f"{table}/{kind}"]())
    del data["framework"][TABLES[table][1]][key]
    with pytest.raises(ModelValidationError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == f"{kind} block is missing required field {key!r}"


# every field of every block kind, scalars, arrays, defaulted fields and
# the phi ball's nested block alike, read from the tables
ALL_FIELDS = [(t, kind, field[0]) for t, (attr, _) in TABLES.items()
              for kind, (_, fields) in getattr(modelio, attr).items()
              for field in fields]
WRONG_TYPES = {"object": {"a": 1}, "string": "ab", "ragged": [[1, 2], [3]],
               "null": None}


@pytest.mark.parametrize("wrong", sorted(WRONG_TYPES))
@pytest.mark.parametrize("table,kind,key", ALL_FIELDS)
def test_a_wrong_type_in_any_field_exits_2_with_one_record(table, kind, key,
                                                           wrong, tmp_path,
                                                           capsys):
    # an object in an array field exited 1 with a TypeError and no record,
    # and a string or a ragged list printed numpy's message, naming no field
    data = instance_to_dict(CASES[f"{table}/{kind}"]())
    data["framework"][TABLES[table][1]][key] = WRONG_TYPES[wrong]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    # json.loads refuses a second document after the first
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["kind"] == "validation"
    assert record["message"].startswith(f"{key} ")


# the fields of a legacy "singleton" block with a malformed row, and the
# start of its record's message
LEGACY_ROWS = {
    **{wrong: ({"row": value}, "reference must be an array of numbers")
       for wrong, value in WRONG_TYPES.items()},
    "sum": ({"row": [0.5, 0.6]}, "reference is not a probability vector"),
    "missing": ({}, "singleton block is missing required field 'row'"),
}


@pytest.mark.parametrize("name", sorted(LEGACY_ROWS))
def test_a_malformed_legacy_singleton_row_exits_2_naming_a_field(
        name, tmp_path, capsys):
    # a legacy "singleton" block is read as the L1 ball of radius 0 around
    # its row, so its row is checked, and named, as the ball's reference
    fields, message = LEGACY_ROWS[name]
    data = {**model_to_dict(golden_model()), "framework": {
        "name": "constrained", "constraint": {"kind": "singleton", **fields}}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["kind"] == "validation"
    assert record["message"].startswith(message)


def test_mean_zero_location_still_requires_eta():
    d = model_to_dict(base_model())
    d["framework"] = {"name": "stochastic",
                      "noise": {"kind": "gumbel_iid", "location": "mean_zero"}}
    with pytest.raises(ModelValidationError,
                       match="gumbel_iid block is missing required field 'eta'"):
        instance_from_dict(d)


@pytest.mark.parametrize("name", sorted(CASES))
def test_saved_file_matches_frozen_text(name, tmp_path):
    # a table entry that writes another key, value or nesting than the
    # frozen file fails here; loading the frozen file and saving it again
    # gives the same bytes
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    path = tmp_path / "inst.json"
    save_instance(CASES[name](), path)
    assert path.read_bytes() == golden.encode("utf-8")
    path.write_bytes(golden.encode("utf-8"))
    save_instance(load_instance(path), path)
    assert path.read_bytes() == golden.encode("utf-8")


# ------------------------------------------------- affine wrapper file form

# one regularizer of every kind at 3 actions; dyadic rows, so that the
# reader's cleaning of a written row gives back its bits
AFFINE_BASES = {
    "entropy": EntropyRegularizer(0.5),
    "kl": KlRegularizer(1.5, [0.25, 0.25, 0.5]),
    "mmm": MmmRegularizer([0.5, 0.25, 0.75]),
    "covariance": CovarianceRegularizer([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25],
                                         [0.0, 0.25, 0.5]]),
    "chi_square_lagrange": ChiSquareLagrangeRegularizer(
        0.75, [0.25, 0.25, 0.5], 0.125),
    "zero": ZeroRegularizer(),
}


def test_affine_bases_cover_every_regularizer_kind():
    assert set(AFFINE_BASES) == set(modelio._REGULARIZERS)


# one marginal of every "mdm" family kind, each the marginal of all three
# actions of one MdmRegularizer
FAMILY_MARGINALS = {
    "exponential": ExponentialInverseCdf(2.0),
    "uniform": UniformInverseCdf(-1.0, 0.5),
    "gumbel": GumbelInverseCdf(0.75),
    "tabulated": TabulatedInverseCdf([0.25, 0.75], [-1.0, 1.5]),
}


# one feasible set of every constraint kind at 2 actions, as a block
SET_BLOCKS = {
    "kl_ball": {"reference": [0.5, 0.5], "radius": 0.1},
    "l1_ball": {"reference": [0.5, 0.5], "radius": 0.4},
    "l2_ball": {"reference": [0.5, 0.5], "radius": 0.1},
    "full": {},
    "phi_ball": {"phi": {"kind": "entropy", "eta": 0.5}, "radius": -0.2},
}

W2, W3 = np.array([1.0, -0.5]), np.array([0.5, -1.25, 0.75])
# (object, w) of every file kind: each regularizer kind, an MDM regularizer
# of each marginal family, and each feasible set read from its block
CONJUGATES = {
    **{"regularizer/" + kind: (phi, W3) for kind, phi in AFFINE_BASES.items()},
    **{"family/" + family: (MdmRegularizer([cdf] * 3), W3)
       for family, cdf in FAMILY_MARGINALS.items()},
    **{"constraint/" + kind: (modelio.constraint_from_dict(
        {"kind": kind, **block}), W2) for kind, block in SET_BLOCKS.items()},
}


@pytest.mark.parametrize("name", sorted(CONJUGATES))
def test_every_file_kind_answers_one_conjugate(name):
    assert set(FAMILY_MARGINALS) == set(modelio._FAMILIES)
    assert set(SET_BLOCKS) == set(modelio._CONSTRAINTS)
    obj, w = CONJUGATES[name]
    res = obj.conjugate(w)
    # a feasible-set backup is the conjugate of the set's indicator: the
    # regularizers' result, with phi = 0 on the set (a set has no `value`)
    assert type(res) is ConjugateResult
    phi = getattr(obj, "value", lambda p: 0.0)
    want = float(w @ res.argmax) + phi(res.argmax)
    assert abs(res.value - want) <= 1e-12 * max(1.0, abs(res.value))
    role, kind = name.split("/")
    if role != "constraint":
        return
    assert res.value == pytest.approx(float(w @ res.argmax), abs=1e-12)
    assert obj.violation(res.argmax) <= 1e-9
    assert obj.violation(np.array([res.argmax] * 2)).shape == (2,)
    assert hasattr(obj, "dual_note") == (kind in ("l1_ball", "l2_ball"))
    m = random_mdp(2, 2, seed=34, discount=0.8)
    if hasattr(obj, "penalty"):
        ct_to_r_convert(m, obj)
    else:
        assert kind == "l1_ball"
        with pytest.raises(ValueError, match="conversion needs a single "
                           f"smooth constraint with interior, not "
                           f"{type(obj).__name__}"):
            ct_to_r_convert(m, obj)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(AFFINE_BASES)),
       layers=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-5.0, 5.0)),
                       min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_nested_affine_wrappers_write_one_block(kind, layers, seed):
    # s2 (s1 phi + c1) + c2 is written as one "scale" and "offset"
    phi = AFFINE_BASES[kind]
    for scale, offset in layers:
        phi = AffineRegularizer(phi, scale, offset)
    block = json.loads(json.dumps(modelio.regularizer_to_dict(phi)))
    assert block["kind"] == kind
    again = modelio.regularizer_from_dict(block)
    w = np.random.default_rng(seed).uniform(-5.0, 5.0, 3)
    want, got = phi.conjugate(w), again.conjugate(w)
    if len(layers) == 1:
        assert got.value == want.value
        assert np.array_equal(got.argmax, want.argmax)
    assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))
    assert np.max(np.abs(got.argmax - want.argmax)) <= 1e-8


def test_a_converted_affine_phi_ball_reads_back_and_solves(tmp_path):
    # ct2r of a phi ball over scale * entropy + offset: its penalty nests
    # two wrappers, which had no file form
    m = random_mdp(3, 2, seed=5, discount=0.5)
    phi = AffineRegularizer(EntropyRegularizer(0.5), 2.0, 0.1)
    conv = ct_to_r_convert(m, PhiBall(phi, -0.6), tol=1e-12)
    assert np.all(conv.multipliers > 0)
    path = tmp_path / "converted.json"
    save_instance(RegularizedInstance(m, conv.regularizers), path)
    blocks = json.loads(path.read_text())["framework"]["regularizer"]
    assert [sorted(b) for b in blocks] == [["eta", "kind", "offset",
                                            "scale"]] * 3
    back = load_instance(path).solve(tol=1e-12)
    assert np.max(np.abs(back.value - conv.ct_value)) <= 1e-8

"""JSON file formats for models and framework instances.

A model file is a UTF-8 JSON object with integer `num_states` and
`num_actions`, real `discount`, nested `reward[s][a]`, and nested
`transition[s][a][s']`.  An optional `framework` object tags the model with
one framework's structure:

    {"name": "standard"}
    {"name": "regularized", "regularizer": <block> | [<block> per state]}
    {"name": "stochastic", "noise": <block>, "mc_samples"?: int,
     "method"?: "auto" | "closed_form" | "mc"}
    {"name": "distributional", "ambiguity": <block>}
    {"name": "constrained", "constraint": <block> | [<block> per state]}

Loading re-validates everything and raises ModelValidationError on any
violation, so malformed files surface as validation failures rather than
stack traces.
"""

from __future__ import annotations

import json

import numpy as np

from .constrained import (ChiSquareLagrangeRegularizer, FullSimplex, KlBall,
                          L1Ball, L2ChiSquareBall, PhiBall, Singleton,
                          ZeroRegularizer)
from .core import MdpModel, ModelValidationError
from .distributional import (CovarianceModel, CovarianceRegularizer,
                             ExponentialInverseCdf, GumbelInverseCdf,
                             MarginalDistributionModel, MarginalMomentModel,
                             MmmRegularizer, TabulatedInverseCdf,
                             UniformInverseCdf)
from .equivalence import (ConstrainedInstance, DistributionalInstance,
                          FrameworkInstance, RegularizedInstance,
                          StandardInstance, StochasticInstance)
from .regularized import (EntropyRegularizer, KlRegularizer, OffsetRegularizer,
                          ScaledRegularizer)
from .stochastic import GaussianJoint, GumbelIid, UniformPerEntry


def _fail(message):
    raise ModelValidationError([message])


def _require(mapping, key, context):
    if not isinstance(mapping, dict):
        _fail(f"{context} must be an object, got {type(mapping).__name__}")
    if key not in mapping:
        _fail(f"{context} is missing required field {key!r}")
    return mapping[key]


def model_from_dict(data) -> MdpModel:
    num_states = _require(data, "num_states", "model")
    num_actions = _require(data, "num_actions", "model")
    if not isinstance(num_states, int) or not isinstance(num_actions, int):
        _fail("num_states and num_actions must be integers")
    try:
        # fresh arrays, frozen, so the model shares them instead of copying
        transition = np.array(_require(data, "transition", "model"),
                              dtype=float)
        reward = np.array(_require(data, "reward", "model"), dtype=float)
    except (TypeError, ValueError) as exc:
        _fail(f"reward/transition arrays are malformed: {exc}")
    transition.setflags(write=False)
    reward.setflags(write=False)
    return MdpModel(num_states=num_states, num_actions=num_actions,
                    transition=transition, reward=reward,
                    discount=float(_require(data, "discount", "model")))


def model_to_dict(model) -> dict:
    return {"num_states": model.num_states,
            "num_actions": model.num_actions,
            "discount": model.discount,
            "reward": model.reward.tolist(),
            "transition": model.transition.tolist()}


# -- regularizer blocks -------------------------------------------------

def regularizer_from_dict(block):
    kind = _require(block, "kind", "regularizer block")
    if kind == "entropy":
        phi = EntropyRegularizer(float(_require(block, "eta", "entropy block")))
    elif kind == "kl":
        phi = KlRegularizer(float(_require(block, "eta", "kl block")),
                            _require(block, "reference", "kl block"))
    elif kind == "mmm":
        phi = MmmRegularizer(np.asarray(_require(block, "sigma", "mmm block"),
                                        dtype=float))
    elif kind == "covariance":
        phi = CovarianceRegularizer(np.asarray(_require(block, "cov",
                                                        "covariance block"),
                                               dtype=float))
    elif kind == "chi_square_lagrange":
        phi = ChiSquareLagrangeRegularizer(
            float(_require(block, "multiplier", "chi_square_lagrange block")),
            _require(block, "reference", "chi_square_lagrange block"),
            float(_require(block, "radius", "chi_square_lagrange block")))
    elif kind == "zero":
        phi = ZeroRegularizer()
    else:
        _fail(f"unknown regularizer kind {kind!r}")
    scale = block.get("scale", 1.0)
    if scale != 1.0:
        phi = ScaledRegularizer(phi, float(scale))
    offset = block.get("offset", 0.0)
    if offset:
        phi = OffsetRegularizer(phi, float(offset))
    return phi


def regularizer_to_dict(phi) -> dict:
    offset = scale = 0.0
    if isinstance(phi, OffsetRegularizer):
        offset = phi.offset
        phi = phi.base
    if isinstance(phi, ScaledRegularizer):
        scale = phi.scale
        phi = phi.base
    if isinstance(phi, EntropyRegularizer):
        block = {"kind": "entropy", "eta": phi.eta}
    elif isinstance(phi, KlRegularizer):
        block = {"kind": "kl", "eta": phi.eta,
                 "reference": phi.reference.tolist()}
    elif isinstance(phi, MmmRegularizer):
        block = {"kind": "mmm", "sigma": phi.sigma.tolist()}
    elif isinstance(phi, CovarianceRegularizer):
        block = {"kind": "covariance", "cov": phi.cov.tolist()}
    elif isinstance(phi, ChiSquareLagrangeRegularizer):
        block = {"kind": "chi_square_lagrange", "multiplier": phi.lam,
                 "reference": phi.reference.tolist(), "radius": phi.radius}
    elif isinstance(phi, ZeroRegularizer):
        block = {"kind": "zero"}
    else:
        raise ValueError(f"{type(phi).__name__} has no file form")
    if scale:
        block["scale"] = scale
    if offset:
        block["offset"] = offset
    return block


# -- noise blocks --------------------------------------------------------

def noise_from_dict(block):
    kind = _require(block, "kind", "noise block")
    if kind == "gumbel_iid":
        location = block.get("location", 0.0)
        if location == "mean_zero":
            return GumbelIid.mean_zero(float(_require(block, "eta",
                                                      "gumbel block")))
        return GumbelIid(float(_require(block, "eta", "gumbel block")),
                         location=float(location))
    if kind == "uniform":
        return UniformPerEntry(np.asarray(_require(block, "bounds",
                                                   "uniform block"),
                                          dtype=float))
    if kind == "gaussian":
        return GaussianJoint(np.asarray(_require(block, "cov",
                                                 "gaussian block"),
                                        dtype=float))
    _fail(f"unknown noise kind {kind!r}")


def noise_to_dict(noise) -> dict:
    if isinstance(noise, GumbelIid):
        return {"kind": "gumbel_iid", "eta": noise.eta,
                "location": noise.location}
    if isinstance(noise, UniformPerEntry):
        return {"kind": "uniform", "bounds": noise.bounds.tolist()}
    if isinstance(noise, GaussianJoint):
        return {"kind": "gaussian", "cov": noise.cov.tolist()}
    raise ValueError(f"{type(noise).__name__} has no file form")


# -- ambiguity blocks ----------------------------------------------------

def _cdf_from_family(block):
    family = _require(block, "family", "mdm block")
    if family == "exponential":
        return ExponentialInverseCdf(float(block.get("rate", 1.0)))
    if family == "uniform":
        return UniformInverseCdf(float(block.get("lo", 0.0)),
                                 float(block.get("hi", 1.0)))
    if family == "gumbel":
        return GumbelInverseCdf(float(block.get("scale", 1.0)))
    if family == "tabulated":
        return TabulatedInverseCdf(_require(block, "t", "tabulated mdm block"),
                                   _require(block, "values",
                                            "tabulated mdm block"))
    _fail(f"unknown mdm family {family!r}")


def ambiguity_from_dict(block, num_states, num_actions):
    kind = _require(block, "kind", "ambiguity block")
    if kind == "mdm":
        cdf = _cdf_from_family(block)
        return MarginalDistributionModel([[cdf] * num_actions] * num_states)
    if kind == "mmm":
        return MarginalMomentModel(np.asarray(_require(block, "sigma",
                                                       "mmm block"),
                                              dtype=float))
    if kind == "covariance":
        return CovarianceModel(np.asarray(_require(block, "matrices",
                                                   "covariance block"),
                                          dtype=float))
    _fail(f"unknown ambiguity kind {kind!r}")


def _cdf_to_family(cdf) -> dict:
    if isinstance(cdf, ExponentialInverseCdf):
        return {"family": "exponential", "rate": cdf.rate}
    if isinstance(cdf, UniformInverseCdf):
        return {"family": "uniform", "lo": cdf.lo, "hi": cdf.hi}
    if isinstance(cdf, GumbelInverseCdf):
        return {"family": "gumbel", "scale": cdf.scale}
    if isinstance(cdf, TabulatedInverseCdf):
        return {"family": "tabulated", "t": cdf.t.tolist(),
                "values": cdf.values.tolist()}
    raise ValueError(f"{type(cdf).__name__} has no file form")


def ambiguity_to_dict(ambiguity) -> dict:
    if isinstance(ambiguity, MarginalDistributionModel):
        families = [_cdf_to_family(c) for row in ambiguity.inverse_cdfs
                    for c in row]
        if any(f != families[0] for f in families):
            raise ValueError("only a shared marginal family has a file form")
        return {"kind": "mdm", **families[0]}
    if isinstance(ambiguity, MarginalMomentModel):
        return {"kind": "mmm", "sigma": ambiguity.sigma.tolist()}
    if isinstance(ambiguity, CovarianceModel):
        return {"kind": "covariance", "matrices": ambiguity.matrices.tolist()}
    raise ValueError(f"{type(ambiguity).__name__} has no file form")


# -- constraint blocks ---------------------------------------------------

def constraint_from_dict(block):
    kind = _require(block, "kind", "constraint block")
    if kind == "kl_ball":
        return KlBall(np.asarray(_require(block, "reference", "kl_ball"),
                                 dtype=float),
                      float(_require(block, "radius", "kl_ball")))
    if kind == "l1_ball":
        return L1Ball(np.asarray(_require(block, "reference", "l1_ball"),
                                 dtype=float),
                      float(_require(block, "radius", "l1_ball")))
    if kind == "l2_ball":
        return L2ChiSquareBall(np.asarray(_require(block, "reference",
                                                   "l2_ball"), dtype=float),
                               float(_require(block, "radius", "l2_ball")))
    if kind == "singleton":
        return Singleton(np.asarray(_require(block, "row", "singleton"),
                                    dtype=float))
    if kind == "full":
        return FullSimplex()
    if kind == "phi_ball":
        return PhiBall(regularizer_from_dict(_require(block, "phi",
                                                      "phi_ball")),
                       float(_require(block, "radius", "phi_ball")))
    _fail(f"unknown constraint kind {kind!r}")


def constraint_to_dict(constraint) -> dict:
    if isinstance(constraint, KlBall):
        return {"kind": "kl_ball", "reference": constraint.reference.tolist(),
                "radius": constraint.radius}
    if isinstance(constraint, L1Ball):
        return {"kind": "l1_ball", "reference": constraint.reference.tolist(),
                "radius": constraint.radius}
    if isinstance(constraint, L2ChiSquareBall):
        return {"kind": "l2_ball", "reference": constraint.reference.tolist(),
                "radius": constraint.radius}
    if isinstance(constraint, Singleton):
        return {"kind": "singleton", "row": constraint.row.tolist()}
    if isinstance(constraint, FullSimplex):
        return {"kind": "full"}
    if isinstance(constraint, PhiBall):
        return {"kind": "phi_ball", "phi": regularizer_to_dict(constraint.phi),
                "radius": constraint.radius}
    raise ValueError(f"{type(constraint).__name__} has no file form")


# -- framework instances -------------------------------------------------

def _per_state(block, parse, num_states, what):
    if isinstance(block, list):
        if len(block) != num_states:
            _fail(f"per-state {what} list has {len(block)} entries "
                  f"for {num_states} states")
        return [parse(b) for b in block]
    return parse(block)


def instance_from_dict(data, mc_samples=100000, seed=0) -> FrameworkInstance:
    model = model_from_dict(data)
    framework = data.get("framework") or {"name": "standard"}
    name = _require(framework, "name", "framework block")
    if name == "standard":
        return StandardInstance(model)
    if name == "regularized":
        phis = _per_state(_require(framework, "regularizer", "framework"),
                          regularizer_from_dict, model.num_states,
                          "regularizer")
        return RegularizedInstance(model, phis)
    if name == "stochastic":
        noise = noise_from_dict(_require(framework, "noise", "framework"))
        return StochasticInstance(model, noise,
                                  mc_samples=framework.get("mc_samples",
                                                           mc_samples),
                                  seed=seed,
                                  method=framework.get("method", "auto"))
    if name == "distributional":
        ambiguity = ambiguity_from_dict(
            _require(framework, "ambiguity", "framework"),
            model.num_states, model.num_actions)
        return DistributionalInstance(model, ambiguity)
    if name == "constrained":
        sets = _per_state(_require(framework, "constraint", "framework"),
                          constraint_from_dict, model.num_states, "constraint")
        return ConstrainedInstance(model, sets)
    _fail(f"unknown framework name {name!r}")


def instance_to_dict(instance) -> dict:
    data = model_to_dict(instance.model)
    if isinstance(instance, StandardInstance):
        data["framework"] = {"name": "standard"}
    elif isinstance(instance, RegularizedInstance):
        phis = instance.phi_per_state
        block = [regularizer_to_dict(p) for p in phis] \
            if isinstance(phis, (list, tuple)) else regularizer_to_dict(phis)
        data["framework"] = {"name": "regularized", "regularizer": block}
    elif isinstance(instance, StochasticInstance):
        data["framework"] = {"name": "stochastic",
                             "noise": noise_to_dict(instance.noise),
                             "mc_samples": instance.mc_samples,
                             "method": instance.method}
    elif isinstance(instance, DistributionalInstance):
        data["framework"] = {"name": "distributional",
                             "ambiguity": ambiguity_to_dict(instance.ambiguity)}
    elif isinstance(instance, ConstrainedInstance):
        sets = instance.constraints
        block = [constraint_to_dict(c) for c in sets] \
            if isinstance(sets, (list, tuple)) else constraint_to_dict(sets)
        data["framework"] = {"name": "constrained", "constraint": block}
    else:
        raise ValueError(f"{type(instance).__name__} has no file form")
    return data


def load_instance(path, mc_samples=100000, seed=0) -> FrameworkInstance:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _fail(f"{path} must hold a top-level object")
    return instance_from_dict(data, mc_samples=mc_samples, seed=seed)


def load_model(path) -> MdpModel:
    return load_instance(path).model


def save_instance(instance, path):
    data = instance_to_dict(instance)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model, path):
    save_instance(StandardInstance(model), path)

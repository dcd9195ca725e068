"""JSON file formats for models and framework instances.

A model file is a UTF-8 JSON object with integer `num_states` and
`num_actions`, real `discount`, nested `reward[s][a]`, and nested
`transition[s][a][s']`.  An optional `framework` object tags the model with
one framework's structure; a missing or null one is standard:

    {"name": "standard"}
    {"name": "regularized", "regularizer": <block> | [<block> per state]}
    {"name": "stochastic", "noise": <block>, "mc_samples"?: int,
     "method"?: "auto" | "closed_form" | "mc"}
    {"name": "distributional", "ambiguity": <block>}
    {"name": "constrained", "constraint": <block> | [<block> per state]}

Each <block> is an object whose "kind" names a class; its field keys are
listed once, in the tables `_REGULARIZERS`, `_NOISES`, `_FAMILIES` (the
marginal families of an "mdm" ambiguity block), `_AMBIGUITIES` and
`_CONSTRAINTS`, which drive both the reader and the writer.  A key is also
the class's attribute, and the class reads its value: a scalar through
`core._param`, an array through `core._array`.  Malformed files surface as
validation failures (ModelValidationError, or the class's ValueError naming
the field) rather than stack traces.
"""

from __future__ import annotations

import json

import numpy as np

from .constrained import (ChiSquareLagrangeRegularizer, KlBall, L1Ball,
                          L2ChiSquareBall, PhiBall, Singleton, ZeroRegularizer)
from .core import MdpModel, ModelValidationError, _param, _per_state
from .distributional import (CovarianceModel, CovarianceRegularizer,
                             ExponentialInverseCdf, GumbelInverseCdf,
                             MarginalDistributionModel, MarginalMomentModel,
                             MmmRegularizer, TabulatedInverseCdf,
                             UniformInverseCdf)
from .equivalence import (ConstrainedInstance, DistributionalInstance,
                          FrameworkInstance, RegularizedInstance,
                          StandardInstance, StochasticInstance)
from .regularized import (AffineRegularizer, EntropyRegularizer,
                          KlRegularizer, Regularizer)
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
                    discount=_param(_require(data, "discount", "model"),
                                    "discount"))


def model_to_dict(model) -> dict:
    return {"num_states": model.num_states,
            "num_actions": model.num_actions,
            "discount": model.discount,
            "reward": model.reward.tolist(),
            "transition": model.transition.tolist()}


# -- block schemas ------------------------------------------------------
#
# Each table maps a kind to (class, fields).  A field is (key,) or (key,
# default): the file key, which is also the class's attribute.  The reader
# passes the fields to the class in order, as given, so that the class's
# own `_param` or `_array` check reads each one and names it; the writer
# reads the attributes back, arrays as lists and a nested regularizer as
# its block.

_REGULARIZERS = {
    "entropy": (EntropyRegularizer, [("eta",)]),
    "kl": (KlRegularizer, [("eta",), ("reference",)]),
    "mmm": (MmmRegularizer, [("sigma",)]),
    "covariance": (CovarianceRegularizer, [("cov",)]),
    "chi_square_lagrange": (ChiSquareLagrangeRegularizer,
                            [("multiplier",), ("reference",), ("radius",)]),
    "zero": (ZeroRegularizer, []),
}

_NOISES = {
    # "location": "mean_zero" is resolved by `noise_from_dict`
    "gumbel_iid": (GumbelIid, [("eta",), ("location", 0.0)]),
    "uniform": (UniformPerEntry, [("bounds",)]),
    "gaussian": (GaussianJoint, [("cov",)]),
}

_FAMILIES = {
    "exponential": (ExponentialInverseCdf, [("rate", 1.0)]),
    "uniform": (UniformInverseCdf, [("lo", 0.0), ("hi", 1.0)]),
    "gumbel": (GumbelInverseCdf, [("scale", 1.0)]),
    "tabulated": (TabulatedInverseCdf, [("t",), ("values",)]),
}

_AMBIGUITIES = {
    "mmm": (MarginalMomentModel, [("sigma",)]),
    "covariance": (CovarianceModel, [("matrices",)]),
}


def _read(table, block, what, tag="kind"):
    kind = _require(block, tag, f"{what} block")
    if not isinstance(kind, str) or kind not in table:
        _fail(f"unknown {what} {tag} {kind!r}")
    cls, fields = table[kind]
    return cls(*[block.get(key, *default) if default
                 else _require(block, key, f"{kind} block")
                 for key, *default in fields])


def _write(table, obj, tag="kind"):
    for kind, (cls, fields) in table.items():
        if isinstance(obj, cls):
            block = {tag: kind}
            for key, *_ in fields:
                value = getattr(obj, key)
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                elif isinstance(value, Regularizer):
                    value = regularizer_to_dict(value)
                block[key] = value
            return block
    raise ValueError(f"{type(obj).__name__} has no file form")


def regularizer_from_dict(block, what="regularizer"):
    phi = _read(_REGULARIZERS, block, what)
    scale, offset = block.get("scale", 1.0), block.get("offset", 0.0)
    if scale != 1.0 or offset:
        phi = AffineRegularizer(phi, scale, offset)
    return phi


def regularizer_to_dict(phi) -> dict:
    """phi's block; nested affine wrappers fold into one "scale" and
    "offset": s2 (s1 phi + c1) + c2 is s1 s2 phi + s2 c1 + c2."""
    scale, offset = 1.0, 0.0
    while isinstance(phi, AffineRegularizer):
        scale, offset = scale * phi.scale, offset + scale * phi.offset
        phi = phi.base
    block = _write(_REGULARIZERS, phi)
    if scale != 1.0:
        block["scale"] = scale
    if offset:
        block["offset"] = offset
    return block


def noise_from_dict(block):
    if isinstance(block, dict) and block.get("kind") == "gumbel_iid" \
            and block.get("location") == "mean_zero":
        return GumbelIid.mean_zero(_read(_NOISES, {**block, "location": 0.0},
                                         "noise").eta)
    return _read(_NOISES, block, "noise")


def noise_to_dict(noise) -> dict:
    return _write(_NOISES, noise)


def ambiguity_from_dict(block, num_states, num_actions):
    if isinstance(block, dict) and block.get("kind") == "mdm":
        cdf = _read(_FAMILIES, block, "mdm", tag="family")
        return MarginalDistributionModel([[cdf] * num_actions] * num_states)
    return _read(_AMBIGUITIES, block, "ambiguity")


def ambiguity_to_dict(ambiguity) -> dict:
    if isinstance(ambiguity, MarginalDistributionModel):
        families = [_write(_FAMILIES, c, tag="family")
                    for row in ambiguity.inverse_cdfs for c in row]
        if any(f != families[0] for f in families):
            raise ValueError("only a shared marginal family has a file form")
        return {"kind": "mdm", **families[0]}
    return _write(_AMBIGUITIES, ambiguity)


_BALL = [("reference",), ("radius",)]
_CONSTRAINTS = {
    "kl_ball": (KlBall, _BALL),
    "l1_ball": (L1Ball, _BALL),
    "l2_ball": (L2ChiSquareBall, _BALL),
    "singleton": (Singleton, [("row",)]),
    "full": (ZeroRegularizer, []),
    # the nested "phi" block is read by `constraint_from_dict`
    "phi_ball": (PhiBall, [("phi",), ("radius",)]),
}


def constraint_from_dict(block):
    if isinstance(block, dict) and block.get("kind") == "phi_ball" \
            and "phi" in block:
        block = {**block, "phi": regularizer_from_dict(block["phi"], "phi")}
    return _read(_CONSTRAINTS, block, "constraint")


def constraint_to_dict(constraint) -> dict:
    return _write(_CONSTRAINTS, constraint)


# -- framework instances -------------------------------------------------

def _each(convert, block, num_states=None, what=None):
    """convert of each entry of a per-state block, or of the one block."""
    if _per_state(block, num_states, what):
        return [convert(b) for b in block]
    return convert(block)


def instance_from_dict(data, mc_samples=100000, seed=0) -> FrameworkInstance:
    model = model_from_dict(data)
    framework = data.get("framework")
    name = ("standard" if framework is None
            else _require(framework, "name", "framework block"))
    if name == "standard":
        return StandardInstance(model)
    if name == "regularized":
        phis = _each(regularizer_from_dict,
                     _require(framework, "regularizer", "framework"),
                     model.num_states, "regularizer")
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
        sets = _each(constraint_from_dict,
                     _require(framework, "constraint", "framework"),
                     model.num_states, "constraint")
        return ConstrainedInstance(model, sets)
    _fail(f"unknown framework name {name!r}")


def framework_to_dict(instance) -> dict:
    """The "framework" block of an instance's file form."""
    if isinstance(instance, StandardInstance):
        return {"name": "standard"}
    if isinstance(instance, RegularizedInstance):
        return {"name": "regularized", "regularizer": _each(
            regularizer_to_dict, instance.phi_per_state)}
    if isinstance(instance, StochasticInstance):
        return {"name": "stochastic", "noise": noise_to_dict(instance.noise),
                "mc_samples": instance.mc_samples, "method": instance.method}
    if isinstance(instance, DistributionalInstance):
        return {"name": "distributional",
                "ambiguity": ambiguity_to_dict(instance.ambiguity)}
    if isinstance(instance, ConstrainedInstance):
        return {"name": "constrained", "constraint": _each(
            constraint_to_dict, instance.constraints)}
    raise ValueError(f"{type(instance).__name__} has no file form")


def instance_to_dict(instance) -> dict:
    return {**model_to_dict(instance.model),
            "framework": framework_to_dict(instance)}


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

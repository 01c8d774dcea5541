"""Seven classifier families behind one train/score contract.

``fit(algorithm, X, y, params, seed)`` returns a TrainedModel whose
``predict_scores`` output always lies in [0, 1]; ``predict_labels`` applies the
strict ``score > threshold`` rule. Models serialize to a versioned JSON
document that round-trips bit-exactly (JSON floats carry Python's shortest
repr, which reconstructs the same float64). Format 2 stores each tree of a DT,
RF or GBT as the flat node lists of ``trees.Tree``, which checks them again on
load; a format-1 file (nested nodes) is refused. Each algorithm is one
``FAMILIES`` record; adding an algorithm means one module plus one entry there.

Every hyperparameter, and every ``RunConfig`` field, declares what it accepts
once: its type in the annotation, its bounds (``gt``, ``ge``, ``lt``, ``le``)
and extra accepted values (``choices``) in its field metadata. ``check_fields``
is the one validator that reads them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import typing
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from . import boosting, linear, neighbors, neural, svm, trees

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class Family:
    """Everything the shared contract needs to know about one algorithm.

    ``fit(X, y, params, seed)`` returns ``(state, meta)``; ``predict(state, X)``
    returns raw scores. ``state`` is a dataclass with an ``n_features``
    attribute; its field names are the keys of the model file's ``state`` object.
    """

    params: type
    state: type
    fit: typing.Callable
    predict: typing.Callable
    needs_both_classes: bool  # the objective is undefined on a single class


FAMILIES = {
    "LR": Family(linear.LRParams, linear.LRState, linear.fit_lr, linear.predict_lr, True),
    "DT": Family(trees.DTParams, trees.DTState, trees.fit_dt, trees.predict_dt, False),
    "RF": Family(trees.RFParams, trees.RFState, trees.fit_rf, trees.predict_rf, False),
    "KNN": Family(neighbors.KNNParams, neighbors.KNNState, neighbors.fit_knn,
                  neighbors.predict_knn, False),
    "MLP": Family(neural.MLPParams, neural.MLPState, neural.fit_mlp, neural.predict_mlp, True),
    "SVC": Family(svm.SVCParams, svm.SVCState, svm.fit_svc, svm.predict_svc, True),
    "GBT": Family(boosting.GBTParams, boosting.GBTState, boosting.fit_gbt,
                  boosting.predict_gbt, True),
}

ALGORITHMS = tuple(FAMILIES)


def _family(algorithm: str) -> Family:
    if algorithm not in FAMILIES:
        raise TrainingError(f"unknown algorithm {algorithm!r}; supported: {ALGORITHMS}")
    return FAMILIES[algorithm]


@dataclass
class TrainedModel:
    algorithm: str
    hyperparams: dict
    seed: int
    state: object
    meta: dict

    @property
    def n_features(self) -> int:
        return self.state.n_features


_BOUNDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
           "lt": ("<", operator.lt), "le": ("<=", operator.le)}


def _accepts(kind, meta, value) -> bool:
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:  # a non-empty list; a fixed-length one is lo <= hi
        return (isinstance(value, (tuple, list)) and len(value) > 0
                and all(_accepts(args[0], meta, v) for v in value)
                and (args[-1] is Ellipsis or (len(value) == len(args)
                                              and list(value) == sorted(value))))
    if value is None:
        return type(None) in args
    kind = args[0] if args else kind
    if value in meta.get("choices", ()):
        return True
    if kind is str or isinstance(value, bool) != (kind is bool):
        return False  # strings only from choices; a bool is no number
    if not isinstance(value, (int, float) if kind is float else kind):
        return False  # an int is a float as given, and stays an int
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return all(op(value, meta[key]) for key, (_, op) in _BOUNDS.items() if key in meta)


def describe(kind, meta) -> str:
    """The values ``_accepts`` takes, in words: '"scale" or float > 0', 'int >= 1 or null'."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        inner = describe(args[0], meta)
        return (f"non-empty list of {inner}" if args[-1] is Ellipsis
                else f"[lo, hi] of {inner}, lo <= hi")
    words = [json.dumps(c) for c in meta.get("choices", ())]
    base = args[0] if args else kind
    if base is not str:
        bounds = " and ".join(f"{sym} {meta[key]}" for key, (sym, _) in _BOUNDS.items()
                              if key in meta)
        words.append(f"{base.__name__} {bounds}".rstrip())
    return " or ".join(words + ["null"] * (type(None) in args))


def check_fields(obj, error, prefix: str = "") -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` whose value its
    annotation and metadata do not accept. Values are never converted."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _accepts(hints[f.name], f.metadata, value):
            key = ".".join(filter(None, f.metadata.get("json", (None, f.name))))
            raise error(f"{prefix}{key} must be {describe(hints[f.name], f.metadata)}, "
                        f"got {value!r}")


def resolve_params(algorithm: str, params=None, **overrides):
    """Build and check the algorithm's parameter dataclass from a dict/dataclass/overrides."""
    cls = _family(algorithm).params
    if params is None:
        params = cls(**overrides)
    elif isinstance(params, cls):
        params = dataclasses.replace(params, **overrides) if overrides else params
    elif isinstance(params, dict):
        merged = {**params, **overrides}
        bad = set(merged) - {f.name for f in dataclasses.fields(cls)}
        if bad:
            raise TrainingError(f"unknown {algorithm} hyperparameters: {sorted(bad)}")
        params = cls(**merged)
    else:
        raise TrainingError(f"cannot interpret params {params!r}")
    check_fields(params, TrainingError, f"{algorithm} ")
    return params


def _validate_training_input(algorithm, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise TrainingError("X must be 2-D and aligned with y")
    if X.shape[0] < 1:
        raise TrainingError("empty training set")
    if not np.all(np.isfinite(X)):
        raise TrainingError("non-finite feature values")
    if not np.isin(y, (0, 1)).all():
        raise TrainingError("labels must be binary 0/1")
    y = y.astype(np.float64)
    if FAMILIES[algorithm].needs_both_classes and (y.min() == y.max()):
        raise TrainingError(f"{algorithm} requires both classes in the training data")
    return X, y


def fit(algorithm: str, X, y, params=None, seed: int = 0, **overrides) -> TrainedModel:
    p = resolve_params(algorithm, params, **overrides)
    X, y = _validate_training_input(algorithm, X, y)
    state, meta = FAMILIES[algorithm].fit(X, y, p, seed)
    return TrainedModel(algorithm, dataclasses.asdict(p), seed, state, meta)


def predict_scores(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise TrainingError(
            f"feature dimension {X.shape[1] if X.ndim == 2 else '?'} does not match "
            f"the {model.n_features} the model was trained on")
    scores = FAMILIES[model.algorithm].predict(model.state, X)
    return np.clip(scores, 0.0, 1.0)


def predict_labels(scores, threshold: float = 0.5) -> np.ndarray:
    """Label 1 iff score is strictly above the threshold."""
    scores = np.asarray(scores)
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise TrainingError("scores must lie in [0, 1]")
    return (scores > threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _decode(kind, value):
    if typing.get_origin(kind) is list:
        return [_decode(typing.get_args(kind)[0], v) for v in value]
    if kind is np.ndarray:
        return np.array(value, dtype=np.float64)
    if dataclasses.is_dataclass(kind):  # a record inside a state (a tree) types its own arrays
        return kind(**{f.name: value[f.name] for f in dataclasses.fields(kind)})
    return kind(value)


def _state_from_dict(cls, d: dict):
    kinds = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(kinds[f.name], d[f.name]) for f in dataclasses.fields(cls)})


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "state": _encode(model.state),
        "meta": {k: v for k, v in model.meta.items() if k != "loss_curve"},
    }


def model_from_dict(d: dict) -> TrainedModel:
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise TrainingError(f"unsupported model format {d.get('format_version')!r}")
    algorithm = d["algorithm"]
    return TrainedModel(algorithm, d["hyperparams"], d["seed"],
                        _state_from_dict(_family(algorithm).state, d["state"]), dict(d["meta"]))


def save_model(path, model: TrainedModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

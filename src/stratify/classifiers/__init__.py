"""Seven classifier families behind one train/score contract.

``fit(algorithm, X, y, params, seed)`` returns a TrainedModel whose
``predict_scores`` output always lies in [0, 1]; ``predict_labels`` applies the
strict ``score > threshold`` rule. Models serialize to a versioned JSON
document that round-trips bit-exactly (JSON floats carry Python's shortest
repr, which reconstructs the same float64). Each algorithm is one ``FAMILIES``
record; adding an algorithm means one module plus one entry there.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from . import boosting, linear, neighbors, neural, svm, trees
from .trees import TreeNode

MODEL_FORMAT_VERSION = 1


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


def resolve_params(algorithm: str, params=None, **overrides):
    """Build the algorithm's parameter dataclass from a dict/dataclass/overrides."""
    cls = _family(algorithm).params
    if params is None:
        return cls(**overrides)
    if isinstance(params, cls):
        return dataclasses.replace(params, **overrides) if overrides else params
    if isinstance(params, dict):
        merged = {**params, **overrides}
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(merged) - known
        if bad:
            raise TrainingError(f"unknown {algorithm} hyperparameters: {sorted(bad)}")
        return cls(**merged)
    raise TrainingError(f"cannot interpret params {params!r}")


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
    if isinstance(value, TreeNode):
        return value.to_dict()
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _decode(kind, value):
    if kind is np.ndarray:
        return np.array(value, dtype=np.float64)
    if kind is TreeNode:
        return TreeNode.from_dict(value)
    if kind == list[TreeNode]:
        return [TreeNode.from_dict(v) for v in value]
    return kind(value)


def _state_to_dict(state) -> dict:
    return {f.name: _encode(getattr(state, f.name)) for f in dataclasses.fields(state)}


def _state_from_dict(cls, d: dict):
    kinds = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(kinds[f.name], d[f.name]) for f in dataclasses.fields(cls)})


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "state": _state_to_dict(model.state),
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

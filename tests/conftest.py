import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).resolve().parents[1]

from stratify.dataset import Feature, FeatureSchema, LabeledDataset
from stratify.evaluation import ConfusionMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def tiny_schema(p=3):
    feats = tuple(Feature(f"x{i}", "continuous", "behavior") for i in range(p))
    return FeatureSchema(feats, outcome="label")


def make_dataset(X, y, schema=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return LabeledDataset(X, y, schema or tiny_schema(X.shape[1]))


def random_labeled(rng, n=60, p=3, pos_rate=0.4):
    X = rng.normal(size=(n, p))
    y = (rng.random(n) < pos_rate).astype(np.int64)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == len(y):
        y[0] = 0
    return make_dataset(X, y)


def summed(cms):
    """Cell-by-cell sum of confusion matrices."""
    return ConfusionMatrix(*(sum(getattr(c, cell) for c in cms)
                             for cell in ("tp", "fp", "fn", "tn")))


def stdout_at_blas_threads(argv, threads=(1, 2)):
    """Run ``python *argv`` from the repository root once per BLAS thread count,
    side by side, with this checkout's ``src`` first on the path; return the
    standard outputs in order."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, *argv], cwd=REPO, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": str(t), "OMP_NUM_THREADS": str(t)})
             for t in threads]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err[-2000:]
        outs.append(out)
    return outs

import pathlib

import numpy as np
import pytest

from fairbound import fairness
from fairbound.dataset import CellSpec, Dataset, SyntheticSpec, synthesize


def make_dataset(features, sensitive, labels, num_labels=2, num_sensitive=2):
    """Dataset from raw arrays; the intercept must already be present."""
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        sensitive=np.asarray(sensitive),
        labels=np.asarray(labels),
        label_values=tuple(str(v) for v in range(num_labels)),
        sensitive_values=tuple(str(v) for v in range(num_sensitive)),
        feature_names=tuple(f"f{j}" for j in range(features.shape[1] - 1)),
    )


def random_dataset(rng, n, p=3, num_labels=2, num_sensitive=2, cover_cells=True):
    """Random dataset; with cover_cells every (label, sensitive) cell gets
    at least one example so no zero-mass convention kicks in."""
    if cover_cells:
        base_y, base_s = np.meshgrid(np.arange(num_labels), np.arange(num_sensitive))
        base_y, base_s = base_y.ravel(), base_s.ravel()
        extra = n - base_y.size
        assert extra >= 0
        labels = np.concatenate([base_y, rng.integers(0, num_labels, extra)])
        sensitive = np.concatenate([base_s, rng.integers(0, num_sensitive, extra)])
    else:
        labels = rng.integers(0, num_labels, n)
        sensitive = rng.integers(0, num_sensitive, n)
    features = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))])
    return make_dataset(features, sensitive, labels, num_labels, num_sensitive)


def group_accuracies(m, d, part):
    """Per-group accuracies of one model and the mask of empty groups, from
    the scorer's per-cell correct counts summed into ``part``'s groups."""
    cell_map = fairness._cell_map(part, d)
    counts = fairness._correct_counts(m.weights[None], d)[0]
    return fairness._accuracies(counts @ cell_map, part)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, fence: str = "```\n") -> str:
    """The first fenced block under ``heading`` in README.md."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"{heading}\n", 1)[1].split(fence, 1)[1].split("```\n", 1)[0]


def two_blob_spec(per_cell=250, p=2, gap=2.0, skew=0.6):
    """Separable synthetic task: labels split along the first axis, the
    sensitive attribute nudges the second."""
    cells = {}
    for label in (0, 1):
        for sens in (0, 1):
            mean = np.zeros(p)
            mean[0] = gap if label == 0 else -gap
            if p > 1:
                mean[1] = skew * (1 if sens == 1 else -1) * (1 if label == 0 else -1)
            cells[(label, sens)] = CellSpec(count=per_cell, mean=mean, cov=np.ones(p))
    return SyntheticSpec(num_features=p, cells=cells)


@pytest.fixture
def desk_data():
    return synthesize(two_blob_spec(per_cell=250), seed=123)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

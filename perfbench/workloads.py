"""Workload definitions, shared by run.py and child.py."""

from dataclasses import dataclass

TILE = 16
MODEL_SEED = 0


@dataclass(frozen=True)
class SweepSpec:
    """Bundled Iris, sigma Monte-Carlo sweep over every sample."""

    n_trees: int
    max_depth: int
    grid: tuple
    trials: int


@dataclass(frozen=True)
class ValidateSpec:
    """One gaussian_blobs draw split into training and evaluation sets,
    then the equivalence check of ``camforest validate``."""

    n_features: int
    n_trees: int
    max_depth: int
    n_train: int
    n_eval: int
    n_classes: int = 4


WORKLOADS = {
    "iris_sigma_sweep": SweepSpec(15, 4, (0.0, 0.02, 0.05, 0.1), 50),
    "blobs16_validate": ValidateSpec(16, 32, 6, 2000, 5000),
    "wide64_validate": ValidateSpec(64, 64, 8, 2000, 5000),
    # Shapes small enough for the benchmark's own tests.
    "tiny_sweep": SweepSpec(3, 3, (0.0, 0.05), 2),
    "tiny_validate": ValidateSpec(8, 4, 4, 200, 300),
}

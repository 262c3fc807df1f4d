"""Long-tailed classification lab: difficulty-driven loss weighting with a
bilevel meta objective, classic re-weighting baselines, and a seeded
experiment harness.

The package level holds the harness entry points; the numerics, the
difficulty heads, the bilevel loop and the baselines are importable from
their submodules (ltlab.nnet, ltlab.difficulty, ltlab.metatrain,
ltlab.baselines)."""

from .harness import ConfigError, ExperimentConfig, build_datasets, parse_config, run, train_one
from .metatrain import NumericError

__all__ = ["ConfigError", "ExperimentConfig", "NumericError", "build_datasets", "parse_config",
           "run", "train_one"]

"""Training substrate: synthetic data, optimizer, numeric training loop."""

from .data import SyntheticCorpus
from .loop import (
    ReoptimizingTrainer,
    ReplanEvent,
    StepResult,
    Trainer,
)
from .optimizer import SGD

__all__ = [
    "SGD",
    "ReoptimizingTrainer",
    "ReplanEvent",
    "StepResult",
    "SyntheticCorpus",
    "Trainer",
]

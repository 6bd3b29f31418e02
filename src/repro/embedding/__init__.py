"""Embedding core: configs, epoch distribution, trainers, GOSH pipeline, VERSE baseline."""

from .checkpoint import (
    CheckpointMismatchError,
    CheckpointPolicy,
    ResumeState,
    TrainingInterrupted,
    latest_checkpoint,
)
from .config import CONFIGURATIONS, FAST, NO_COARSE, NORMAL, SLOW, GoshConfig, get_config
from .epochs import distribute_epochs, learning_rate_schedule, per_epoch_learning_rate
from .gosh import GoshEmbedder, GoshResult, embed
from .trainer import LevelTrainer, TrainingStats, init_embedding
from .verse import VerseConfig, VerseResult, verse_embed

__all__ = [
    "CheckpointMismatchError",
    "CheckpointPolicy",
    "ResumeState",
    "TrainingInterrupted",
    "latest_checkpoint",
    "CONFIGURATIONS",
    "FAST",
    "NO_COARSE",
    "NORMAL",
    "SLOW",
    "GoshConfig",
    "get_config",
    "distribute_epochs",
    "learning_rate_schedule",
    "per_epoch_learning_rate",
    "GoshEmbedder",
    "GoshResult",
    "embed",
    "LevelTrainer",
    "TrainingStats",
    "init_embedding",
    "VerseConfig",
    "VerseResult",
    "verse_embed",
]

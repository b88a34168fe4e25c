"""Pansharpening with a heterogeneous spatial-spectral patch graph."""

__version__ = "0.1.0"

from .config import TrainConfig
from .imaging import Image, ScenePair, synth_scene, wald_degrade

__all__ = [
    "Image",
    "ScenePair",
    "TrainConfig",
    "synth_scene",
    "wald_degrade",
    "__version__",
]

"""Training and model hyperparameter configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .imaging import BANDS
from .patterns import MAX_PATTERNS

ABLATION_MODES = ("full", "local-only", "global-only")
MAX_PARAMS = 1 << 24  # learned values a model may hold: 64 MiB in float32


@dataclass
class TrainConfig:
    """Every knob of the pipeline, with the defaults used by the experiments.

    Values merge in three layers: these defaults, then a key = value config
    file, then explicit command-line flags.
    """

    # model geometry
    patch: int = 8          # patch side p
    stride: int = 4         # patch stride
    d: int = 64             # node feature width
    layers: int = 2         # propagation depth l
    k: int = 8              # neighbours per node in spatial/spectral relations

    # losses
    gamma: float = 0.01     # contrastive weight
    tau: float = 0.5        # contrastive temperature

    # optimisation
    lr0: float = 1e-4
    decay: float = 0.85
    decay_every: int = 3000
    iters: int = 30000
    batch: int = 4

    # run control
    seed: int = 0
    precision: str = "standard"   # standard (float32) | high (float64)
    ablate: str = "full"          # full | local-only | global-only

    @property
    def dtype(self):
        return np.float64 if self.precision == "high" else np.float32

    @property
    def param_count(self) -> int:
        """The total size of the arrays of ``aggregation.param_layout``."""
        d, p2 = self.d, self.patch * self.patch
        return (1 + 3 * BANDS) * d * p2 + 2 * (self.layers + 1) * d * d + 4 * d + 2 * MAX_PATTERNS

    def validate(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.patch < 1 or self.stride < 1 or self.stride > self.patch:
            raise ValueError("need 1 <= stride <= patch")
        if self.d < 1 or self.layers < 1 or self.k < 1:
            raise ValueError("d, layers and k must be positive")
        if self.param_count > MAX_PARAMS:  # checked before any array is built
            raise ValueError(f"the model would hold {self.param_count} parameters, more than {MAX_PARAMS}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.lr0 <= 0 or not (0 < self.decay <= 1) or self.decay_every < 1:
            raise ValueError("bad learning-rate schedule")
        if self.iters < 1 or self.batch < 1:
            raise ValueError("iters and batch must be positive")
        if self.precision not in ("standard", "high"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.ablate not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {self.ablate!r}")
        return self

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)

    @classmethod
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def coerce(cls, name: str, raw: str):
        """Parse a raw string (config file / CLI) into the field's type."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        if name not in types:
            raise ValueError(f"unknown config key {name!r}")
        t = types[name]
        if t == "int":
            return int(raw)
        if t == "float":
            return float(raw)
        return raw

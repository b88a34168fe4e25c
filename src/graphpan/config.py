"""Training and model hyperparameter configuration."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .imaging import BANDS
from .patterns import MAX_PATTERNS

ABLATION_MODES = ("full", "local-only", "global-only")
MAX_PARAMS = 1 << 24  # learned values a model may hold: 64 MiB in float32

_INIT_PATTERNS = 3  # disjoint relation supports give three singleton patterns


def param_layout(cfg: TrainConfig) -> dict:
    """The learned arrays, written once: for each
    :class:`aggregation.ModelParams` field, in field order, a (shape, init)
    pair; one matrix per node kind or band is one stacked array, and each
    aggregation branch has one (d, d) map.
    ``init`` is "glorot" (bound from the last two dims, so a stack draws as
    its matrices in turn), "recon" (uniform in [-0.02, 0.02), or zeros for
    a zero head) or a constant fill value.

    importance_w, _b and _q are the W, b and q of
    :func:`aggregation.weigh_branches`; the scorer's hidden width 2d is, at
    the default d = 64, the 128 of HAN's semantic attention, and q = 0
    weighs both branches 1/2.
    """
    d, p2 = cfg.d, cfg.patch * cfg.patch
    return {
        "w_embed": ((1 + BANDS, d, p2), "glorot"),
        "alpha": ((MAX_PATTERNS,), 1.0 / _INIT_PATTERNS),
        "beta": ((MAX_PATTERNS,), 1.0),
        "w_local": ((d, d), "glorot"),
        "w_global": ((d, d), "glorot"),
        "recon": ((BANDS, p2, 2 * d), "recon"),
        "importance_w": ((2 * d, d), "glorot"),
        "importance_b": ((2 * d,), 0.0),
        "importance_q": ((2 * d, 1), 0.0),
    }


@dataclass
class TrainConfig:
    """The settings of the pipeline, with the defaults used by the experiments.

    Values merge from three sources: these defaults, then a key = value config
    file, then explicit command-line flags; each command takes only the
    fields it reads.  The rate's step decay is not a field: it is
    ``training.LR_DECAY`` every ``training.LR_DECAY_EVERY`` iterations.
    """

    # model geometry
    patch: int = 8          # patch side p
    stride: int = 4         # patch stride
    d: int = 64             # node feature width
    k: int = 8              # neighbours per node in spatial/spectral relations

    # losses
    gamma: float = 0.01     # contrastive weight

    # optimisation
    lr0: float = 1e-4
    iters: int = 30000
    batch: int = 4

    # run control
    seed: int = 0
    ablate: str = "full"    # full | local-only | global-only

    @property
    def param_count(self) -> int:
        """The total size of the arrays of :func:`param_layout`."""
        return sum(math.prod(shape) for shape, _ in param_layout(self).values())

    def validate(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.patch < 1 or self.stride < 1 or self.stride > self.patch:
            raise ValueError("need 1 <= stride <= patch")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive")
        if self.param_count > MAX_PARAMS:  # checked before any array is built
            raise ValueError(f"the model would hold {self.param_count} parameters, more than {MAX_PARAMS}")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.iters < 1 or self.batch < 1:
            raise ValueError("iters and batch must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
        """Parse a raw string (config file / CLI) into field ``name``'s type;
        the caller has checked that the field exists."""
        t = {f.name: f.type for f in dataclasses.fields(cls)}[name]
        try:
            return {"int": int, "float": float}.get(t, str)(raw)
        except ValueError:
            kind = "an integer" if t == "int" else "a number"
            raise ValueError(f"{name} must be {kind}, got {raw!r}") from None

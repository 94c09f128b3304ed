"""Run configuration: `key = value` text files with CLI overrides.

Unknown keys are rejected; every run can log its fully-resolved config.
"""

from __future__ import annotations

import dataclasses

from .model import ModelSpec
from .segmentation import SwinUnetSpec
from .tensor import TensorError

_IMAGE = ModelSpec().image

# The model keys and their defaults are the fields of the two specs; the
# image is flattened to its side, channels and patch side.
DEFAULTS = {
    "seed": 0,
    "image_size": _IMAGE.image_h,
    "channels": _IMAGE.channels,
    "patch_side": _IMAGE.patch_side,
    **{
        f.name: f.default
        for cls in (ModelSpec, SwinUnetSpec)
        for f in dataclasses.fields(cls) if f.name != "image"
    },
    "epochs": 10,
    "lr_max": 1e-4,
    "batch_size": 48,
    "augment": True,
    "data_dir": "data",
    "out_dir": "runs",
    "n_unlabeled": 200,
    "n_labeled": 100,
    "checkpoint_every": 0,
}


def _coerce(key, raw, default):
    if isinstance(default, bool):
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise TensorError(f"config: {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(t) for t in str(raw).split(","))
    return str(raw)


class RunConfig:
    def __init__(self, **overrides):
        self._values = dict(DEFAULTS)
        self.update(overrides)

    def update(self, overrides):
        for key, raw in overrides.items():
            if key not in DEFAULTS:
                raise TensorError(f"config: unknown key {key!r}")
            self._values[key] = _coerce(key, raw, DEFAULTS[key])

    @classmethod
    def from_file(cls, path, **overrides):
        cfg = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise TensorError(
                        f"config: {path}:{lineno}: expected 'key = value'"
                    )
                key, _, value = text.partition("=")
                cfg.update({key.strip(): value.strip()})
        cfg.update(overrides)
        return cfg

    def __getattr__(self, key):
        try:
            return self._values[key]
        except KeyError:
            raise AttributeError(key)

    def resolved(self):
        """`key = value` lines, sorted, that `from_file` reads back."""
        return "\n".join(
            f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for k, v in sorted(self._values.items())
        )

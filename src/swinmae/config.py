"""Run configuration: `key = value` text files with CLI overrides.

Unknown keys are rejected; every run can log its fully-resolved config.
"""

from __future__ import annotations

from .tensor import TensorError


DEFAULTS = {
    "seed": 0,
    "image_size": 32,
    "channels": 3,
    "patch_side": 4,
    "embed_dim": 16,
    "stage_depths": "1,1,1,1",
    "head_counts": "2,2,2,2",
    "attn_window": 2,
    "mask_window_r": 2,
    "mask_ratio": 0.75,
    "encoder_variant": "III",
    "decoder_variant": "SWIN",
    "decoder_width": 0,
    "decoder_depth": 2,
    "use_abs_pos_embed": False,
    "transfer_decoder_weights": False,
    "mask_mode": "window",
    "epochs": 10,
    "lr_max": 1e-4,
    "batch_size": 48,
    "num_classes": 3,
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

    def ints(self, key):
        return tuple(int(t) for t in str(self._values[key]).split(","))

    def resolved(self):
        return "\n".join(f"{k} = {self._values[k]}" for k in sorted(self._values))

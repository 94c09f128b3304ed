"""Window-level mask plans plus the plain random-masking baseline.

A mask plan covers a square grid of d*d windows, each holding r*r tokens.
Masking is whole-window: a window is either fully visible or fully hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError
from .patches import TokenGrid


def split_rng(seed, *keys):
    """Deterministic per-(epoch, batch, ...) generator; same keys, same stream."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(keys)))
    )


@dataclass
class MaskPlan:
    d: int
    r: int
    mask_flags: np.ndarray  # per-token bool over the d*r by d*r grid, True = masked
    mode: str = "window"

    @property
    def keep_indices(self):
        """Sorted flat indices of the visible tokens."""
        return np.flatnonzero(~self.mask_flags)

    def kept_windows(self):
        """Ascending indices of the kept windows of a window-mode plan."""
        if self.mode != "window":
            raise TensorError(f"cannot pack the kept windows of a {self.mode}-mode plan")
        kept = ~self.mask_flags.reshape(self.d, self.r, self.d, self.r)[:, 0, :, 0]
        return np.flatnonzero(kept.reshape(-1))

    @property
    def side(self):
        return self.d * self.r

    @property
    def n_tokens(self):
        return self.side * self.side

    def pixel_mask(self, h, w):
        """0/1 pixel map of the masked area of an h x w image."""
        if h % self.side or w % self.side:
            raise TensorError(
                f"image {h}x{w} not divisible by plan side {self.side}"
            )
        p = h // self.side
        flags = self.mask_flags.reshape(self.side, self.side).astype(np.float64)
        return np.kron(flags, np.ones((p, p)))


def expand_sparse_index(x, d, r):
    """Flat token index of the top-left token of window `x` (an int or an int
    array) in the d*d grid."""
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= d * d):
        raise TensorError(f"sparse index {x} out of range for {d}x{d} windows")
    return (x // d) * d * r * r + (x % d) * r


def window_member_offsets(d, r):
    """Offsets from a window's top-left token to all its r*r members."""
    return np.array([d * r * i + j for i in range(r) for j in range(r)], dtype=np.int64)


def build_mask_plan(d, r, mask_ratio, rng, mode="window"):
    """Shuffle windows (or single tokens) by sorting uniform noise and keep the
    first floor(count * (1 - mask_ratio)) of them."""
    if d < 1 or r < 1:
        raise TensorError("d and r must be >= 1")
    if not 0.0 <= mask_ratio < 1.0:
        raise TensorError(f"mask_ratio must be in [0, 1), got {mask_ratio}")
    if mode not in ("window", "random"):
        raise TensorError(f"unknown masking mode {mode!r}")
    # random mode runs the same procedure over single tokens: a (d*r)^2 grid
    # of unit windows
    wd, wr = (d, r) if mode == "window" else (d * r, 1)
    n_windows = wd * wd
    n_keep = int(n_windows * (1.0 - mask_ratio))  # slice truncation == floor
    if n_keep == 0:
        raise TensorError(
            f"nothing kept: floor({n_windows} * {1.0 - mask_ratio:g}) == 0"
        )
    noise = rng.random(n_windows)
    sparse_keep = np.argsort(noise, kind="stable")[:n_keep]  # index tie-break

    tops = expand_sparse_index(sparse_keep, wd, wr)
    flags = np.ones(n_windows * wr * wr, dtype=bool)
    flags[tops[:, None] + window_member_offsets(wd, wr)[None, :]] = False
    return MaskPlan(d=d, r=r, mask_flags=flags, mode=mode)


def apply_mask_tokens(g, plan, mask_vector):
    """Replace every masked token with the single learnable vector.

    Kept tokens pass through untouched; gradient flows into the vector as the
    sum over masked slots.
    """
    if plan.n_tokens != g.h_tokens * g.w_tokens:
        raise TensorError(
            f"plan covers {plan.n_tokens} tokens, grid has "
            f"{g.h_tokens * g.w_tokens}"
        )
    if mask_vector.shape != (g.dim,):
        raise TensorError(
            f"mask vector dim {mask_vector.shape} != token dim {g.dim}"
        )
    m = Tensor(
        plan.mask_flags.astype(g.data.dtype)[None, :, None]
    )
    keep = Tensor(1.0 - m.data)
    out = T.add(T.mul(g.data, keep), T.mul(mask_vector, m))
    return TokenGrid(g.h_tokens, g.w_tokens, out)


def kept_window_grid(g, plan):
    """Re-assemble the kept windows of a dropped grid into a square TokenGrid.

    Requires a window-mode plan whose kept-window count is a perfect square.
    Windows are placed row-major in ascending window-index order.
    """
    kept_windows = plan.kept_windows()
    n_kept = kept_windows.size
    side_w = int(round(np.sqrt(n_kept)))
    if side_w * side_w != n_kept:
        raise TensorError(
            f"kept window count {n_kept} is not a perfect square; cannot "
            "re-assemble a token grid"
        )
    r = plan.r
    tops = expand_sparse_index(kept_windows, plan.d, r).reshape(side_w, side_w)
    offs = window_member_offsets(plan.d, r).reshape(r, r)
    # token order (window row, in-window row, window column, in-window
    # column) is the row-major token order of the packed grid
    order = (tops[:, None, :, None] + offs[None, :, None, :]).reshape(-1)
    side = side_w * r
    return TokenGrid(side, side, T.gather(g.data, order, axis=1))

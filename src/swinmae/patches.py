"""Spatial token machinery: patch partition/merging/expanding, window
partition with cyclic shift, and the attention mask that isolates windows.

Token layout is row-major everywhere: flat index = row * w_tokens + col.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError


@dataclass
class PatchSpec:
    image_h: int
    image_w: int
    channels: int
    patch_side: int = 4

    def __post_init__(self):
        if self.image_h % self.patch_side or self.image_w % self.patch_side:
            raise TensorError(
                f"image {self.image_h}x{self.image_w} not divisible by "
                f"patch side {self.patch_side}"
            )


@dataclass
class TokenGrid:
    h_tokens: int
    w_tokens: int
    data: Tensor  # [batch, h_tokens * w_tokens, dim]

    def __post_init__(self):
        shape = self.data.shape
        if len(shape) != 3 or shape[1] != self.h_tokens * self.w_tokens:
            raise TensorError(
                f"TokenGrid data shape {shape} is not [batch, "
                f"{self.h_tokens}*{self.w_tokens}, dim]"
            )

    @property
    def batch(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[2]


def flatten_patches(image, patch_side):
    """[B,C,H,W] -> [B, (H/p)*(W/p), p*p*C] with row-major (p, p, C) tokens."""
    b, c, h, w = image.shape
    p = patch_side
    if h % p or w % p:
        raise TensorError(f"image {h}x{w} not divisible by patch side {p}")
    x = T.reshape(image, (b, c, h // p, p, w // p, p))
    x = T.transpose(x, (0, 2, 4, 3, 5, 1))  # B, gh, gw, p, p, C
    return T.reshape(x, (b, (h // p) * (w // p), p * p * c))


def unflatten_patches(tokens, h, w, c, patch_side):
    """Inverse of flatten_patches; tokens [B, L, p*p*C] -> [B,C,H,W]."""
    b, l, d = tokens.shape
    p = patch_side
    if l != (h // p) * (w // p) or d != p * p * c:
        raise TensorError(
            f"token block {l}x{d} cannot reshape to {h}x{w}x{c} image"
        )
    x = T.reshape(tokens, (b, h // p, w // p, p, p, c))
    x = T.transpose(x, (0, 5, 1, 3, 2, 4))
    return T.reshape(x, (b, c, h, w))


def patch_partition(image, spec, embed_w, embed_b=None):
    """Split [B,C,H,W] into patches and linearly embed each one."""
    _, c, h, w = image.shape
    if (h, w, c) != (spec.image_h, spec.image_w, spec.channels):
        raise TensorError(
            f"image shape {(h, w, c)} does not match spec "
            f"{(spec.image_h, spec.image_w, spec.channels)}"
        )
    flat = flatten_patches(image, spec.patch_side)
    emb = T.matmul(flat, embed_w, embed_b)
    gh, gw = h // spec.patch_side, w // spec.patch_side
    return TokenGrid(gh, gw, emb)


def patch_merging(g, reduce_w, reduce_b=None, norm_gamma=None, norm_beta=None):
    """2x spatial downsample: concat each 2x2 token block, norm, linear 4d->2d."""
    if g.h_tokens % 2 or g.w_tokens % 2:
        raise TensorError(
            f"patch_merging needs even extents, got {g.h_tokens}x{g.w_tokens}"
        )
    b, h, w, d = g.batch, g.h_tokens, g.w_tokens, g.dim
    x = T.reshape(g.data, (b, h // 2, 2, w // 2, 2, d))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))  # B, h/2, w/2, 2(row), 2(col), d
    x = T.reshape(x, (b, (h // 2) * (w // 2), 4 * d))
    if norm_gamma is not None:
        x = T.layer_norm(x, norm_gamma, norm_beta)
    x = T.matmul(x, reduce_w, reduce_b)
    return TokenGrid(h // 2, w // 2, x)


def patch_expanding(g, expand_w, expand_b=None):
    """2x spatial upsample: linear d->2d, scatter into 2x2 blocks of dim d/2."""
    if g.dim % 2:
        raise TensorError(f"patch_expanding needs even dim, got {g.dim}")
    b, h, w, d = g.batch, g.h_tokens, g.w_tokens, g.dim
    x = T.matmul(g.data, expand_w, expand_b)  # [b, h*w, 2d] = 4 * (d/2)
    x = T.reshape(x, (b, h, w, 2, 2, d // 2))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    x = T.reshape(x, (b, (2 * h) * (2 * w), d // 2))
    return TokenGrid(2 * h, 2 * w, x)


def window_partition(g, side):
    """[B, h*w, d] -> [B*nW, side*side, d], windows row-major, tokens row-major."""
    if g.h_tokens % side or g.w_tokens % side:
        raise TensorError(
            f"grid {g.h_tokens}x{g.w_tokens} not divisible by window side {side}"
        )
    b, h, w, d = g.batch, g.h_tokens, g.w_tokens, g.dim
    x = T.reshape(g.data, (b, h // side, side, w // side, side, d))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (b * (h // side) * (w // side), side * side, d))


def window_reverse(windows, side, h_tokens, w_tokens):
    """Inverse of window_partition; the batch is the window count over the
    windows per grid."""
    d = windows.shape[-1]
    batch = windows.shape[0] // ((h_tokens // side) * (w_tokens // side))
    x = T.reshape(
        windows, (batch, h_tokens // side, w_tokens // side, side, side, d)
    )
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    x = T.reshape(x, (batch, h_tokens * w_tokens, d))
    return TokenGrid(h_tokens, w_tokens, x)


def _shift_region_ids(h, w, side, shift):
    """Region labels, in post-shift coordinates, of the pre-shift origin areas."""
    ids = np.zeros((h, w), dtype=np.int64)
    cnt = 0
    for hs in (slice(0, h - side), slice(h - side, h - shift), slice(h - shift, h)):
        for ws in (slice(0, w - side), slice(w - side, w - shift), slice(w - shift, w)):
            ids[hs, ws] = cnt
            cnt += 1
    return ids


@functools.lru_cache(maxsize=None)
def shift_attention_mask(h, w, side, shift, dtype=np.float64):
    """[nW, side*side, side*side] additive mask: 0 within a pre-shift region,
    -inf across regions. Built once per geometry and dtype, and read-only."""
    ids = _shift_region_ids(h, w, side, shift)
    ids = ids.reshape(h // side, side, w // side, side)
    ids = ids.transpose(0, 2, 1, 3).reshape(-1, side * side)
    mask = np.where(ids[:, :, None] == ids[:, None, :], 0.0, -np.inf).astype(dtype)
    mask.flags.writeable = False
    return mask


def cyclic_shift(g, shift, side):
    """Roll the grid by (-shift, -shift) and build the cross-region mask."""
    if not (0 < shift < side):
        raise TensorError(f"shift must satisfy 0 < shift < window side, got {shift}")
    b, h, w, d = g.batch, g.h_tokens, g.w_tokens, g.dim
    x = T.reshape(g.data, (b, h, w, d))
    x = T.roll(x, (-shift, -shift), (1, 2))
    x = T.reshape(x, (b, h * w, d))
    mask = shift_attention_mask(h, w, side, shift, dtype=g.data.dtype)
    return TokenGrid(h, w, x), mask


def cyclic_unshift(g, shift):
    b, h, w, d = g.batch, g.h_tokens, g.w_tokens, g.dim
    x = T.reshape(g.data, (b, h, w, d))
    x = T.roll(x, (shift, shift), (1, 2))
    x = T.reshape(x, (b, h * w, d))
    return TokenGrid(h, w, x)

"""The window-masked autoencoder: hierarchical windowed-attention encoder
(three variants), global-attention or hierarchical decoder (two variants),
pixel reconstruction, and the masked MSE loss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ParamStore, Tensor, TensorError
from . import patches as P
from .patches import PatchSpec, TokenGrid
from .masking import apply_mask_tokens, kept_window_grid, split_rng


@dataclass
class ModelSpec:
    """The defaults are the desk geometry: tiny, every shape contract holds
    and training is fast. The config keys of the model are these fields."""

    image: PatchSpec = field(default_factory=lambda: PatchSpec(32, 32, 3, patch_side=4))
    encoder_variant: str = "III"  # I | II | III
    decoder_variant: str = "SWIN"  # VIT | SWIN
    decoder_width: int = 0  # > 0 embeds the latent to this VIT decoder width
    decoder_depth: int = 2  # VIT decoder block count
    use_abs_pos_embed: bool = False
    embed_dim: int = 16
    stage_depths: tuple = (1, 1, 1, 1)
    head_counts: tuple = (2, 2, 2, 2)
    attn_window: int = 2
    mask_window_r: int = 2
    mask_ratio: float = 0.75

    def __post_init__(self):
        if self.encoder_variant not in ("I", "II", "III"):
            raise TensorError(f"unknown encoder variant {self.encoder_variant!r}")
        if self.decoder_variant not in ("VIT", "SWIN"):
            raise TensorError(f"unknown decoder variant {self.decoder_variant!r}")
        if self.encoder_variant == "III" and self.use_abs_pos_embed:
            raise TensorError(
                "encoder variant III has no absolute position embedding"
            )
        if self.decoder_width < 0:
            raise TensorError(f"decoder_width must be >= 0, got {self.decoder_width}")
        if self.decoder_width and self.decoder_variant == "SWIN":
            raise TensorError("decoder_width applies only to the VIT decoder")
        if len(self.stage_depths) != len(self.head_counts):
            raise TensorError("stage_depths and head_counts length mismatch")
        if self.attn_window < 1 or self.mask_window_r < 1:
            raise TensorError("attn_window and mask_window_r must be >= 1")
        side = self.enc_input_side
        if side % self.mask_window_r:
            raise TensorError(
                f"token side {side} not divisible by mask window r="
                f"{self.mask_window_r}"
            )
        if self.encoder_variant == "II":
            # the kept windows must pack into the half-side grid the stages
            # run on; a plan keeps floor(d * d * (1 - mask_ratio)) windows
            d, q = self.mask_grid_d, (self.mask_grid_d // 2) ** 2
            if d % 2 or not q <= d * d * (1.0 - self.mask_ratio) < q + 1:
                raise TensorError(
                    f"variant II: masking ratio {self.mask_ratio} does not keep "
                    f"a quarter of the {d}x{d} mask windows"
                )
        sides = self.stage_sides
        for k, s in enumerate(sides):
            # every stage but the last is merged 2x2 into the next
            if s < 1 or (k < len(sides) - 1 and s % 2):
                raise TensorError(
                    f"too many merging stages for token side {side}: "
                    f"stage sides {sides}"
                )
            if s % effective_window(s, self.attn_window):
                raise TensorError(
                    f"stage {k} token side {s} not divisible by attention "
                    f"window {self.attn_window}"
                )

    @property
    def n_stages(self):
        # variant I drops the final merge + final block stage
        n = len(self.stage_depths)
        return n - 1 if self.encoder_variant == "I" else n

    @property
    def enc_image_hw(self):
        mult = 2 if self.encoder_variant == "II" else 1
        return self.image.image_h * mult, self.image.image_w * mult

    @property
    def enc_input_side(self):
        h, w = self.enc_image_hw
        if h != w:
            raise TensorError("square images required")
        return h // self.image.patch_side

    @property
    def grid_side(self):
        """Token side the stages actually run on (post-drop for variant II)."""
        if self.encoder_variant == "II":
            return self.image.image_h // self.image.patch_side
        return self.enc_input_side

    @property
    def stage_sides(self):
        return [self.grid_side // (2 ** k) for k in range(self.n_stages)]

    @property
    def stage_dims(self):
        return [self.embed_dim * (2 ** k) for k in range(self.n_stages)]

    @property
    def mask_grid_d(self):
        return self.enc_input_side // self.mask_window_r


desk_spec = ModelSpec


# --------------------------------------------------------------------- init


def _init_linear(ps, prefix, fan_in, fan_out, rng, dtype, bias=True):
    ps.add(prefix + ".w", Tensor(rng.normal(0.0, 0.02, (fan_in, fan_out)), dtype=dtype))
    if bias:
        ps.add(prefix + ".b", Tensor(np.zeros(fan_out), dtype=dtype))


def _init_norm(ps, prefix, dim, dtype):
    ps.add(prefix + ".g", Tensor(np.ones(dim), dtype=dtype))
    ps.add(prefix + ".b", Tensor(np.zeros(dim), dtype=dtype))


def _init_block(ps, prefix, dim, heads, window_side, rng, dtype):
    """`window_side=None` leaves out the relative-bias table."""
    if dim % heads:
        raise TensorError(f"{prefix}: dim {dim} not divisible by {heads} heads")
    _init_norm(ps, prefix + ".norm1", dim, dtype)
    for nm in ("wq", "wk", "wv", "proj"):
        _init_linear(ps, prefix + ".attn." + nm, dim, dim, rng, dtype)
    if window_side is not None:
        n_rel = (2 * window_side - 1) ** 2
        ps.add(
            prefix + ".attn.rel_table",
            Tensor(rng.normal(0.0, 0.02, (n_rel, heads)), dtype=dtype),
        )
    _init_norm(ps, prefix + ".norm2", dim, dtype)
    _init_linear(ps, prefix + ".mlp.fc1", dim, 4 * dim, rng, dtype)
    _init_linear(ps, prefix + ".mlp.fc2", 4 * dim, dim, rng, dtype)


@functools.lru_cache(maxsize=None)
def relative_position_index(side):
    """Flat [T*T] index into the (2*side-1)^2 relative-bias table; built once
    per side and read-only."""
    coords = np.stack(
        np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    ).reshape(2, -1)
    rel = coords[:, :, None] - coords[:, None, :] + (side - 1)
    index = (rel[0] * (2 * side - 1) + rel[1]).reshape(-1)
    index.flags.writeable = False
    return index


def effective_window(side, window):
    return min(side, window)


def _init_stage(ps, prefix, spec, k, rng, dtype):
    w_eff = effective_window(spec.stage_sides[k], spec.attn_window)
    for i in range(spec.stage_depths[k]):
        _init_block(
            ps, f"{prefix}.stage{k}.block{i}", spec.stage_dims[k],
            spec.head_counts[k], w_eff, rng, dtype,
        )


def _init_pos_embed(ps, spec, rng, dtype):
    l0 = spec.enc_input_side ** 2
    ps.add(
        "enc.pos_embed",
        Tensor(rng.normal(0.0, 0.02, (1, l0, spec.embed_dim)), dtype=dtype),
    )


def build_encoder_params(ps, spec, rng, dtype):
    """Shared by the autoencoder and the segmentation net so parameter names
    and shapes line up for weight transfer."""
    p_in = spec.image.patch_side ** 2 * spec.image.channels
    _init_linear(ps, "enc.embed", p_in, spec.embed_dim, rng, dtype)
    if spec.use_abs_pos_embed:
        _init_pos_embed(ps, spec, rng, dtype)
    for k in range(spec.n_stages):
        _init_stage(ps, "enc", spec, k, rng, dtype)
        if k < spec.n_stages - 1:
            dim = spec.stage_dims[k]
            _init_norm(ps, f"enc.merge{k}.norm", 4 * dim, dtype)
            _init_linear(ps, f"enc.merge{k}.reduce", 4 * dim, 2 * dim, rng, dtype)


def build_expanding_params(ps, spec, prefix, rng, dtype, skip_fusion=False):
    """Expand -> [skip fusion] -> stage parameters, deepest stage first."""
    for k in range(spec.n_stages - 2, -1, -1):
        dim = spec.stage_dims[k]
        _init_linear(ps, f"{prefix}.expand{k}", 2 * dim, 4 * dim, rng, dtype)
        if skip_fusion:
            # linear(expanded) + linear(skip) + bias, equivalent to concat
            # followed by a 2d -> d reduction
            _init_linear(ps, f"{prefix}.skip{k}.up", dim, dim, rng, dtype)
            _init_linear(ps, f"{prefix}.skip{k}.lat", dim, dim, rng, dtype, bias=False)
        _init_stage(ps, prefix, spec, k, rng, dtype)


# ------------------------------------------------------------------ forward


def attention(xw, ps, prefix, heads, rel_index=None, mask=None):
    """Multi-head self-attention over [nB, T, C] sequences.

    `rel_index` selects rows of the learned relative-bias table; `mask` is a
    constant additive [nW, T, T] array (-inf across regions). The softmax
    applies the score scale, the bias and the mask in its one node.
    """
    nb, t, c = xw.shape
    hd = c // heads
    q, k, v = (
        T.split_heads(T.linear(xw, ps[f"{prefix}.{nm}.w"], ps[f"{prefix}.{nm}.b"]), heads)
        for nm in ("wq", "wk", "wv")
    )
    bias = None
    if rel_index is not None:
        bias = T.gather(ps[prefix + ".rel_table"], rel_index, axis=0)
        bias = T.reshape(bias, (t, t, heads))
        bias = T.reshape(T.transpose(bias, (2, 0, 1)), (1, heads, t, t))
    # k^T stays a contiguous copy: a view there changes the GEMM's rounding
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    a = T.softmax_lastdim(scores, mask, scale=1.0 / np.sqrt(hd), bias=bias)
    out = T.transpose(T.matmul(a, v), (0, 2, 1, 3))
    out = T.reshape(out, (nb, t, c))
    return T.linear(out, ps[prefix + ".proj.w"], ps[prefix + ".proj.b"])


def swin_block_forward(g, ps, prefix, heads, window, shifted):
    """Pre-norm block: LN -> windowed MSA (shifted or not) -> residual ->
    LN -> 4x GELU MLP -> residual. A window as wide as the grid attends
    globally; the relative bias applies only where the block has a table."""
    side = effective_window(g.h_tokens, window)
    shifted = shifted and side < g.h_tokens
    rel_index = None
    if prefix + ".attn.rel_table" in ps:
        rel_index = relative_position_index(side)
    shortcut = g.data
    x = T.layer_norm(g.data, ps[prefix + ".norm1.g"], ps[prefix + ".norm1.b"])
    xg = TokenGrid(g.batch, g.h_tokens, g.w_tokens, g.dim, x)
    mask = None
    if shifted:
        shift = side // 2
        xg, mask = P.cyclic_shift(xg, shift, side)
    xw = P.window_partition(xg, side)
    xw = attention(xw, ps, prefix + ".attn", heads, rel_index, mask)
    xg = P.window_reverse(xw, side, g.batch, g.h_tokens, g.w_tokens)
    if shifted:
        xg = P.cyclic_unshift(xg, shift)
    x = T.add(shortcut, xg.data)
    h = T.layer_norm(x, ps[prefix + ".norm2.g"], ps[prefix + ".norm2.b"])
    h = T.gelu(T.linear(h, ps[prefix + ".mlp.fc1.w"], ps[prefix + ".mlp.fc1.b"]))
    h = T.linear(h, ps[prefix + ".mlp.fc2.w"], ps[prefix + ".mlp.fc2.b"])
    x = T.add(x, h)
    return TokenGrid(g.batch, g.h_tokens, g.w_tokens, g.dim, x)


def run_stage(g, ps, prefix, depth, heads, window):
    for i in range(depth):
        g = swin_block_forward(
            g, ps, f"{prefix}.block{i}", heads, window, shifted=(i % 2 == 1)
        )
    return g


def encoder_forward(image, spec, plan, ps, mask_token=None):
    """Embed (plus `enc.pos_embed` when the store has one), mask, then run
    the hierarchical stages.

    Returns (latent TokenGrid, per-stage skip grids taken before each merge).
    """
    if spec.encoder_variant == "II":
        image = upscale2x(image)
    g = P.patch_partition(
        image,
        PatchSpec(*spec.enc_image_hw, spec.image.channels, spec.image.patch_side),
        ps["enc.embed.w"], ps["enc.embed.b"],
    )
    if "enc.pos_embed" in ps:
        g = TokenGrid(
            g.batch, g.h_tokens, g.w_tokens, g.dim, T.add(g.data, ps["enc.pos_embed"]),
        )
    if plan is not None:
        if plan.side != spec.enc_input_side:
            raise TensorError(
                f"mask plan side {plan.side} != token side {spec.enc_input_side}"
            )
        if spec.encoder_variant == "II":
            d = spec.mask_grid_d
            kept = plan.keep_indices.size // plan.r ** 2
            if plan.mode == "window" and kept != (d // 2) ** 2:
                raise TensorError(
                    f"variant II: the mask plan keeps {kept} windows; the spec "
                    f"needs ({d}//2)^2 = {(d // 2) ** 2}"
                )
            g = kept_window_grid(g, plan)
        else:
            g = apply_mask_tokens(g, plan, mask_token)
    skips = []
    for k in range(spec.n_stages):
        g = run_stage(
            g, ps, f"enc.stage{k}", spec.stage_depths[k],
            spec.head_counts[k], spec.attn_window,
        )
        skips.append(g)
        if k < spec.n_stages - 1:
            g = P.patch_merging(
                g,
                ps[f"enc.merge{k}.reduce.w"], ps[f"enc.merge{k}.reduce.b"],
                ps[f"enc.merge{k}.norm.g"], ps[f"enc.merge{k}.norm.b"],
            )
    return g, skips


def expanding_path(g, ps, spec, prefix, skips=None):
    """Expand -> [fuse the encoder skip] -> stage, back up to stage 0."""
    for k in range(spec.n_stages - 2, -1, -1):
        g = P.patch_expanding(g, ps[f"{prefix}.expand{k}.w"], ps[f"{prefix}.expand{k}.b"])
        if skips is not None:
            fused = T.add(
                T.linear(g.data, ps[f"{prefix}.skip{k}.up.w"], ps[f"{prefix}.skip{k}.up.b"]),
                T.linear(skips[k].data, ps[f"{prefix}.skip{k}.lat.w"]),
            )
            g = TokenGrid(g.batch, g.h_tokens, g.w_tokens, g.dim, fused)
        g = run_stage(
            g, ps, f"{prefix}.stage{k}", spec.stage_depths[k],
            spec.head_counts[k], spec.attn_window,
        )
    return g


def upscale2x(image):
    """Nearest-neighbour 2x upscale of [B,C,H,W]."""
    b, c, h, w = image.shape
    x = T.reshape(image, (b, c, h, 1, w, 1))
    one = Tensor(np.ones((1, 1, 1, 2, 1, 2), dtype=image.dtype))
    x = T.mul(x, one)
    return T.reshape(x, (b, c, 2 * h, 2 * w))


# ------------------------------------------------------------------- model


class SwinMae:
    """Pretraining model: encoder + reconstruction decoder + masked loss."""

    def __init__(self, spec, seed=0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.params = ParamStore()
        rng = split_rng(seed, 0)
        build_encoder_params(self.params, spec, rng, self.dtype)
        if spec.encoder_variant in ("I", "III"):
            self.params.add(
                "mask_token",
                Tensor(rng.normal(0.0, 0.02, (spec.embed_dim,)), dtype=self.dtype),
            )
        self._build_decoder(rng)

    @property
    def recon_patch(self):
        """Pixel side of the patch one decoder token predicts: the VIT decoder
        runs on the latent grid, the SWIN decoder expands back to stage 0."""
        spec = self.spec
        tokens = spec.stage_sides[-1] if spec.decoder_variant == "VIT" else spec.grid_side
        return spec.enc_image_hw[0] // tokens

    def _build_decoder(self, rng):
        spec, dtype = self.spec, self.dtype
        if spec.decoder_variant == "VIT":
            width = spec.stage_dims[-1]
            if spec.decoder_width:
                _init_linear(self.params, "dec.embed", width, spec.decoder_width, rng, dtype)
                width = spec.decoder_width
            heads = spec.head_counts[-1]
            if width % heads:
                heads = 1
            self._dec_heads = heads
            for i in range(spec.decoder_depth):
                _init_block(self.params, f"dec.block{i}", width, heads, None, rng, dtype)
        else:
            build_expanding_params(self.params, spec, "dec", rng, dtype)
            width = spec.embed_dim
        _init_norm(self.params, "dec.norm", width, dtype)
        _init_linear(
            self.params, "dec.proj", width,
            self.recon_patch ** 2 * spec.image.channels, rng, dtype,
        )

    def encode(self, image, plan):
        mask_token = (
            self.params["mask_token"]
            if self.spec.encoder_variant in ("I", "III")
            else None
        )
        return encoder_forward(image, self.spec, plan, self.params, mask_token)

    def decode(self, latent):
        """Latent TokenGrid -> reconstruction tokens [B, L, D]."""
        ps, spec = self.params, self.spec
        if spec.decoder_variant == "VIT":
            x = latent.data
            if spec.decoder_width:
                x = T.linear(x, ps["dec.embed.w"], ps["dec.embed.b"])
            g = TokenGrid(latent.batch, latent.h_tokens, latent.w_tokens, x.shape[-1], x)
            # one window over the whole grid: global attention, never shifted
            g = run_stage(g, ps, "dec", spec.decoder_depth, self._dec_heads, g.h_tokens)
        else:
            g = expanding_path(latent, ps, spec, "dec")
        x = T.layer_norm(g.data, ps["dec.norm.g"], ps["dec.norm.b"])
        return T.linear(x, ps["dec.proj.w"], ps["dec.proj.b"])

    def forward(self, image, plan):
        """[B,C,H,W] image -> reconstruction at the encoder's input size."""
        latent, _ = self.encode(image, plan)
        h, w = self.spec.enc_image_hw
        return P.unflatten_patches(
            self.decode(latent), h, w, self.spec.image.channels, self.recon_patch
        )

    def reconstruct(self, image, plan):
        return self.forward(Tensor(image.data, dtype=self.dtype), plan)

    def loss(self, image, plan):
        recon = self.forward(image, plan)
        target = image
        if self.spec.encoder_variant == "II":
            target = upscale2x(image)
        return masked_mse_loss(recon, target, plan)

    def encoder_param_names(self):
        return [n for n in self.params.names() if n.startswith("enc.")]


def pixel_mask(plan, h, w):
    """0/1 pixel map of the masked area implied by a token-level plan."""
    if h % plan.side or w % plan.side:
        raise TensorError(
            f"image {h}x{w} not divisible by plan side {plan.side}"
        )
    p = h // plan.side
    flags = plan.mask_flags.reshape(plan.side, plan.side).astype(np.float64)
    return np.kron(flags, np.ones((p, p)))


def masked_mse_loss(recon, target, plan):
    """Mean squared error over masked pixels only."""
    if recon.shape != target.shape:
        raise TensorError(
            f"reconstruction {recon.shape} vs target {target.shape}"
        )
    b, c, h, w = recon.shape
    mask = pixel_mask(plan, h, w).astype(recon.dtype)
    n_masked = int(mask.sum())
    if n_masked == 0:
        raise TensorError("mask plan has zero masked pixels")
    diff = T.mul(T.sub(recon, target), Tensor(mask[None, None]))
    return T.scale(T.sum_(T.square(diff)), 1.0 / (b * c * n_masked))


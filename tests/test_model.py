import tracemalloc

import numpy as np
import pytest

import swinmae.tensor as T
from swinmae.tensor import Tape, Tensor, TensorError
from swinmae.patches import PatchSpec, TokenGrid, flatten_patches, unflatten_patches
from swinmae.masking import build_mask_plan, split_rng
from swinmae import patches as P
from swinmae.model import (
    ModelSpec, SwinMae, attention, desk_spec, masked_mse_loss,
    relative_position_index, swin_block_forward, _init_block,
)
from swinmae.segmentation import SwinUnet, SwinUnetSpec
from swinmae.tensor import ParamStore


def block_params(dim, heads, window, seed=0):
    ps = ParamStore()
    _init_block(ps, "blk", dim, heads, window, split_rng(seed, 0), np.float64)
    return ps


def rand_grid(rng, side, dim, batch=1):
    return TokenGrid(side, side, Tensor(rng.standard_normal((batch, side * side, dim))))


def test_block_zero_projections_is_identity():
    ps = block_params(4, 2, 2)
    ps["blk.attn.proj.w"].data[:] = 0.0
    ps["blk.mlp.fc2.w"].data[:] = 0.0
    g = rand_grid(np.random.default_rng(0), 4, 4)
    out = swin_block_forward(g, ps, "blk", 2, 2, shifted=False)
    assert np.array_equal(out.data.data, g.data.data)


def _window_of(flat, side, window):
    return (flat // side) // window, (flat % side) // window


def test_unshifted_block_window_isolation():
    rng = np.random.default_rng(1)
    side, window, dim = 4, 2, 4
    for case in range(20):
        ps = block_params(dim, 2, window, seed=case)
        base = rng.standard_normal((1, side * side, dim))
        ref = swin_block_forward(
            TokenGrid(side, side, Tensor(base)), ps, "blk", 2, window, False
        ).data.data
        probe = int(rng.integers(0, side * side))
        bumped = base.copy()
        bumped[0, probe, 0] += 1.0
        got = swin_block_forward(
            TokenGrid(side, side, Tensor(bumped)), ps, "blk", 2, window, False
        ).data.data
        pw = _window_of(probe, side, window)
        for t in range(side * side):
            if _window_of(t, side, window) != pw:
                assert np.max(np.abs(got[0, t] - ref[0, t])) < 1e-12


def test_shifted_block_crosses_window_boundary():
    rng = np.random.default_rng(2)
    side, window, dim = 4, 2, 4
    crossings = 0
    for case in range(20):
        ps = block_params(dim, 2, window, seed=100 + case)
        base = rng.standard_normal((1, side * side, dim))
        ref = swin_block_forward(
            TokenGrid(side, side, Tensor(base)), ps, "blk", 2, window, True
        ).data.data
        # Corner tokens land in the wrap-around shifted window where the
        # attention mask isolates every member, so they cannot cross.
        corners = {0, side - 1, side * (side - 1), side * side - 1}
        probe = int(rng.integers(0, side * side))
        while probe in corners:
            probe = int(rng.integers(0, side * side))
        bumped = base.copy()
        bumped[0, probe, 0] += 1.0
        got = swin_block_forward(
            TokenGrid(side, side, Tensor(bumped)), ps, "blk", 2, window, True
        ).data.data
        pw = _window_of(probe, side, window)
        for t in range(side * side):
            if _window_of(t, side, window) != pw:
                if np.max(np.abs(got[0, t] - ref[0, t])) > 1e-9:
                    crossings += 1
                    break
    assert crossings == 20


def test_encoder_shape_arithmetic_desk():
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 0)
    )
    img = Tensor(np.random.default_rng(0).random((1, 3, 32, 32)))
    latent, skips = model.encode(img, plan)
    assert (latent.h_tokens, latent.w_tokens, latent.dim) == (1, 1, 128)
    assert [s.h_tokens for s in skips] == [8, 4, 2, 1]


def test_encoder_rejects_too_deep_config():
    with pytest.raises(TensorError, match="merging"):
        desk_spec(image=PatchSpec(16, 16, 3, 4))  # stage sides 4/2/1/0
    with pytest.raises(TensorError, match="merging"):
        # stage sides 14/7/3: the 7-token stage cannot be merged
        desk_spec(image=PatchSpec(56, 56, 3, 4), stage_depths=(1, 1, 1),
                  head_counts=(2, 2, 2))


def test_spec_rejects_stage_side_not_divisible_by_window():
    # stage sides 12/6/3: a 4-token window does not tile the 6-token stage
    kw = dict(image=PatchSpec(48, 48, 3, 4), stage_depths=(1, 1, 1),
              head_counts=(2, 2, 2), attn_window=4)
    with pytest.raises(TensorError, match="side 6 not divisible by attention window 4"):
        desk_spec(**kw)
    kw.pop("image")
    with pytest.raises(TensorError, match="window 4"):
        SwinUnet(SwinUnetSpec(image=PatchSpec(48, 48, 3, 4), **kw))


@pytest.mark.parametrize("window,mask_r", [(0, 2), (2, 0)])
def test_spec_rejects_empty_windows(window, mask_r):
    with pytest.raises(TensorError, match=">= 1"):
        desk_spec(attn_window=window, mask_window_r=mask_r)


def test_variant3_masked_positions_carry_one_vector():
    spec = desk_spec()
    model = SwinMae(spec, seed=1)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(1, 0)
    )
    from swinmae.patches import patch_partition
    from swinmae.masking import apply_mask_tokens

    img = Tensor(np.random.default_rng(1).random((1, 3, 32, 32)))
    g = patch_partition(img, spec.image, model.params["enc.embed.w"], model.params["enc.embed.b"])
    masked = apply_mask_tokens(g, plan, model.params["mask_token"])
    for idx in np.flatnonzero(plan.mask_flags):
        assert np.array_equal(masked.data.data[0, idx], model.params["mask_token"].data)


def test_variant2_wrong_ratio_errors():
    with pytest.raises(TensorError, match="variant II: masking ratio 0.5"):
        desk_spec(encoder_variant="II", decoder_variant="VIT", mask_ratio=0.5)


def test_variant2_rejects_a_random_mode_plan():
    # seed 23's random plan keeps a square count of top-left tokens, so the
    # windows it reads as kept hold masked tokens too
    spec = desk_spec(encoder_variant="II", decoder_variant="VIT", use_abs_pos_embed=True)
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(23, 0),
        mode="random",
    )
    img = Tensor(np.random.default_rng(2).random((1, 3, 32, 32)))
    with pytest.raises(TensorError, match="random-mode plan"):
        model.loss(img, plan)


def test_variant2_rejects_a_plan_with_another_kept_window_count():
    # a plan drawn at another ratio keeps 3x3 of the 8x8 windows; the stages
    # run on the 4x4 grid of kept windows
    spec = desk_spec(encoder_variant="II", decoder_variant="VIT", use_abs_pos_embed=True)
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, 1 - 9 / 64 - 1e-9, split_rng(0, 1)
    )
    img = Tensor(np.random.default_rng(2).random((1, 3, 32, 32)))
    with pytest.raises(TensorError, match=r"keeps 9 windows; the spec needs \(8//2\)\^2 = 16"):
        model.loss(img, plan)


def test_spec_refuses_a_window_ratio_that_keeps_nothing():
    # floor(16 * 0.05) == 0 of the 4x4 windows
    with pytest.raises(TensorError, match="nothing kept"):
        ModelSpec(mask_ratio=0.95)


def test_random_masking_at_that_ratio_keeps_three_tokens():
    # floor(64 * 0.05) == 3 of the 8x8 tokens
    spec = ModelSpec(mask_ratio=0.95, mask_mode="random")
    assert spec.mask_plan(split_rng(0, 0)).keep_indices.size == 3


def test_spec_refuses_variant2_with_random_masking():
    with pytest.raises(TensorError, match="cannot pack the kept windows of a random-mode plan"):
        desk_spec(encoder_variant="II", decoder_variant="VIT", mask_mode="random")


def test_spec_refuses_an_unknown_masking_mode():
    with pytest.raises(TensorError, match="unknown masking mode 'grid'"):
        ModelSpec(mask_mode="grid")


@pytest.mark.parametrize("kw", [
    dict(), dict(mask_mode="random"), dict(mask_ratio=0.5, mask_mode="random"),
    dict(encoder_variant="II", decoder_variant="VIT"),
])
def test_spec_mask_plan_is_the_build_mask_plan_call_it_replaces(kw):
    spec = desk_spec(**kw)
    for keys in ((0, 0), (3, 99), (7, 1, 2)):
        plan = spec.mask_plan(split_rng(*keys))
        ref = build_mask_plan(
            spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(*keys),
            mode=spec.mask_mode,
        )
        assert plan.mode == ref.mode == kw.get("mask_mode", "window")
        assert plan.mask_flags.tobytes() == ref.mask_flags.tobytes()


def test_full_scale_dry_run_shapes():
    kw = dict(
        image=PatchSpec(224, 224, 3, 4), encoder_variant="III",
        embed_dim=96, stage_depths=(2, 2, 6, 2), head_counts=(3, 6, 12, 24),
        attn_window=7, mask_window_r=4, mask_ratio=0.75,
    )
    vit = SwinMae(ModelSpec(decoder_variant="VIT", **kw), seed=0, dtype=np.float32)
    plan = build_mask_plan(56 // 4, 4, 0.75, split_rng(0, 0))
    img = Tensor(np.random.default_rng(0).random((1, 3, 224, 224)), dtype=np.float32)
    latent, _ = vit.encode(img, plan)
    assert (latent.h_tokens, latent.w_tokens) == (7, 7)
    tokens = vit.decode(latent)
    assert tokens.shape == (1, 49, 3072)
    assert vit.recon_patch == 32
    swin = SwinMae(ModelSpec(decoder_variant="SWIN", **kw), seed=0, dtype=np.float32)
    tokens = swin.decode(latent)
    assert tokens.shape == (1, 56 * 56, 48)
    assert swin.recon_patch == 4
    # the paper-geometry tape: 12 encoder and 10 decoder blocks, each core
    # fed straight by its q, k and v projections
    with Tape() as tape:
        swin.loss(img, plan)
    producer = {id(n.output): n.op for n in tape.nodes}
    attn = [n for n in tape.nodes if n.op == "attention"]
    assert (len(tape.nodes), len(attn)) == (475, 22)
    assert {producer.get(id(t)) for n in attn for t in n.inputs[:3]} == {"matmul"}


@pytest.mark.parametrize("variant,decoder", [
    ("I", "VIT"), ("I", "SWIN"), ("II", "VIT"), ("III", "VIT"), ("III", "SWIN"),
])
def test_eq1_consistency_all_variants(variant, decoder):
    spec = desk_spec(
        encoder_variant=variant, decoder_variant=decoder,
        use_abs_pos_embed=(variant != "III"),
    )
    model = SwinMae(spec, seed=0)
    h, w = spec.enc_image_hw
    p = model.recon_patch
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 0)
    )
    img = Tensor(np.random.default_rng(3).random((1, 3, 32, 32)))
    latent, _ = model.encode(img, plan)
    # the decoder's tokens tile the encoder's input image exactly
    tokens = model.decode(latent)
    assert tokens.shape == (1, (h // p) * (w // p), p * p * spec.image.channels)
    assert model.forward(img, plan).shape == (1, 3, h, w)


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(4)
    img = rng.random((2, 3, 8, 8))
    tokens = flatten_patches(Tensor(img), 4)
    back = unflatten_patches(tokens, 8, 8, 3, 4)
    assert np.array_equal(back.data, img)


def test_reconstruct_single_token_is_whole_image():
    rng = np.random.default_rng(5)
    img = rng.random((1, 1, 4, 4))
    tokens = flatten_patches(Tensor(img), 4)
    back = unflatten_patches(tokens, 4, 4, 1, 4)
    assert np.array_equal(back.data, img)


def test_reconstruct_quadrants():
    img = np.zeros((1, 1, 8, 8))
    img[0, 0, :4, :4] = 1.0
    tokens = flatten_patches(Tensor(img), 4)
    assert np.array_equal(tokens.data[0, 0], np.ones(16))
    back = unflatten_patches(tokens, 8, 8, 1, 4)
    assert np.array_equal(back.data, img)


def test_masked_loss_zero_when_equal():
    plan = build_mask_plan(2, 2, 0.5, split_rng(0, 0))
    img = Tensor(np.random.default_rng(6).random((1, 3, 16, 16)))
    assert masked_mse_loss(img, img, plan).item() == 0.0


def test_masked_loss_ignores_visible_pixels():
    plan = build_mask_plan(2, 2, 0.5, split_rng(1, 0))
    rng = np.random.default_rng(7)
    target = rng.random((1, 3, 16, 16))
    recon = target.copy()
    visible = plan.pixel_mask(16, 16) == 0
    recon[:, :, visible] += rng.random((1, 3, int(visible.sum())))
    assert masked_mse_loss(Tensor(recon), Tensor(target), plan).item() == 0.0


def test_masked_loss_matches_pixel_loop_oracle():
    plan = build_mask_plan(2, 2, 0.5, split_rng(2, 0))
    rng = np.random.default_rng(8)
    recon = rng.random((2, 3, 16, 16))
    target = rng.random((2, 3, 16, 16))
    got = masked_mse_loss(Tensor(recon), Tensor(target), plan).item()
    mask = plan.pixel_mask(16, 16)
    total, count = 0.0, 0
    for b in range(2):
        for c in range(3):
            for y in range(16):
                for x in range(16):
                    if mask[y, x]:
                        total += (recon[b, c, y, x] - target[b, c, y, x]) ** 2
                        count += 1
    assert abs(got - total / count) < 1e-12


def test_masked_loss_rejects_zero_masked():
    plan = build_mask_plan(2, 2, 0.0, split_rng(0, 0))
    img = Tensor(np.zeros((1, 3, 16, 16)))
    with pytest.raises(TensorError, match="zero masked"):
        masked_mse_loss(img, img, plan)


def test_loss_gradient_bit_zero_at_visible_pixels():
    for case in range(10):
        plan = build_mask_plan(2, 2, 0.5, split_rng(case, 3))
        rng = np.random.default_rng(case)
        target = Tensor(rng.random((1, 3, 16, 16)))
        recon = Tensor(rng.random((1, 3, 16, 16)), requires_grad=True)
        with Tape() as tape:
            loss = masked_mse_loss(recon, target, plan)
        T.backward(loss, tape)
        visible = plan.pixel_mask(16, 16) == 0
        assert np.all(recon.grad[:, :, visible] == 0.0)
        assert np.any(recon.grad[:, :, ~visible] != 0.0)


def tiny_model(dtype=np.float32):
    spec = desk_spec(
        image=PatchSpec(16, 16, 3, patch_side=2), embed_dim=8,
        decoder_variant="SWIN",
    )
    return SwinMae(spec, seed=0, dtype=dtype), spec


def test_desk_loss_tape_node_count():
    """LayerNorm, the MLP and each linear layer (matmul with its bias) are one
    tape node each: 18 LN + 7 MLP calls at depth 1. The attention core from
    the head splits to the head merge, with the score scale, the relative
    bias layout and (at depth 2, in shifted blocks) the shift mask, is one
    node. A B=16 f32 desk loss has 6419216 bytes of node outputs."""
    for depths, nodes in (((1, 1, 1, 1), 160), ((2, 2, 2, 2), 303)):
        spec = desk_spec(stage_depths=depths)
        model = SwinMae(spec, seed=0)
        plan = build_mask_plan(
            spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
        )
        with Tape() as tape:
            model.loss(Tensor(split_rng(0, 2).random((2, 3, 32, 32))), plan)
        assert len(tape.nodes) == nodes, depths
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    image = Tensor(split_rng(0, 2).random((16, 3, 32, 32)), dtype=np.float32)
    with Tape() as tape:
        model.loss(image, plan)
    assert sum(n.output.data.nbytes for n in tape.nodes) == 6419216


@pytest.mark.parametrize("decoder,nodes", [("VIT", 127), ("SWIN", 158)])
def test_variant_ii_loss_tape_node_count(decoder, nodes):
    """Variant II packs the kept windows into the half-side grid with one
    gather node along the token axis."""
    spec = desk_spec(encoder_variant="II", decoder_variant=decoder)
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    with Tape() as tape:
        model.loss(Tensor(split_rng(0, 2).random((2, 3, 32, 32))), plan)
    assert len(tape.nodes) == nodes
    # the patch embedding, then the packing, straight into the first block
    assert [(n.op, n.output.shape) for n in tape.nodes[:3]] == [
        ("matmul", (2, 256, 16)), ("gather", (2, 64, 16)), ("layer_norm", (2, 64, 16)),
    ]


def tape_owned_bytes(tape):
    """Bytes of the arrays the tape keeps alive: node outputs and the arrays
    backward closures hold, each view's base counted once. The read-only
    cached window geometry is shared, not owned."""
    owned = {}
    for n in tape.nodes:
        held = [c.cell_contents for c in n.backward_fn.__closure__ or ()]
        for a in [n.output.data] + [v for v in held if isinstance(v, np.ndarray)]:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if a.flags.writeable:
                owned[id(a)] = a.nbytes
    return sum(owned.values())


def test_desk_tape_keeps_no_gelu_output_or_attention_scores():
    """The MLP node keeps its pre-activation, not the GELU output, and the
    attention node keeps its weights, not the scores; no other node outputs
    an array of either shape. A B=16 f32 depth-2 desk loss owns 9835552
    bytes (12827424 with the unfused attention core and MLP)."""
    spec = desk_spec(stage_depths=(2, 2, 2, 2))
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    image = Tensor(split_rng(0, 2).random((16, 3, 32, 32)), dtype=np.float32)
    with Tape() as tape:
        model.loss(image, plan)
    assert tape_owned_bytes(tape) == 9835552
    attn = [n for n in tape.nodes if n.op == "attention"]
    mlps = [n for n in tape.nodes if n.op == "mlp"]
    assert len(attn) == len(mlps) == 14
    # [nB, heads, T, T], heads read from the [T*T, heads] bias rows that
    # every desk block has
    scores = {
        (q.shape[0], b.shape[1]) + q.shape[1:2] * 2 for q, _, _, b in (n.inputs for n in attn)
    }
    hidden = {x.shape[:-1] + w1.shape[1:] for x, w1 in (n.inputs[:2] for n in mlps)}
    assert not {"gelu", "softmax"} & {n.op for n in tape.nodes}
    assert all(n.output.shape not in scores | hidden for n in tape.nodes)


@pytest.mark.parametrize("width", [0, 24])
def test_decoder_width_turns_on_the_embedding(width):
    model = SwinMae(desk_spec(decoder_variant="VIT", decoder_width=width), seed=0)
    if width:
        assert model.params["dec.embed.w"].shape == (model.spec.stage_dims[-1], width)
        assert model.params["dec.norm.g"].shape == (width,)
    else:
        assert "dec.embed.w" not in model.params
    spec = model.spec
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    assert np.isfinite(model.loss(Tensor(split_rng(0, 2).random((1, 3, 32, 32))), plan).item())


def test_negative_decoder_width_rejected():
    with pytest.raises(TensorError, match="decoder_width"):
        desk_spec(decoder_variant="VIT", decoder_width=-1)


def test_decoder_width_rejected_with_swin_decoder():
    with pytest.raises(TensorError, match="decoder_width"):
        desk_spec(decoder_variant="SWIN", decoder_width=64)


def test_swin_mae_defaults_to_f32_and_its_loss_tape_stays_f32():
    """No f64 constant may promote the training hot path."""
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    assert model.dtype == np.float32
    assert {p.dtype for _, p in model.params.items()} == {np.dtype(np.float32)}
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    image = split_rng(0, 2).random((16, 3, 32, 32)).astype(np.float32)
    with Tape() as tape:
        loss = model.loss(Tensor(image), plan)
    assert {n.output.dtype for n in tape.nodes} == {np.dtype(np.float32)}
    T.backward(loss, tape)
    assert {p.grad.dtype for _, p in model.params.items()} == {np.dtype(np.float32)}


def test_backward_frees_the_tape_as_it_walks_it():
    """A B=16 f32 desk loss: after backward only the parameter gradients stay
    above the level before the forward pass, and backward never holds more
    than the forward tape plus those gradients."""
    mib = 1 << 20
    for depths in ((1, 1, 1, 1), (2, 2, 2, 2)):
        spec = desk_spec(stage_depths=depths)
        model = SwinMae(spec, seed=0)
        plan = build_mask_plan(
            spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
        )
        image = Tensor(split_rng(0, 2).random((16, 3, 32, 32)), dtype=np.float32)
        model.loss(image, plan)  # fill the window-geometry caches off the count
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = model.loss(image, plan)
            tape_bytes, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            T.backward(loss, tape)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for _, p in model.params.items())
        assert held <= grad_bytes + mib // 4, (depths, held / mib, grad_bytes / mib)
        assert peak <= tape_bytes + grad_bytes, (depths, peak / mib, tape_bytes / mib)


def read_only_backward(fn):
    """`fn` handed a read-only view of its gradient (array scalars are
    immutable already; they become 0-d arrays)."""
    def bw(g):
        g = np.asarray(g).view()
        g.flags.writeable = False
        return fn(g)
    return bw


def desk_mae_loss(**spec_kw):
    def loss():
        spec = desk_spec(**spec_kw)
        plan = build_mask_plan(
            spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
        )
        model = SwinMae(spec, seed=0)
        return model, model.loss(Tensor(split_rng(0, 2).random((2, 3, 32, 32))), plan)
    return loss


def unet_loss():
    unet = SwinUnet(SwinUnetSpec(image=PatchSpec(32, 32, 3, patch_side=4),
                                 use_abs_pos_embed=True), seed=0)
    labels = split_rng(0, 3).integers(0, 3, size=(2, 32, 32))
    return unet, unet.loss(Tensor(split_rng(0, 2).random((2, 3, 32, 32))), labels)


@pytest.mark.parametrize("loss", [
    desk_mae_loss(stage_depths=(2, 2, 2, 2)),
    desk_mae_loss(encoder_variant="I", decoder_variant="VIT", use_abs_pos_embed=True),
    unet_loss,
], ids=["desk-shifted", "variant-i-vit-pe", "swin-unet-pe"])
def test_no_backward_writes_into_the_gradient_it_is_handed(loss):
    """Tensor.accumulate_grad keeps a leaf's gradient without a copy, which
    is sound only while no backward closure writes into the gradient it
    receives: with every closure handed a read-only one, backward runs and
    gives the same gradients."""
    grads = []
    for read_only in (False, True):
        with Tape() as tape:
            model, out = loss()
        if read_only:
            for node in tape.nodes:
                node.backward_fn = read_only_backward(node.backward_fn)
        T.backward(out, tape)
        grads.append({n: p.grad.tobytes() for n, p in model.params.items() if p.grad is not None})
    assert grads[0] and grads[0] == grads[1]


def test_reconstruct_casts_input_to_model_dtype():
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    image = split_rng(0, 2).random((2, 3, 32, 32))
    recon = model.reconstruct(Tensor(image), plan)
    assert recon.dtype == np.float32
    cast = model.reconstruct(Tensor(image.astype(np.float32)), plan)
    assert np.array_equal(recon.data, cast.data)


def test_variant_i_pos_embed_reaches_loss():
    spec = desk_spec(encoder_variant="I", use_abs_pos_embed=True, decoder_variant="VIT")
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 1)
    )
    x = Tensor(split_rng(0, 2).random((1, 3, 32, 32)))
    before = model.loss(x, plan).item()
    pe = model.params["enc.pos_embed"]
    pe.data = pe.data + np.random.default_rng(3).normal(0.0, 0.1, pe.shape)
    assert model.loss(x, plan).item() != before


def test_vit_decoder_block_mixes_globally():
    # a 4x4 latent grid is wider than the 2-token attention window
    spec = desk_spec(
        stage_depths=(1, 1), head_counts=(2, 2), decoder_variant="VIT",
        decoder_depth=1,
    )
    model = SwinMae(spec, seed=0)
    side, dim = spec.stage_sides[-1], spec.stage_dims[-1]
    assert side > spec.attn_window
    rng = np.random.default_rng(4)
    lat = rng.standard_normal((1, side * side, dim))
    base = model.decode(TokenGrid(side, side, Tensor(lat))).data
    lat[0, 0] += rng.standard_normal(dim)
    out = model.decode(TokenGrid(side, side, Tensor(lat))).data
    assert np.all(np.any(out != base, axis=-1))


def test_vit_decoder_blocks_have_no_relative_bias():
    names = SwinMae(desk_spec(decoder_variant="VIT"), seed=0).params.names()
    assert "dec.block1.attn.wq.w" in names
    assert not [n for n in names if n.startswith("dec.") and "rel_table" in n]


def test_end_to_end_grad_check_small():
    model, spec = tiny_model()
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 4)
    )
    x = Tensor(np.random.default_rng(9).random((1, 3, 16, 16)))
    # input gradient through the whole encoder/decoder stack
    err = T.grad_check(lambda t: model.loss(t, plan), x, h=1e-5)
    assert err < 1e-4


def test_parameter_grad_check_sample():
    model, spec = tiny_model(np.float64)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 5)
    )
    x = Tensor(np.random.default_rng(10).random((1, 3, 16, 16)))
    h = 1e-5
    for name in ("mask_token", "enc.stage1.block0.attn.wq.w", "dec.proj.b"):
        p = model.params[name]
        model.params.zero_grad()
        with Tape() as tape:
            loss = model.loss(x, plan)
        T.backward(loss, tape)
        analytic = p.grad.reshape(-1)
        flat = p.data.reshape(-1)
        idx = np.random.default_rng(11).choice(flat.size, size=min(5, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = model.loss(x, plan).item()
            flat[i] = orig - h
            fm = model.loss(x, plan).item()
            flat[i] = orig
            num = (fp - fm) / (2 * h)
            assert abs(analytic[i] - num) / max(1.0, abs(analytic[i])) < 1e-4, name


def test_attention_records_no_scale_or_add_node_and_splits_heads_as_views():
    """Three projection matmuls, the bias gather, the attention core and the
    output projection. The core splits the heads as views of the
    projections, holds no score- or activation-sized copy of them, and hands
    back contiguous [nB, T, C] and [T*T, heads] gradients."""
    ps = block_params(4, 2, 2)
    xw = Tensor(np.random.default_rng(3).standard_normal((8, 4, 4)), requires_grad=True)
    with Tape() as tape:
        attention(
            xw, ps, "blk.attn", 2, relative_position_index(2),
            P.shift_attention_mask(4, 4, 2, 1),
        )
    assert [n.op for n in tape.nodes] == ["matmul"] * 3 + ["gather", "attention", "matmul"]
    core = tape.nodes[4]
    assert [id(t) for t in core.inputs] == [id(n.output) for n in tape.nodes[:4]]
    held = [c.cell_contents for c in core.backward_fn.__closure__]
    heads = [a for a in held if isinstance(a, np.ndarray) and a.size == xw.data.size]
    assert {a.shape for a in heads} == {(8, 2, 4, 2)}
    assert [sum(np.shares_memory(a, x.data) for a in heads) for x in core.inputs[:3]] == [1] * 3
    grads = core.backward_fn(np.ones(core.output.shape))
    assert [g.shape for g in grads] == [(8, 4, 4)] * 3 + [(16, 2)]
    assert all(g.flags.c_contiguous for g in grads)


def test_window_geometry_is_built_once_and_read_only():
    for build in (
        lambda: relative_position_index(3),
        lambda: P.shift_attention_mask(6, 6, 3, 1, np.dtype(np.float32)),
    ):
        a = build()
        assert build() is a
        assert not a.flags.writeable

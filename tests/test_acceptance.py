"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line,
so the suite output doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

import swinmae.tensor as T
from swinmae.tensor import ParamStore, Tensor, TensorError
from swinmae.patches import PatchSpec, TokenGrid
from swinmae.masking import build_mask_plan, expand_sparse_index, split_rng
from swinmae.model import (
    ModelSpec, SwinMae, desk_spec, masked_mse_loss, swin_block_forward,
)
from swinmae.training import (
    Adam, cosine_lr, load_checkpoint, load_params_strict,
    run_pretraining, save_checkpoint, train_step,
)
from swinmae.segmentation import SwinUnetSpec, build_swin_unet_from_checkpoint
from swinmae.metrics import area_metrics, confusion_counts, hausdorff_per_class
from swinmae.data import generate_synthetic_dataset, synth_pair
from swinmae.config import RunConfig
from swinmae.cli import run_grid


def check(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1


def test_criterion_01_window_masking_oracle():
    t0 = time.time()
    cases = checked = 0
    ok = True
    for d in range(1, 5):
        for r in range(1, 5):
            for ratio in (0.25, 0.5, 0.75):
                for seed in range(100):
                    cases += 1
                    noise = split_rng(seed, d, r).random(d * d)
                    order = np.argsort(noise, kind="stable")
                    n_keep = int(d * d * (1.0 - ratio))
                    oracle = set()
                    for win in order[:n_keep]:
                        wr, wc = divmod(int(win), d)
                        for i in range(r):
                            for j in range(r):
                                oracle.add((wr * r + i) * (d * r) + wc * r + j)

                    class Fixed:
                        def random(self, n):
                            return noise

                    if n_keep == 0:
                        # empty keep set: the builder refuses instead of
                        # emitting a plan with no visible tokens
                        with pytest.raises(TensorError):
                            build_mask_plan(d, r, ratio, Fixed())
                        continue
                    plan = build_mask_plan(d, r, ratio, Fixed())
                    got = set(int(i) for i in plan.keep_indices)
                    ok = ok and got == oracle
                    checked += 1
    elapsed = time.time() - t0
    ok = ok and cases == 4800 and elapsed < 5.0
    check(1, "window-masking oracle", ok,
          f"{checked}/{cases} keep-sets exact, {elapsed:.2f}s")


def test_criterion_02_sparse_index_exhaustive():
    ok = True
    for d in range(1, 5):
        for r in range(1, 5):
            for x in range(d * d):
                want = (x // d) * d * r * r + (x % d) * r
                ok = ok and expand_sparse_index(x, d, r) == want
    check(2, "sparse-index expansion", ok, "all x < d*d, d,r in 1..4")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    per_op = 0.0

    def run(f, x):
        nonlocal per_op
        per_op = max(per_op, T.grad_check(f, Tensor(x), h=1e-5))

    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 5))
    run(lambda x: T.sum_(T.mul(x, Tensor(b))), a.copy())
    run(lambda x: T.sum_(T.add(x, Tensor(b))), a.copy())
    run(lambda x: T.sum_(T.matmul(x, Tensor(w))), a.copy())
    bias = Tensor(rng.standard_normal(5))
    run(lambda x: T.sum_(T.matmul(x, Tensor(w), bias)), a.copy())
    run(lambda x: T.sum_(T.sqrt(x)), rng.random((3, 4)) + 0.5)
    run(lambda x: T.sum_(T.exp(x)), 0.3 * a.copy())
    run(lambda x: T.sum_(T.gelu(x)), a.copy())
    run(lambda x: T.sum_(T.square(T.softmax_lastdim(x))), a.copy())
    gamma = Tensor(rng.standard_normal(4))
    beta = Tensor(rng.standard_normal(4))
    run(lambda x: T.sum_(T.layer_norm(x, gamma, beta)), a.copy())
    idx = np.array([2, 0, 2])
    run(lambda x: T.sum_(T.square(T.gather(x, idx, axis=0))), a.copy())
    labels = np.array([1, 3, 0])
    run(lambda x: T.softmax_cross_entropy(T.reshape(x, (3, 4)), labels), a.copy())
    run(lambda x: T.sum_(T.square(T.transpose(x, (1, 0)))), a.copy())
    run(lambda x: T.mean(T.square(x)), a.copy())

    spec = desk_spec(
        image=PatchSpec(16, 16, 3, patch_side=2), embed_dim=8,
    )
    model = SwinMae(spec, seed=0)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 4)
    )
    image = split_rng(0, 3).random((1, 3, 16, 16))
    end_to_end = T.grad_check(lambda x: model.loss(x, plan), Tensor(image), h=1e-5)
    elapsed = time.time() - t0
    ok = per_op < 1e-6 and end_to_end < 1e-4 and elapsed < 120.0
    check(3, "gradient correctness", ok,
          f"per-op {per_op:.2e}, end-to-end {end_to_end:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_loss_locality():
    rng = np.random.default_rng(0)
    ok = True
    for case in range(50):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        plan = build_mask_plan(d, r, 0.5, split_rng(case, 0))
        side = d * r
        px = 2 * side  # 2x2 pixels per token
        recon = Tensor(rng.standard_normal((1, 3, px, px)))
        target = rng.standard_normal((1, 3, px, px))
        recon.requires_grad = True
        recon.zero_grad()
        with T.Tape() as tape:
            loss = masked_mse_loss(recon, Tensor(target), plan)
        T.backward(loss, tape)
        visible = plan.pixel_mask(px, px) == 0
        ok = ok and np.all(recon.grad[:, :, visible] == 0.0)
        ok = ok and np.any(recon.grad[:, :, ~visible] != 0.0)
    check(4, "loss locality", ok, "visible-pixel grads bit-zero, 50 cases")


# --------------------------------------------------------------- criterion 5


def _block_params(dim, heads, window, seed):
    from swinmae.model import _init_block

    ps = ParamStore()
    _init_block(ps, "blk", dim, heads, window, split_rng(seed), np.float64)
    return ps


def _window_of(token, side, window):
    r, c = divmod(token, side)
    return (r // window, c // window)


def test_criterion_05_window_isolation_and_shift():
    rng = np.random.default_rng(0)
    side, window, dim = 4, 2, 4
    iso_ok = True
    for case in range(20):
        ps = _block_params(dim, 2, window, seed=case)
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
                iso_ok = iso_ok and np.max(np.abs(got[0, t] - ref[0, t])) < 1e-12

    corners = {0, side - 1, side * (side - 1), side * side - 1}
    cross_ok = True
    for case in range(20):
        ps = _block_params(dim, 2, window, seed=100 + case)
        base = rng.standard_normal((1, side * side, dim))
        probe = int(rng.integers(0, side * side))
        while probe in corners:
            probe = int(rng.integers(0, side * side))
        ref = swin_block_forward(
            TokenGrid(side, side, Tensor(base)), ps, "blk", 2, window, True
        ).data.data
        bumped = base.copy()
        bumped[0, probe, 0] += 1.0
        got = swin_block_forward(
            TokenGrid(side, side, Tensor(bumped)), ps, "blk", 2, window, True
        ).data.data
        pw = _window_of(probe, side, window)
        crossed = any(
            _window_of(t, side, window) != pw
            and np.max(np.abs(got[0, t] - ref[0, t])) > 1e-9
            for t in range(side * side)
        )
        cross_ok = cross_ok and crossed
    check(5, "window isolation / shift crossing", iso_ok and cross_ok,
          "20 unshifted + 20 shifted cases")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_full_scale_shape_contracts():
    base = dict(
        image=PatchSpec(224, 224, 3, patch_side=4),
        encoder_variant="III", embed_dim=96,
        stage_depths=(2, 2, 6, 2), head_counts=(3, 6, 12, 24),
        attn_window=7, mask_window_r=4, mask_ratio=0.75,
    )
    img = np.random.default_rng(0).random((1, 3, 224, 224)).astype(np.float32)
    spec_v = ModelSpec(decoder_variant="VIT", **base)
    model_v = SwinMae(spec_v, seed=0, dtype=np.float32)
    plan = build_mask_plan(
        spec_v.mask_grid_d, spec_v.mask_window_r, spec_v.mask_ratio, split_rng(0, 0)
    )
    latent, _ = model_v.encode(Tensor(img), plan)
    tokens_v = model_v.decode(latent)
    spec_s = ModelSpec(decoder_variant="SWIN", **base)
    model_s = SwinMae(spec_s, seed=0, dtype=np.float32)
    latent_s, _ = model_s.encode(Tensor(img), plan)
    tokens_s = model_s.decode(latent_s)
    ok = (
        (latent.h_tokens, latent.w_tokens) == (7, 7)
        and tokens_v.shape == (1, 49, 3072)
        and tokens_s.shape == (1, 56 * 56, 48)
    )
    check(6, "full-scale shape contracts", ok,
          f"latent {latent.h_tokens}x{latent.w_tokens}, "
          f"VIT D={tokens_v.shape[-1]}, SWIN D={tokens_s.shape[-1]}")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_schedule_values():
    lr_max, m = 1e-4, 40
    start = cosine_lr(lr_max, 0, m)
    end = cosine_lr(lr_max, m, m)
    mid = cosine_lr(lr_max, m // 2, m)
    ok = (
        start == lr_max
        and end == 0.0
        and math.isclose(mid, lr_max / 2, rel_tol=1e-12)
    )
    check(7, "cosine schedule", ok,
          f"lr(0)={start!r}, lr(20)={mid!r}, lr(40)={end!r}")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_overfit_sanity():
    t0 = time.time()
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    opt = Adam(model.params)
    batch = np.stack(
        [synth_pair(32, split_rng(0, 5, i), labeled=False)[0] for i in range(4)]
    )
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 6)
    )
    first = last = train_step(model, batch, plan, opt, 1e-3)
    for _ in range(499):
        last = train_step(model, batch, plan, opt, 1e-3)
    elapsed = time.time() - t0
    ok = last < 0.01 * first and elapsed < 300.0
    check(8, "overfit sanity", ok,
          f"loss {first:.4f} -> {last:.6f} ({100 * last / first:.2f}%), "
          f"{elapsed:.0f}s")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_transfer_census():
    unet = SwinUnetSpec(image=PatchSpec(32, 32, 3, patch_side=4), num_classes=3)

    def tensors_for(variant):
        mae = SwinMae(desk_spec(encoder_variant=variant), seed=5)
        return {n: mae.params[n].data.copy() for n in mae.params.names()}

    model3, rep3 = build_swin_unet_from_checkpoint(tensors_for("III"), unet, seed=0)
    full = rep3.missing == [] and sorted(rep3.loaded) == sorted(
        model3.encoder_param_names()
    )
    model1, rep1 = build_swin_unet_from_checkpoint(tensors_for("I"), unet, seed=0)
    last_stage = {
        n for n in model1.encoder_param_names()
        if n.startswith("enc.stage3.") or n.startswith("enc.merge2.")
    }
    one_stage = set(rep1.missing) == last_stage and last_stage
    check(9, "transfer census", bool(full and one_stage),
          f"variant III: 0 missing; variant I: {len(rep1.missing)} names "
          "of the final merge+stage missing")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        ncls = 3
        pred = rng.integers(0, ncls, size=(16, 16))
        gt = rng.integers(0, ncls, size=(16, 16))
        got = {
            k: float(v[0])
            for k, v in area_metrics(confusion_counts(pred[None], gt[None], ncls)).items()
        }
        # loop oracles
        dsc, mpa, miou = [], [], []
        for c in range(1, ncls):
            tp = fp = fn = tn = 0
            for p, g in zip(pred.ravel(), gt.ravel()):
                if p == c and g == c:
                    tp += 1
                elif p == c:
                    fp += 1
                elif g == c:
                    fn += 1
                else:
                    tn += 1
            dsc.append(2 * tp / (fp + 2 * tp + fn) if fp + tp + fn else 1.0)
            mpa.append((tp + tn) / 256)
            miou.append(tp / (fn + tp + fp) if fp + tp + fn else 1.0)
        ok = ok and got["dsc"] == pytest.approx(100 * np.mean(dsc), abs=1e-12)
        ok = ok and got["mpa"] == pytest.approx(100 * np.mean(mpa), abs=1e-12)
        ok = ok and got["miou"] == pytest.approx(100 * np.mean(miou), abs=1e-12)
        # algebraic identity per class
        for D, I in zip(dsc, miou):
            ok = ok and abs(D - 2 * I / (1 + I)) < 1e-12
        # hausdorff against the double loop, class 1: with num_classes=2 the
        # evaluation's function compares only pred == 1 with gt == 1
        pa = np.argwhere(pred == 1)
        ga = np.argwhere(gt == 1)
        if len(pa) and len(ga):
            worst = 0.0
            for direction in ((pa, ga), (ga, pa)):
                for x in direction[0]:
                    best = min(math.dist(x, y) for y in direction[1])
                    worst = max(worst, best)
            got = hausdorff_per_class(pred, gt, 2)
            ok = ok and got == pytest.approx(worst, rel=1e-12)
    check(10, "metric oracles", ok, "100 random 16x16 label maps")


# -------------------------------------------------------------- criterion 11


def test_criterion_11_trend_reproduction(tmp_path):
    t0 = time.time()
    data_dir = tmp_path / "trend_data"
    generate_synthetic_dataset(200, 100, seed=0, out_dir=data_dir)
    rows = [
        ("window", dict(mask_mode="window"), {}),
        ("scratch", None, {}),
        ("random-mask", dict(mask_mode="random"), {}),
    ]
    pretrain_cfg = RunConfig(data_dir=data_dir, epochs=24, lr_max=3e-3, batch_size=16)
    finetune_cfg = RunConfig(
        data_dir=data_dir, epochs=8, lr_max=1e-3, batch_size=16, augment=False
    )
    window, scratch, rmask = run_grid(rows, (0, 1, 2), pretrain_cfg, finetune_cfg)

    a = b = c = 0
    for (hist_window, ft_window, _), (_, ft_scratch, _), (hist_random, ft_rmask, _) in zip(
        window, scratch, rmask
    ):
        c += hist_random[5] < hist_window[5]
        miou_pre = ft_window[-1]["miou_pct"]
        a += miou_pre >= ft_scratch[-1]["miou_pct"]
        b += miou_pre >= ft_rmask[-1]["miou_pct"]
    elapsed = time.time() - t0
    ok = a >= 2 and b >= 2 and c >= 2 and elapsed < 1800.0
    check(11, "trend reproduction", ok,
          f"pretrained>=scratch {a}/3, window>=random-mask {b}/3, "
          f"random-mask easier upstream {c}/3, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 12


def test_criterion_12_determinism_and_checkpoint(tmp_path):
    spec = desk_spec()
    images = np.stack(
        [synth_pair(32, split_rng(1, 5, i), labeled=False)[0] for i in range(6)]
    )

    def run(tag):
        model = SwinMae(spec, seed=3)
        path = tmp_path / f"loss_{tag}.csv"
        run_pretraining(model, images, 2, 1e-3, 3, seed=9, csv_path=path)
        return model, path.read_bytes()

    model, csv1 = run("a")
    _, csv2 = run("b")
    csv_ok = csv1 == csv2

    ck = tmp_path / "model.ckpt"
    save_checkpoint(ck, model.params)
    fresh = SwinMae(spec, seed=77)
    _, tensors = load_checkpoint(ck)
    load_params_strict(fresh.params, tensors)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(2, 0)
    )
    probe = Tensor(images[:1])
    out_orig = model.forward(probe, plan).data
    out_loaded = fresh.forward(Tensor(images[:1]), plan).data
    forward_ok = np.array_equal(out_orig, out_loaded)
    check(12, "determinism & checkpoint", csv_ok and forward_ok,
          "byte-identical CSVs, bit-exact restored forward")

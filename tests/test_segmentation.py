import numpy as np
import pytest

import swinmae.tensor as T
from swinmae import segmentation, training
from swinmae.tensor import Tensor, TensorError
from swinmae.patches import PatchSpec
from swinmae.model import SwinMae, desk_spec
from swinmae.metrics import hausdorff_per_class
from swinmae.training import Adam, CheckpointError, write_csv
from swinmae.segmentation import (
    SwinUnet, SwinUnetSpec, augment_batch, build_swin_unet_from_checkpoint,
    evaluate_segmentation, run_finetune,
)


def unet_spec(**overrides):
    base = dict(image=PatchSpec(32, 32, 3, patch_side=4), num_classes=3)
    base.update(overrides)
    return SwinUnetSpec(**base)


def rand_images(n, seed=0):
    return np.random.default_rng(seed).random((n, 3, 32, 32))


def test_forward_shapes_and_predict_range():
    model = SwinUnet(unet_spec(), seed=0)
    logits = model.forward(Tensor(rand_images(2)))
    assert logits.shape == (2, 3, 32, 32)
    pred = model.predict(rand_images(2, seed=1))
    assert pred.shape == (2, 32, 32)
    assert pred.min() >= 0 and pred.max() < 3


def test_abs_pos_embed_flag_adds_parameter():
    without = SwinUnet(unet_spec(), seed=0)
    with_pe = SwinUnet(unet_spec(use_abs_pos_embed=True), seed=0)
    assert "enc.pos_embed" not in without.params.names()
    assert "enc.pos_embed" in with_pe.params.names()
    # the extra parameter is downstream-only: it never counts as transferable
    assert "enc.pos_embed" not in with_pe.encoder_param_names()


def test_abs_pos_embed_reaches_logits():
    model = SwinUnet(unet_spec(use_abs_pos_embed=True), seed=0)
    x = Tensor(rand_images(1))
    before = model.forward(x).data
    pe = model.params["enc.pos_embed"]
    pe.data = pe.data + np.random.default_rng(1).normal(0.0, 0.1, pe.shape)
    assert not np.array_equal(model.forward(x).data, before)


def test_loss_positive_and_near_log_ncls_at_init():
    model = SwinUnet(unet_spec(), seed=0)
    labels = np.random.default_rng(0).integers(0, 3, size=(1, 32, 32))
    with T.Tape():
        loss = model.loss(Tensor(rand_images(1)), labels)
    # small init keeps logits near zero, so loss sits near ln(3)
    assert abs(loss.item() - np.log(3)) < 0.2


def test_loss_decreases_with_training():
    model = SwinUnet(unet_spec(), seed=0)
    opt = Adam(model.params)
    imgs = rand_images(1, seed=2)
    labels = np.zeros((1, 32, 32), dtype=int)
    labels[0, 8:24, 8:24] = 1
    losses = []
    for _ in range(10):
        opt.zero_grad()
        with T.Tape() as tape:
            loss = model.loss(Tensor(imgs), labels)
        T.backward(loss, tape)
        opt.step(1e-2)
        losses.append(loss.item())
    assert losses[-1] < losses[0] * 0.8


def test_spec_rejects_single_class():
    with pytest.raises(TensorError, match="foreground"):
        unet_spec(num_classes=1)


# ----------------------------------------------------------------- transfer


def pretrained_tensors(variant="III"):
    mae = SwinMae(desk_spec(encoder_variant=variant), seed=5)
    return {n: mae.params[n].data.copy() for n in mae.params.names()}


def test_transfer_census_full_coverage_variant_iii():
    tensors = pretrained_tensors("III")
    model, report = build_swin_unet_from_checkpoint(tensors, unet_spec(), seed=0)
    assert report.missing == []
    assert sorted(report.loaded) == sorted(model.encoder_param_names())
    # every loaded array is bit-identical to the checkpoint
    for name in report.loaded:
        np.testing.assert_array_equal(model.params[name].data, tensors[name])
    # decoder and head were freshly initialized
    assert all(not n.startswith("enc.") for n in report.initialized)


def test_transfer_census_variant_i_missing_last_stage():
    tensors = pretrained_tensors("I")
    _, report = build_swin_unet_from_checkpoint(tensors, unet_spec(), seed=0)
    assert report.missing != []
    assert all(
        n.startswith("enc.merge2.") or n.startswith("enc.stage3.")
        for n in report.missing
    )


def test_transfer_none_means_random_init():
    model, report = build_swin_unet_from_checkpoint(None, unet_spec(), seed=0)
    assert report.loaded == [] and report.missing == []
    assert report.initialized == model.params.names()


def test_transfer_shape_mismatch_rejected():
    tensors = pretrained_tensors("III")
    tensors["enc.embed.w"] = np.zeros((7, 7))
    with pytest.raises(CheckpointError, match="shape"):
        build_swin_unet_from_checkpoint(tensors, unet_spec(), seed=0)


def test_decoder_weight_mirroring_bit_equal():
    tensors = pretrained_tensors("III")
    model, report = build_swin_unet_from_checkpoint(
        tensors, unet_spec(transfer_decoder_weights=True), seed=0
    )
    mirrored = [n for n in report.loaded if n.startswith("up.stage")]
    assert mirrored
    for name in mirrored:
        src = "enc." + name[len("up."):]
        np.testing.assert_array_equal(model.params[name].data, tensors[src])
    # without the flag those stay randomly initialized
    model2, report2 = build_swin_unet_from_checkpoint(tensors, unet_spec(), seed=0)
    assert all(not n.startswith("up.") for n in report2.loaded)


def test_swin_unet_defaults_to_f32_and_its_loss_tape_stays_f32():
    model = SwinUnet(unet_spec(), seed=0)
    assert model.dtype == np.float32
    labels = np.random.default_rng(0).integers(0, 3, size=(2, 32, 32))
    with T.Tape() as tape:
        model.loss(Tensor(rand_images(2), dtype=np.float32), labels)
    assert {n.output.dtype for n in tape.nodes} == {np.dtype(np.float32)}


def test_f64_checkpoint_transfers_into_f32_unet():
    mae = SwinMae(desk_spec(), seed=5, dtype=np.float64)
    tensors = {n: p.data.copy() for n, p in mae.params.items()}
    model, report = build_swin_unet_from_checkpoint(tensors, unet_spec(), seed=0)
    assert report.loaded and not report.missing
    assert {p.dtype for _, p in model.params.items()} == {np.dtype(np.float32)}
    for n in report.loaded:
        np.testing.assert_array_equal(
            model.params[n].data, tensors[n].astype(np.float32)
        )


# ----------------------------------------------------- augmentation and eval


def test_augment_preserves_shapes_and_ranges():
    rng = np.random.default_rng(0)
    imgs = rand_images(3)
    labels = rng.integers(0, 3, size=(3, 32, 32))
    out_i, out_l = augment_batch(imgs, labels, np.random.default_rng(1))
    assert out_i.shape == imgs.shape and out_l.shape == labels.shape
    assert out_i.min() >= 0.0 and out_i.max() <= 1.0
    assert set(np.unique(out_l)) <= set(np.unique(labels))
    # inputs are untouched
    assert imgs is not out_i and labels is not out_l


def test_augment_deterministic_given_rng_seed():
    imgs = rand_images(2)
    labels = np.zeros((2, 32, 32), dtype=int)
    a = augment_batch(imgs, labels, np.random.default_rng(7))
    b = augment_batch(imgs, labels, np.random.default_rng(7))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_evaluate_perfect_prediction_scores_100():
    model = SwinUnet(unet_spec(), seed=0)
    imgs = rand_images(2, seed=3)
    labels = model.predict(imgs)
    report = evaluate_segmentation(model, imgs, labels)
    assert report["dsc_pct"] == pytest.approx(100.0)
    assert report["mpa_pct"] == pytest.approx(100.0)
    assert report["miou_pct"] == pytest.approx(100.0)


class PerImagePredict:
    """The same model, predicting one image per forward pass; keeps what it
    predicts in `preds`."""

    def __init__(self, model):
        self.model, self.spec = model, model.spec
        self.preds = []

    def predict(self, images):
        self.preds.append(np.stack([self.model.predict(img[None])[0] for img in images]))
        return self.preds[-1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_evaluation_matches_per_image_loop(dtype, monkeypatch):
    model = SwinUnet(unet_spec(), seed=2, dtype=dtype)
    imgs = rand_images(6, seed=5)
    labels = np.random.default_rng(6).integers(0, 3, size=(6, 32, 32))
    ref = PerImagePredict(model)
    ref_report = evaluate_segmentation(ref, imgs, labels)
    predict = model.predict
    # passes of 4 and 2 images, then the whole split in one pass
    for pixels, passes in ((4 * 32 * 32, [4, 2]), (segmentation.EVAL_PIXELS, [6])):
        monkeypatch.setattr(segmentation, "EVAL_PIXELS", pixels)
        preds = []
        monkeypatch.setattr(model, "predict", lambda x: preds.append(predict(x)) or preds[-1])
        report = evaluate_segmentation(model, imgs, labels)
        assert [len(p) for p in preds] == passes
        np.testing.assert_array_equal(np.concatenate(preds), np.concatenate(ref.preds))
        assert report == ref_report


@pytest.mark.parametrize("n, side, pixels", [
    (1, 32, segmentation.EVAL_PIXELS), (20, 32, segmentation.EVAL_PIXELS),
    (785, 32, segmentation.EVAL_PIXELS), (17, 224, segmentation.EVAL_PIXELS),
    (7, 16, 3 * 16 * 16), (5, 16, 16 * 16 - 1),
])
def test_evaluation_forward_passes_follow_the_pixel_budget(n, side, pixels, monkeypatch):
    """n H×W images take ceil(n / (EVAL_PIXELS // (H·W))) forward passes,
    and at least one image per pass."""
    monkeypatch.setattr(segmentation, "EVAL_PIXELS", pixels)
    calls = []

    class Stub:
        spec = unet_spec()

        def predict(self, images):
            calls.append(len(images))
            return np.zeros((len(images), side, side), dtype=np.int64)

    images = np.zeros((n, 1, side, side), dtype=np.float32)
    evaluate_segmentation(Stub(), images, np.zeros((n, side, side), dtype=np.int64))
    per_pass = max(1, pixels // (side * side))
    assert len(calls) == -(-n // per_pass)
    assert sum(calls) == n and max(calls) <= per_pass


def reference_report(preds, labels, ncls, warn=None):
    """The per-image evaluation loop: Python-int tallies per image and class,
    Python division, and np.mean over classes, then over images."""
    dsc, mpa, miou, hds = [], [], [], []
    for pred, gt in zip(preds, labels):
        per_class = []
        for c in range(1, ncls):
            p, g = pred == c, gt == c
            tp, fp = int(np.sum(p & g)), int(np.sum(p & ~g))
            fn, tn = int(np.sum(~p & g)), int(np.sum(~p & ~g))
            absent = tp == 0 and fp == 0 and fn == 0
            per_class.append((
                1.0 if absent else 2 * tp / (fp + 2 * tp + fn),
                (tp + tn) / (tp + fp + fn + tn),
                1.0 if absent else tp / (fn + tp + fp),
            ))
        d, a, i = zip(*per_class)
        dsc.append(100.0 * float(np.mean(d)))
        mpa.append(100.0 * float(np.mean(a)))
        miou.append(100.0 * float(np.mean(i)))
        hd = hausdorff_per_class(pred, gt, ncls, warn=warn)
        if hd is not None:
            hds.append(hd)
    return {
        "dsc_pct": float(np.mean(dsc)),
        "mpa_pct": float(np.mean(mpa)),
        "miou_pct": float(np.mean(miou)),
        "hd": float(np.mean(hds)) if hds else float("nan"),
    }


def same_report(a, b):
    """== key by key, with a NaN hd equal to a NaN hd."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (np.isnan(a[k]) and np.isnan(b[k])) for k in a
    )


@pytest.mark.parametrize("ncls", [2, 3, 5])
def test_evaluation_report_equals_the_per_image_reference_loop(ncls):
    """Bit-equal reports and the same warnings, in order, for predictions
    with absent classes, one-sided classes and no comparable class."""
    rng = np.random.default_rng(ncls)
    labels = rng.integers(0, ncls, size=(9, 12, 12))
    preds = labels.copy()
    noise = rng.random(preds.shape) < 0.3
    preds[noise] = rng.integers(0, ncls, int(noise.sum()))
    preds[1] = 0                        # every foreground class one-sided
    labels[2] = 0
    preds[2] = 0                        # every class absent from both maps
    preds[3][preds[3] == ncls - 1] = 0  # the last class only in gt
    cases = {"mixed": (preds, labels), "no hd": (preds[1:3], labels[1:3])}

    class Fixed:
        spec = unet_spec(num_classes=ncls)

        def predict(self, images):
            return self.preds[: len(images)]

    for name, (p, g) in cases.items():
        model = Fixed()
        model.preds = p
        got_warn, want_warn = [], []
        got = evaluate_segmentation(model, np.zeros((len(p), 1, 12, 12)), g, warn=got_warn.append)
        want = reference_report(p, g, ncls, warn=want_warn.append)
        assert same_report(got, want), (name, got, want)
        assert got_warn == want_warn, name
    assert np.isnan(want["hd"])


def test_evaluate_rejects_empty_set():
    model = SwinUnet(unet_spec(), seed=0)
    with pytest.raises(TensorError, match="empty"):
        evaluate_segmentation(model, np.zeros((0, 3, 32, 32)), np.zeros((0, 32, 32)))


def test_metrics_csv_header_and_roundtrip(tmp_path):
    history = [
        {"dsc_pct": 10.0, "mpa_pct": 20.0, "miou_pct": 1.0 / 3.0, "hd": 2.5},
        {"dsc_pct": 30.0, "mpa_pct": 40.0, "miou_pct": 0.5, "hd": float("nan")},
    ]
    path = tmp_path / "m.csv"
    write_csv(
        path, ("epoch", *segmentation.METRICS),
        ((e, *(rep[k] for k in segmentation.METRICS)) for e, rep in enumerate(history)),
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,dsc_pct,mpa_pct,miou_pct,hd"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert int(fields[0]) == 0
    assert float(fields[3]) == 1.0 / 3.0
    assert np.isnan(float(lines[2].split(",")[4]))


def test_finetune_smoke_writes_outputs(tmp_path):
    model = SwinUnet(unet_spec(), seed=0)
    rng = np.random.default_rng(0)
    imgs = rand_images(3, seed=4)
    labels = rng.integers(0, 3, size=(3, 32, 32))
    csv_path = tmp_path / "metrics.csv"
    ck_path = tmp_path / "best.bin"
    history, best_epoch = run_finetune(
        model, imgs[:2], labels[:2], imgs[2:], labels[2:],
        epochs=2, lr_max=1e-3, batch_size=2, seed=1, augment=False,
        csv_path=csv_path, checkpoint_path=ck_path,
    )
    assert len(history) == 2
    assert 0 <= best_epoch < 2
    assert csv_path.read_text().startswith("epoch,dsc_pct,mpa_pct,miou_pct,hd\n")
    assert ck_path.exists()


def test_finetune_deterministic():
    def run():
        model = SwinUnet(unet_spec(), seed=0)
        rng = np.random.default_rng(0)
        imgs = rand_images(3, seed=4)
        labels = rng.integers(0, 3, size=(3, 32, 32))
        history, _ = run_finetune(
            model, imgs[:2], labels[:2], imgs[2:], labels[2:],
            epochs=1, lr_max=1e-3, batch_size=2, seed=1, augment=True,
        )
        return history

    assert run() == run()


def test_finetune_calls_the_benchmark_hooks_through_their_modules(monkeypatch):
    """The benchmark replaces segmentation.evaluate_segmentation and wraps
    training.train_step; fine-tuning must look both up at call time: one
    evaluation per epoch and one step per batch."""
    evals, steps = [], []
    evaluate, step = segmentation.evaluate_segmentation, training.train_step
    monkeypatch.setattr(
        segmentation, "evaluate_segmentation",
        lambda *a, **kw: evals.append(1) or evaluate(*a, **kw),
    )
    monkeypatch.setattr(training, "train_step", lambda *a: steps.append(1) or step(*a))
    n, batch_size, epochs = 5, 2, 2
    imgs = rand_images(n + 1, seed=4)
    labels = np.random.default_rng(0).integers(0, 3, size=(n + 1, 32, 32))
    run_finetune(
        SwinUnet(unet_spec(), seed=0), imgs[:n], labels[:n], imgs[n:], labels[n:],
        epochs=epochs, lr_max=1e-3, batch_size=batch_size, seed=1, augment=False,
    )
    assert len(evals) == epochs
    assert len(steps) == epochs * -(-n // batch_size)

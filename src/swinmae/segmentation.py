"""Downstream segmentation: U-shaped windowed-attention network, transfer of
pretrained encoder weights, fine-tuning with augmentation, and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ParamStore, Tensor, TensorError
from . import patches as P
from .patches import PatchSpec
from .masking import split_rng
from .model import (
    ModelSpec, build_encoder_params, build_expanding_params, encoder_forward,
    expanding_path, _init_linear, _init_norm, _init_pos_embed,
)
from .training import CheckpointError, save_checkpoint, train_epochs, write_csv
from . import metrics as M

# Pixels per forward pass in evaluate_segmentation: 16 images at 224², any
# split of up to 784 images at 32². A 224² full-scale Swin-Unet needs about
# 43 MB per image, so this bounds evaluation at about 0.7 GB above the
# model, whatever the size of the test split.
EVAL_PIXELS = 16 * 224 * 224

# The report keys of evaluate_segmentation, in CSV and table order.
METRICS = ("dsc_pct", "mpa_pct", "miou_pct", "hd")


@dataclass
class SwinUnetSpec:
    image: PatchSpec
    num_classes: int = 3
    embed_dim: int = ModelSpec.embed_dim
    stage_depths: tuple = ModelSpec.stage_depths
    head_counts: tuple = ModelSpec.head_counts
    attn_window: int = ModelSpec.attn_window
    use_abs_pos_embed: bool = False
    transfer_decoder_weights: bool = False

    def __post_init__(self):
        if self.num_classes < 2:
            raise TensorError("need at least background + one foreground class")
        # the backbone's checks refuse a geometry that cannot run
        self.backbone()

    def backbone(self):
        """Encoder-side ModelSpec with parameter names/shapes matching the
        pretraining encoder. The optional absolute position embedding is a
        downstream-only extra, added outside this spec."""
        return ModelSpec(
            image=self.image,
            embed_dim=self.embed_dim,
            stage_depths=self.stage_depths,
            head_counts=self.head_counts,
            attn_window=self.attn_window,
            mask_window_r=1,
            mask_ratio=0.0,
        )


class SwinUnet:
    """Encoder + bottleneck shared with the pretraining model (same parameter
    names), expanding decoder with skip connections, per-pixel class head."""

    def __init__(self, spec, seed=0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.params = ParamStore()
        rng = split_rng(seed, 1)
        self._backbone = spec.backbone()
        build_encoder_params(self.params, self._backbone, rng, self.dtype)
        if spec.use_abs_pos_embed:
            _init_pos_embed(self.params, self._backbone, rng, self.dtype)
        build_expanding_params(
            self.params, self._backbone, "up", rng, self.dtype, skip_fusion=True
        )
        _init_norm(self.params, "head.norm", spec.embed_dim, self.dtype)
        _init_linear(
            self.params, "head.proj", spec.embed_dim,
            spec.image.patch_side ** 2 * spec.num_classes, rng, self.dtype,
        )

    def encoder_param_names(self):
        return [
            n for n in self.params.names()
            if n.startswith("enc.") and n != "enc.pos_embed"
        ]

    def forward(self, image):
        """[B,C,H,W] image -> [B, num_classes, H, W] logits."""
        spec, ps = self.spec, self.params
        g, skips = encoder_forward(image, self._backbone, None, ps)
        g = expanding_path(g, ps, self._backbone, "up", skips)
        x = T.layer_norm(g.data, ps["head.norm.g"], ps["head.norm.b"])
        x = T.matmul(x, ps["head.proj.w"], ps["head.proj.b"])
        h, w, c = spec.image.image_h, spec.image.image_w, spec.num_classes
        # token (p*p*ncls) blocks back to pixel logits
        img = P.unflatten_patches(
            x, h, w, c, spec.image.patch_side
        )
        return img

    def predict(self, image):
        logits = self.forward(Tensor(np.asarray(image, dtype=self.dtype)))
        return np.argmax(logits.data, axis=1)

    def loss(self, image, labels):
        """Mean per-pixel cross-entropy; labels [B,H,W] ints."""
        logits = self.forward(image)
        b, c, h, w = logits.shape
        flat = T.reshape(T.transpose(logits, (0, 2, 3, 1)), (b * h * w, c))
        return T.softmax_cross_entropy(flat, np.asarray(labels).reshape(-1))


# ----------------------------------------------------------------- transfer


@dataclass
class TransferReport:
    loaded: list = field(default_factory=list)
    initialized: list = field(default_factory=list)
    missing: list = field(default_factory=list)


def build_swin_unet_from_checkpoint(tensors, spec, seed=0, dtype=np.float32):
    """Assemble the segmentation model, loading encoder+bottleneck weights by
    name/shape from a pretraining checkpoint's tensor dict (or None for
    random init). Decoder attention blocks mirror the encoder-stage weights
    when spec.transfer_decoder_weights is set."""
    model = SwinUnet(spec, seed=seed, dtype=dtype)
    report = TransferReport()
    if tensors is None:
        report.initialized = model.params.names()
        return model, report
    enc_names = set(model.encoder_param_names())
    for name in model.params.names():
        if name in enc_names and name in tensors:
            arr = tensors[name]
            if model.params[name].data.shape != arr.shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: "
                    f"{model.params[name].data.shape} vs {arr.shape}"
                )
            model.params[name].data = arr.astype(dtype)
            report.loaded.append(name)
        elif name in enc_names:
            report.missing.append(name)
        else:
            report.initialized.append(name)
    if spec.transfer_decoder_weights:
        for name in list(report.initialized):
            if not name.startswith("up.stage"):
                continue
            src = "enc." + name[len("up."):]
            if src in tensors and tensors[src].shape == model.params[name].data.shape:
                model.params[name].data = tensors[src].astype(dtype)
                report.loaded.append(name)
                report.initialized.remove(name)
    return model, report


# ---------------------------------------------------------------- finetune


def augment_batch(images, labels, rng):
    """Fine-tuning augmentation: horizontal flip, small rotation, Gaussian
    blur, brightness/contrast jitter. Geometry-preserving only (no crops)."""
    from scipy import ndimage

    images = images.copy()
    labels = labels.copy()
    for i in range(images.shape[0]):
        if rng.random() < 0.5:
            images[i] = images[i, :, :, ::-1]
            labels[i] = labels[i, :, ::-1]
        angle = rng.uniform(-10.0, 10.0)
        # axes (2, 1) turn every channel's plane as the 2-D default (1, 0) does
        images[i] = ndimage.rotate(
            images[i], angle, axes=(2, 1), reshape=False, order=1, mode="nearest"
        )
        labels[i] = ndimage.rotate(
            labels[i], angle, reshape=False, order=0, mode="nearest"
        )
        sigma = rng.uniform(0.0, 1.0)
        if sigma > 0.05:
            images[i] = ndimage.gaussian_filter(images[i], (0, sigma, sigma))
        brightness = rng.uniform(-0.1, 0.1)
        contrast = rng.uniform(0.9, 1.1)
        images[i] = np.clip((images[i] - 0.5) * contrast + 0.5 + brightness, 0.0, 1.0)
    return images, labels


def evaluate_segmentation(model, images, labels, warn=None):
    """Per-image metrics averaged over the set; returns the report dict.
    Each forward pass predicts as many images as fit in EVAL_PIXELS, and the
    area metrics of the whole set come from one tally."""
    n = images.shape[0]
    if n == 0:
        raise TensorError("empty evaluation set")
    ncls = model.spec.num_classes
    per_pass = max(1, EVAL_PIXELS // (images.shape[-2] * images.shape[-1]))
    preds = np.concatenate([
        model.predict(images[i:i + per_pass]) for i in range(0, n, per_pass)
    ])
    area = M.area_metrics(M.confusion_counts(preds, labels, ncls))
    hds = [M.hausdorff_per_class(pred, gt, ncls, warn=warn) for pred, gt in zip(preds, labels)]
    hds = [hd for hd in hds if hd is not None]
    return {
        "dsc_pct": float(np.mean(area["dsc"])),
        "mpa_pct": float(np.mean(area["mpa"])),
        "miou_pct": float(np.mean(area["miou"])),
        "hd": float(np.mean(hds)) if hds else float("nan"),
    }


def run_finetune(
    model, train_images, train_labels, test_images, test_labels,
    epochs, lr_max, batch_size, seed, augment=True,
    csv_path=None, checkpoint_path=None, log=None,
):
    """Cross-entropy training of all layers; logs test metrics per epoch and
    checkpoints the epoch with the best mIoU. Returns (history, best epoch)."""
    if train_images.shape[0] == 0 or test_images.shape[0] == 0:
        raise TensorError("empty train or test split")
    n = train_images.shape[0]
    batch_size = min(batch_size, n)

    def batches(epoch):
        order = split_rng(seed, epoch, 0).permutation(n)
        for bi in range(0, n, batch_size):
            idx = order[bi:bi + batch_size]
            imgs, labs = train_images[idx], train_labels[idx]
            if augment:
                imgs, labs = augment_batch(imgs, labs, split_rng(seed, epoch, 1, bi))
            yield imgs, labs

    history = []
    best_miou, best_epoch = -1.0, -1
    for epoch, lr, _ in train_epochs(model, epochs, lr_max, batch_size, batches):
        report = evaluate_segmentation(model, test_images, test_labels)
        history.append(report)
        if log:
            log(
                f"epoch {epoch}: miou {report['miou_pct']:.2f}% "
                f"dsc {report['dsc_pct']:.2f}% lr {lr:.2e}"
            )
        if report["miou_pct"] > best_miou:
            best_miou, best_epoch = report["miou_pct"], epoch
            if checkpoint_path:
                save_checkpoint(
                    checkpoint_path, model.params,
                    {"epoch": epoch, "seed": seed, "kind": "finetune",
                     "miou_pct": report["miou_pct"]},
                )
    if csv_path:
        write_csv(
            csv_path, ("epoch", *METRICS),
            ((epoch, *(rep[k] for k in METRICS)) for epoch, rep in enumerate(history)),
        )
    return history, best_epoch

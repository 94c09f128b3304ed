"""Segmentation metrics: per-class confusion counts and Dice / pixel accuracy /
IoU (one-vs-rest, macro-averaged over foreground classes) for a whole stack
of label maps at once, and the exact symmetric Hausdorff distance between
the classes of two label maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import TensorError


@dataclass
class ConfusionCounts:
    """Pixel tallies, each an int array [N images, num_classes]: entry [i, c]
    treats class c of image i as positive."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray


def confusion_counts(pred, gt, num_classes):
    """Per-image, per-class tallies of a stack of [N, H, W] label maps, from
    one bincount over (image, true class, predicted class) triples."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise TensorError(f"shape mismatch {pred.shape} vs {gt.shape}")
    for arr, nm in ((pred, "pred"), (gt, "gt")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise TensorError(f"{nm}: label out of range [0, {num_classes})")
    n, c = pred.shape[0], num_classes
    image = np.arange(n).reshape((n,) + (1,) * (pred.ndim - 1))
    cells = ((image * c + gt) * c + pred).reshape(-1)
    conf = np.bincount(cells, minlength=n * c * c).reshape(n, c, c)
    tp = np.diagonal(conf, axis1=1, axis2=2).copy()
    fn = conf.sum(axis=2) - tp
    fp = conf.sum(axis=1) - tp
    tn = pred[0].size - tp - fn - fp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num, den):
    """num / den elementwise in f64; 1.0 where den == 0, which for these
    tallies means the class is absent from both maps."""
    return np.divide(num, den, out=np.ones(den.shape), where=den != 0)


def area_metrics(counts):
    """{'dsc','mpa','miou'}: per-image arrays [N] in percent, each image's
    mean over its foreground classes.

    `counts` is a ConfusionCounts over [N, num_classes]; class 0
    (background) is excluded from the average. A class absent in both
    prediction and ground truth scores 1.0 by convention.
    """
    tp, fp, fn, tn = (a[:, 1:] for a in (counts.tp, counts.fp, counts.fn, counts.tn))
    if tp.shape[1] == 0:
        raise TensorError("no foreground classes")
    return {
        "dsc": 100.0 * np.mean(_ratio(2 * tp, fp + 2 * tp + fn), axis=1),
        "mpa": 100.0 * np.mean((tp + tn) / (tp + fp + fn + tn), axis=1),
        "miou": 100.0 * np.mean(_ratio(tp, fn + tp + fp), axis=1),
    }


def cdist(a, b):
    """Euclidean distances between the rows of `a` and `b` (scipy.spatial is
    imported on first use). Unused in the package; perfbench's tracer wraps it."""
    from scipy.spatial.distance import cdist as pairwise

    return pairwise(a, b)


def hausdorff_per_class(pred, gt, num_classes, warn=None):
    """Mean Hausdorff over foreground classes present in both maps.

    Classes present on only one side are excluded with a warning; returns
    None when no class is comparable. Exact on the pixel grid: the Euclidean
    distance transform of one map's complement gives every pixel's distance
    to that map's nearest class pixel.
    """
    from scipy import ndimage

    values = []
    for c in range(1, num_classes):
        p, g = pred == c, gt == c
        if not p.any() and not g.any():
            continue
        if not p.any() or not g.any():
            if warn:
                warn(f"hausdorff undefined for class {c}: one side empty")
            continue
        values.append(max(
            float(ndimage.distance_transform_edt(~g)[p].max()),
            float(ndimage.distance_transform_edt(~p)[g].max()),
        ))
    return float(np.mean(values)) if values else None

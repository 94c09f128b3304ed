"""Segmentation metrics: per-class confusion counts, Dice / pixel accuracy /
IoU (one-vs-rest, macro-averaged over foreground classes), and the exact
symmetric Hausdorff distance between the classes of two label maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import TensorError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def confusion_counts(pred, gt, cls, num_classes):
    """Pixel tallies treating class `cls` as positive."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise TensorError(f"shape mismatch {pred.shape} vs {gt.shape}")
    for arr, nm in ((pred, "pred"), (gt, "gt")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise TensorError(f"{nm}: label out of range [0, {num_classes})")
    p = pred == cls
    g = gt == cls
    return ConfusionCounts(
        tp=int(np.sum(p & g)),
        fp=int(np.sum(p & ~g)),
        fn=int(np.sum(~p & g)),
        tn=int(np.sum(~p & ~g)),
    )


def _safe(num, den, absent):
    if den == 0:
        return 1.0 if absent else 0.0
    return num / den


def area_metrics(counts_per_class):
    """{'dsc','mpa','miou'} in percent, macro-averaged over foreground classes.

    `counts_per_class` maps class id -> ConfusionCounts; class 0 (background)
    is excluded from the average. A class absent in both prediction and
    ground truth scores 1.0 by convention.
    """
    fg = [c for c in sorted(counts_per_class) if c != 0]
    if not fg:
        raise TensorError("no foreground classes")
    dsc, mpa, miou = [], [], []
    for c in fg:
        cc = counts_per_class[c]
        absent = cc.tp == 0 and cc.fp == 0 and cc.fn == 0
        dsc.append(_safe(2 * cc.tp, cc.fp + 2 * cc.tp + cc.fn, absent))
        mpa.append((cc.tp + cc.tn) / cc.total)
        miou.append(_safe(cc.tp, cc.fn + cc.tp + cc.fp, absent))
    return {
        "dsc": 100.0 * float(np.mean(dsc)),
        "mpa": 100.0 * float(np.mean(mpa)),
        "miou": 100.0 * float(np.mean(miou)),
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

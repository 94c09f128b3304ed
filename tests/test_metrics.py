import numpy as np
import pytest

from swinmae.metrics import (
    ConfusionCounts, area_metrics, confusion_counts, hausdorff_per_class,
)
from swinmae.tensor import TensorError


def loop_confusion(pred, gt, cls):
    """Pixel-by-pixel oracle for the vectorized tallies."""
    tp = fp = fn = tn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        if p == cls and g == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif g == cls:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def image_counts(*per_class):
    """One image's ConfusionCounts, [1, num_classes], from one
    ConfusionCounts of ints per class."""
    return ConfusionCounts(*(
        np.array([[getattr(cc, f) for cc in per_class]]) for f in ("tp", "fp", "fn", "tn")
    ))


def area_of(*per_class):
    """area_metrics of one image given per-class tallies, as floats."""
    return {k: float(v[0]) for k, v in area_metrics(image_counts(*per_class)).items()}


def test_confusion_counts_match_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ncls = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        pred = rng.integers(0, ncls, size=(n, 9, 7))
        gt = rng.integers(0, ncls, size=(n, 9, 7))
        cc = confusion_counts(pred, gt, ncls)
        assert cc.tp.shape == (n, ncls)
        for i in range(n):
            for cls in range(ncls):
                got = (cc.tp[i, cls], cc.fp[i, cls], cc.fn[i, cls], cc.tn[i, cls])
                assert got == loop_confusion(pred[i], gt[i], cls)
                assert sum(got) == pred[i].size


def test_confusion_counts_rejects_bad_input():
    with pytest.raises(TensorError, match="shape"):
        confusion_counts(np.zeros((1, 2, 2), int), np.zeros((1, 3, 3), int), 2)
    with pytest.raises(TensorError, match="range"):
        confusion_counts(np.array([[[5]]]), np.array([[[0]]]), 2)
    # a label out of range in one image is refused, not tallied in the next
    with pytest.raises(TensorError, match="gt: label out of range"):
        confusion_counts(np.zeros((2, 1, 1), int), np.array([[[2]], [[0]]]), 2)


def test_area_metrics_hand_example():
    # pred/gt of 16 pixels, single foreground class:
    #   tp=4, fp=2, fn=1, tn=9
    cc = ConfusionCounts(tp=4, fp=2, fn=1, tn=9)
    got = area_of(ConfusionCounts(9, 1, 2, 4), cc)
    assert got["dsc"] == pytest.approx(100.0 * 8 / 11)
    assert got["mpa"] == pytest.approx(100.0 * 13 / 16)
    assert got["miou"] == pytest.approx(100.0 * 4 / 7)


def test_dice_iou_identity():
    # DSC = 2*IoU / (1 + IoU) holds exactly for any confusion tally
    rng = np.random.default_rng(1)
    for _ in range(200):
        tp, fp, fn = (int(v) for v in rng.integers(0, 50, size=3))
        if tp + fp + fn == 0:
            continue
        cc = ConfusionCounts(tp, fp, fn, tn=10)
        m = area_of(ConfusionCounts(1, 0, 0, 1), cc)
        iou = m["miou"] / 100.0
        assert m["dsc"] / 100.0 == pytest.approx(2 * iou / (1 + iou), abs=1e-12)


def test_area_metrics_macro_average_over_foreground():
    c1 = ConfusionCounts(tp=3, fp=1, fn=0, tn=12)
    c2 = ConfusionCounts(tp=2, fp=0, fn=2, tn=12)
    got = area_of(ConfusionCounts(0, 0, 0, 16), c1, c2)
    dsc1 = 6 / 7
    dsc2 = 4 / 6
    assert got["dsc"] == pytest.approx(100.0 * (dsc1 + dsc2) / 2)
    iou1 = 3 / 4
    iou2 = 2 / 4
    assert got["miou"] == pytest.approx(100.0 * (iou1 + iou2) / 2)


def test_area_metrics_absent_class_scores_one():
    absent = ConfusionCounts(tp=0, fp=0, fn=0, tn=16)
    got = area_of(ConfusionCounts(16, 0, 0, 0), absent)
    assert got["dsc"] == pytest.approx(100.0)
    assert got["miou"] == pytest.approx(100.0)
    assert got["mpa"] == pytest.approx(100.0)


def test_area_metrics_perfect_prediction():
    rng = np.random.default_rng(2)
    gt = rng.integers(0, 3, size=(2, 12, 12))
    got = area_metrics(confusion_counts(gt, gt, 3))
    for k in ("dsc", "mpa", "miou"):
        assert got[k].tolist() == pytest.approx([100.0, 100.0])


def test_area_metrics_requires_foreground():
    with pytest.raises(TensorError, match="foreground"):
        area_of(ConfusionCounts(1, 0, 0, 1))


# --------------------------------------------------------------- hausdorff


def brute_hausdorff(a, b):
    """All-pairs oracle: every distance between the two (row, col) sets."""
    a = np.asarray(a, dtype=np.float64)[:, None, :]
    b = np.asarray(b, dtype=np.float64)[None, :, :]
    d = np.sqrt(((a - b) ** 2).sum(axis=-1))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def maps(a, b, side=20):
    """Label maps with class 1 on the (row, col) points of `a` (pred) and of
    `b` (gt); everything else is background."""
    pred = np.zeros((side, side), dtype=int)
    gt = np.zeros((side, side), dtype=int)
    pred[tuple(np.asarray(a).reshape(-1, 2).T)] = 1
    gt[tuple(np.asarray(b).reshape(-1, 2).T)] = 1
    return pred, gt


def test_hausdorff_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 20, size=(int(rng.integers(1, 12)), 2))
        b = rng.integers(0, 20, size=(int(rng.integers(1, 12)), 2))
        got = hausdorff_per_class(*maps(a, b), 2)
        assert got == pytest.approx(brute_hausdorff(a, b), rel=1e-12)


def test_hausdorff_hand_values():
    assert hausdorff_per_class(*maps([(0, 0)], [(3, 4)]), 2) == pytest.approx(5.0)
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert hausdorff_per_class(*maps(square, square), 2) == 0.0
    # a point against a segment's endpoints: the directed distances are 0
    # and 9, and the symmetric distance is the larger
    assert hausdorff_per_class(*maps([(0, 0)], [(0, 0), (0, 9)]), 2) == 9.0
    assert hausdorff_per_class(*maps([(0, 0), (0, 9)], [(0, 0)]), 2) == 9.0


def test_hausdorff_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pred = rng.integers(0, 3, (12, 12))
        gt = rng.integers(0, 3, (12, 12))
        assert hausdorff_per_class(pred, gt, 3) == hausdorff_per_class(gt, pred, 3)


def test_hausdorff_empty_rejected():
    """A class with no pixels on one side has no distance: it is left out
    with a warning, and with no other class the result is None."""
    pred, gt = maps(np.zeros((0, 2), dtype=int), [(1, 1)])
    warnings = []
    assert hausdorff_per_class(pred, gt, 2, warn=warnings.append) is None
    assert warnings == ["hausdorff undefined for class 1: one side empty"]


def test_hausdorff_per_class_mean_and_exclusions():
    pred = np.zeros((8, 8), dtype=int)
    gt = np.zeros((8, 8), dtype=int)
    pred[0, 0] = 1
    gt[0, 2] = 1          # class 1 comparable, distance 2
    gt[5, 5] = 2          # class 2 only in gt -> excluded with warning
    warnings = []
    got = hausdorff_per_class(pred, gt, num_classes=4, warn=warnings.append)
    assert got == pytest.approx(2.0)
    assert len(warnings) == 1 and "class 2" in warnings[0]


def test_hausdorff_per_class_none_when_no_overlap():
    pred = np.zeros((4, 4), dtype=int)
    gt = np.zeros((4, 4), dtype=int)
    gt[1, 1] = 1
    assert hausdorff_per_class(pred, gt, num_classes=2) is None
    assert hausdorff_per_class(pred, pred, num_classes=2) is None


@pytest.mark.parametrize("side", [16, 40, 64])
def test_hausdorff_per_class_equals_point_set_mean(side):
    """The distance-transform form equals (==) the mean of point-set
    Hausdorff distances over the classes present in both maps."""
    rng = np.random.default_rng(side)
    for k in range(6):
        if k % 2:
            gt = rng.integers(0, 4, (side, side))
        else:
            gt = np.zeros((side, side), dtype=int)
            gt[side // 4:side // 2, side // 5:] = 1
            gt[side // 2:, :side // 3] = 3
        pred = gt.copy()
        noise = rng.random(gt.shape) < 0.1 * k
        pred[noise] = rng.integers(0, 4, int(noise.sum()))
        want = [
            brute_hausdorff(np.argwhere(pred == c), np.argwhere(gt == c))
            for c in range(1, 4) if (pred == c).any() and (gt == c).any()
        ]
        got = hausdorff_per_class(pred, gt, num_classes=4, warn=lambda msg: None)
        assert got == float(np.mean(want)), (side, k)

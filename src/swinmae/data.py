"""Dataset generation and image I/O.

Images are binary PPM (P6) / PGM (P5), 8-bit: bit-exact, no compression
dependency. The synthetic set stands in for a small multi-sequence MR
corpus: 3-class label maps (background / large ellipse / small ellipse
inside it) under three per-channel intensity transforms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import TensorError
from .masking import split_rng


class ImageFormatError(ValueError):
    pass


def _header_field(token):
    """A PNM header field: decimal digits only, so no sign or underscore."""
    if token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ImageFormatError(f"header field {token[:16]!r} is not a decimal integer")


def _read_pnm_header(f):
    """Width and height from the header after the magic; both must be >= 1
    and the maxval 255."""
    fields = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise ImageFormatError("truncated header")
        fields.extend(_header_field(t) for t in line.split(b"#", 1)[0].split())
    if len(fields) > 3:
        raise ImageFormatError(f"extra header fields after maxval: {fields[3:]}")
    w, h, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"only 8-bit images supported, maxval={maxval}")
    if w < 1 or h < 1:
        raise ImageFormatError(f"image size {w}x{h} is empty")
    return w, h


def save_ppm(path, image):
    """[3,H,W] float in [0,1] (or uint8) -> binary P6."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        arr = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    c, h, w = arr.shape
    if c != 3:
        raise ImageFormatError("P6 needs 3 channels")
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(arr.transpose(1, 2, 0).tobytes())


def save_pgm(path, labels):
    """[H,W] int class ids -> binary P5 with pixel value == class id."""
    arr = np.asarray(labels).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(arr.tobytes())


def load_image(path):
    """P6 -> [3,H,W] floats scaled to [0,1]; P5 -> [H,W] integer classes."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P6", b"P5"):
            raise ImageFormatError(f"unsupported format {magic!r}")
        w, h = _read_pnm_header(f)
        n = w * h * (3 if magic == b"P6" else 1)
        # refuse a claim larger than the file before allocating for it
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n > left:
            raise ImageFormatError(
                f"truncated pixel data: {n} bytes claimed, {left} left"
            )
        arr = np.frombuffer(f.read(n), dtype=np.uint8)
    if magic == b"P5":
        return arr.reshape(h, w).astype(np.int64)
    return arr.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


# ------------------------------------------------------------- synthetic set


def _ellipse_mask(h, w, cy, cx, ry, rx, angle):
    yy, xx = np.mgrid[0:h, 0:w]
    y = yy - cy
    x = xx - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = ca * x + sa * y
    v = -sa * x + ca * y
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def synth_pair(size, rng, labeled=True, with_tumor=None):
    """One (image [3,size,size], labels [H,W] or None) sample."""
    h = w = size
    labels = np.zeros((h, w), dtype=np.int64)
    cy = rng.uniform(0.35 * h, 0.65 * h)
    cx = rng.uniform(0.35 * w, 0.65 * w)
    ry = rng.uniform(0.18 * h, 0.30 * h)
    rx = rng.uniform(0.18 * w, 0.30 * w)
    angle = rng.uniform(0.0, np.pi)
    gland = _ellipse_mask(h, w, cy, cx, ry, rx, angle)
    labels[gland] = 1
    if with_tumor is None:
        with_tumor = bool(rng.random() < 0.5)
    if with_tumor:
        # tumor strictly inside the gland
        tr = rng.uniform(0.25, 0.45)
        ty = cy + rng.uniform(-0.3, 0.3) * ry
        tx = cx + rng.uniform(-0.3, 0.3) * rx
        tumor = _ellipse_mask(h, w, ty, tx, tr * ry, tr * rx, angle) & gland
        labels[tumor] = 2
    base = np.full((h, w), 0.15) + 0.05 * rng.standard_normal((h, w))
    base[labels == 1] = 0.55
    base[labels == 2] = 0.85
    base += 0.03 * rng.standard_normal((h, w))
    # the noise can push base slightly negative, which would NaN under the
    # fractional power below
    base = np.clip(base, 0.0, 1.0)
    # three pseudo imaging sequences: distinct per-channel intensity maps
    chans = [
        np.clip(base * rng.uniform(0.8, 1.2), 0, 1),
        np.clip(1.0 - base * rng.uniform(0.7, 1.0), 0, 1),
        np.clip(base ** rng.uniform(0.6, 1.5), 0, 1),
    ]
    image = np.stack(chans).astype(np.float64)
    return image, (labels if labeled else None)


@dataclass
class DatasetManifest:
    root: str
    unlabeled: list = field(default_factory=list)  # image paths
    labeled: list = field(default_factory=list)  # (image path, label path)
    train: list = field(default_factory=list)  # indices into labeled
    test: list = field(default_factory=list)

    def split(self, seed, train_frac=0.8):
        """Deterministic 80/20 split, stable under listing order."""
        order = sorted(range(len(self.labeled)), key=lambda i: self.labeled[i][0])
        perm = split_rng(seed, 2).permutation(len(order))
        n_train = int(round(train_frac * len(order)))
        shuffled = [order[i] for i in perm]
        self.train = sorted(shuffled[:n_train])
        self.test = sorted(shuffled[n_train:])
        if not self.train or not self.test:
            raise TensorError(f"split of {len(order)} labeled images left train or test empty")
        return self


def generate_synthetic_dataset(n_unlabeled, n_labeled, seed, out_dir, size=32):
    """Write PPM/PGM pairs; every labeled image has classes {0,1} and half
    also carry class 2."""
    if n_unlabeled < 1 or n_labeled < 1:
        raise TensorError("counts must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    manifest = DatasetManifest(root=out_dir)
    for i in range(n_unlabeled):
        rng = split_rng(seed, 10, i)
        image, _ = synth_pair(size, rng, labeled=False)
        path = os.path.join(out_dir, f"unlabeled_{i:05d}.ppm")
        save_ppm(path, image)
        manifest.unlabeled.append(path)
    for i in range(n_labeled):
        rng = split_rng(seed, 11, i)
        image, labels = synth_pair(size, rng, labeled=True, with_tumor=(i % 2 == 0))
        ipath = os.path.join(out_dir, f"labeled_{i:05d}.ppm")
        lpath = os.path.join(out_dir, f"labeled_{i:05d}.pgm")
        save_ppm(ipath, image)
        save_pgm(lpath, labels)
        manifest.labeled.append((ipath, lpath))
    return manifest


def scan_dataset(root):
    """Rebuild a manifest from a directory written by the generator."""
    manifest = DatasetManifest(root=root)
    names = sorted(os.listdir(root))
    for name in names:
        path = os.path.join(root, name)
        if name.endswith(".ppm") and name.startswith("unlabeled_"):
            manifest.unlabeled.append(path)
        elif name.endswith(".ppm") and name.startswith("labeled_"):
            lpath = path[:-4] + ".pgm"
            if not os.path.exists(lpath):
                raise TensorError(f"label map missing for {path}")
            manifest.labeled.append((path, lpath))
    return manifest


def load_stack(paths):
    """Image paths -> [N,3,H,W] float stack."""
    if not paths:
        raise TensorError("no images found")
    return np.stack([load_image(p) for p in paths])


def load_labeled(pairs):
    if not pairs:
        raise TensorError("no labeled images found")
    images = np.stack([load_image(ip) for ip, _ in pairs])
    labels = np.stack([load_image(lp) for _, lp in pairs])
    if labels.shape[-2:] != images.shape[-2:]:
        raise TensorError("image/label extents differ")
    return images, labels


# ----------------------------------------------------------------- triptych


def emit_triptych(image, recon, plan, path, sep=2):
    """masked | reconstruction | ground truth, masked windows rendered gray."""
    image = np.asarray(image)
    recon = np.asarray(recon)
    if image.shape != recon.shape:
        raise TensorError(f"extent mismatch {image.shape} vs {recon.shape}")
    c, h, w = image.shape
    mask = plan.pixel_mask(h, w)
    masked = image.copy()
    masked[:, mask > 0] = 0.5
    panels = [masked, np.clip(recon, 0.0, 1.0), image]
    bar = np.ones((c, h, sep))
    out = np.concatenate(
        [p for pair in zip(panels, [bar, bar, None]) for p in pair if p is not None],
        axis=2,
    )
    save_ppm(path, out)
    return out

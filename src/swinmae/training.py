"""The training loop shared by pretraining and fine-tuning: half-cycle
cosine schedule, Adam, one epoch loop; binary checkpoints and CSV output.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError
from .masking import split_rng


def cosine_lr(lr_max, epoch, epochs):
    """Half-cycle cosine decay from lr_max at epoch 0 to 0 at `epochs`."""
    return lr_max * (1.0 + math.cos(epoch / epochs * math.pi)) / 2.0


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with the standard BETA1, BETA2 and EPS. Updates iterate parameters
    in lexicographic name order, so two runs with identical seeds produce
    bit-identical states. Each parameter is updated T.BLOCK elements at a
    time, in place.
    """

    def __init__(self, params):
        self.params = params
        self.step_count = 0
        self.m = {n: np.zeros(p.shape, p.dtype) for n, p in params.items()}
        self.v = {n: np.zeros(p.shape, p.dtype) for n, p in params.items()}

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            # flat [N, 1] views: p.data, m and v are updated through them
            ps, ms, vs, gs = (
                a.reshape(-1, 1) for a in (p.data, self.m[name], self.v[name], g)
            )
            for lo, hi, (a, b) in T.row_blocks(ps.shape[0], 1, p.dtype, p.dtype):
                m, v, gb = ms[lo:hi], vs[lo:hi], gs[lo:hi]
                # m = BETA1 * m + (1 - BETA1) * g
                m *= BETA1
                m += np.multiply(gb, 1.0 - BETA1, out=a)
                # v = BETA2 * v + (1 - BETA2) * g * g
                v *= BETA2
                np.multiply(gb, 1.0 - BETA2, out=a)
                v += np.multiply(a, gb, out=a)
                # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
                np.divide(m, bc1, out=a)
                a *= lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                ps[lo:hi] -= np.divide(a, b, out=a)

    def zero_grad(self):
        self.params.zero_grad()


# ------------------------------------------------------------- checkpoints

_MAGIC = b"SWMAE\x01"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(ValueError):
    pass


def _encoded(text, what):
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CheckpointError(f"{what} cannot be encoded as UTF-8: {exc}") from None


def _metadata_block(metadata):
    lines = []
    for k, v in sorted((metadata or {}).items()):
        line = f"{k}={v}"
        # the reader splits on line breaks, then on the first "="
        if "=" in str(k) or line.splitlines() != [line]:
            raise CheckpointError(
                f"metadata {k!r}={v!r}: keys may not contain '=' and "
                "neither may contain a line break"
            )
        lines.append(line + "\n")
    return _encoded("".join(lines), "metadata")


def save_checkpoint(path, params, metadata=None):
    """Binary format: magic, u32 metadata byte length, UTF-8 key=value lines,
    u32 tensor count, then per tensor: u32 name length, name, dtype code u8,
    rank u8, u32 dims, little-endian payload.

    The file is written next to `path` and renamed over it, so a failed
    write leaves the previous checkpoint intact. Text that cannot be
    encoded as UTF-8 raises CheckpointError before the file is opened."""
    meta = _metadata_block(metadata)
    items = [(_encoded(name, "tensor name"), p) for name, p in params.items()]
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(meta)))
            f.write(meta)
            f.write(struct.pack("<I", len(items)))
            for nb, p in items:
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<BB", _DTYPE_CODES[p.dtype], p.data.ndim))
                f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
                f.write(np.ascontiguousarray(p.data, dtype=p.dtype.newbyteorder("<")).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_exact(f, n, what):
    """Read n bytes, refusing any claim larger than what the file still holds."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CheckpointError(
            f"truncated checkpoint while reading {what}: {n} bytes claimed, {left} left"
        )
    return f.read(n)


def _utf8(raw, what):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not valid UTF-8: {exc}") from None


def load_checkpoint(path):
    """Returns (metadata dict, {name: ndarray})."""
    with open(path, "rb") as f:
        if _read_exact(f, len(_MAGIC), "magic") != _MAGIC:
            raise CheckpointError("bad magic: not a checkpoint file")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length"))
        meta = {}
        for line in _utf8(_read_exact(f, meta_len, "metadata"), "metadata").splitlines():
            key, eq, value = line.partition("=")
            if not eq:
                raise CheckpointError(f"metadata line {line!r} has no '='")
            meta[key] = value
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(f, 4, "name length"))
            name = _utf8(_read_exact(f, nlen, "name"), "tensor name")
            if name in tensors:
                raise CheckpointError(f"duplicate tensor name {name!r}")
            code, rank = struct.unpack("<BB", _read_exact(f, 2, "dtype/rank"))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"unknown dtype code {code}")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
            dtype = _CODE_DTYPES[code]
            n_bytes = math.prod(dims) * dtype.itemsize
            payload = _read_exact(f, n_bytes, f"payload of {name!r}")
            flat = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype)
            try:
                tensors[name] = flat.reshape(dims)
            except ValueError as exc:  # a 0 beside huge dims, or over 64 dims
                raise CheckpointError(f"tensor {name!r}: dims {dims}: {exc}") from None
        if f.read(1):
            raise CheckpointError("trailing bytes after tensor table")
    return meta, tensors


def load_params_strict(params, tensors):
    """Load arrays into an existing ParamStore; unknown or missing names and
    shape mismatches are errors."""
    names = set(params.names())
    unknown = set(tensors) - names
    if unknown:
        raise CheckpointError(f"unknown parameter names: {sorted(unknown)}")
    missing = names - set(tensors)
    if missing:
        raise CheckpointError(f"missing parameter names: {sorted(missing)}")
    for name, arr in tensors.items():
        p = params[name]
        if p.data.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: {p.data.shape} vs {arr.shape}"
            )
        p.data = arr.astype(p.dtype)


# ---------------------------------------------------------------- training


def train_step(model, batch, target, optimizer, lr):
    """One forward/backward/update over a [B,C,H,W] batch; returns the loss.
    `target` is what `model.loss` takes after the images: a mask plan for
    pretraining, [B,H,W] label maps for fine-tuning."""
    optimizer.zero_grad()
    with T.Tape() as tape:
        loss = model.loss(Tensor(batch.astype(model.dtype)), target)
    if not np.isfinite(loss.data).all():
        raise TensorError(f"non-finite loss {loss.item()!r}; aborting")
    T.backward(loss, tape)
    optimizer.step(lr)
    return loss.item()


def train_epochs(model, epochs, lr_max, batch_size, batches):
    """The epoch loop: Adam over the model's parameters and a half-cycle
    cosine lr per epoch. Each epoch runs `train_step` over the
    (images, target) pairs that `batches(epoch)` yields, then yields
    (epoch, lr, losses). `batch_size` is checked here, once, for every
    caller; `batches` slices by it."""
    if epochs < 1 or batch_size < 1:
        raise TensorError(
            f"epochs and batch_size must be >= 1, got {epochs} and {batch_size}"
        )
    if lr_max <= 0:
        raise TensorError(f"lr_max must be > 0, got {lr_max}")
    optimizer = Adam(model.params)
    for epoch in range(epochs):
        lr = cosine_lr(lr_max, epoch, epochs)
        losses = [
            train_step(model, x, target, optimizer, lr) for x, target in batches(epoch)
        ]
        yield epoch, lr, losses


def run_pretraining(
    model, images, epochs, lr_max, batch_size, seed,
    csv_path=None, checkpoint_path=None, checkpoint_every=0, log=None,
):
    """Pretrain on an [N,C,H,W] stack; returns the per-epoch mean-loss list.

    A fresh plan of the model spec's masking is drawn per (epoch, batch) from
    a split RNG stream, so results do not depend on loader timing. The
    checkpoint is written every `checkpoint_every` epochs (0: never) and
    after the last epoch.
    """

    def batches(epoch):
        for bi, lo in enumerate(range(0, images.shape[0], batch_size)):
            yield images[lo:lo + batch_size], model.spec.mask_plan(split_rng(seed, epoch, bi))

    history = []
    for epoch, lr, losses in train_epochs(model, epochs, lr_max, batch_size, batches):
        history.append(float(np.mean(losses)))
        if log:
            log(f"epoch {epoch}: loss {history[-1]:.6f} lr {lr:.2e}")
        due = checkpoint_every and (epoch + 1) % checkpoint_every == 0
        if checkpoint_path and (due or epoch == epochs - 1):
            save_checkpoint(
                checkpoint_path, model.params,
                {"epoch": epoch, "seed": seed, "kind": "pretrain"},
            )
    if csv_path:
        write_csv(csv_path, ("epoch", "loss"), enumerate(history))
    return history


def write_csv(path, header, rows):
    """One line per row: the first field as text, the others as their repr,
    so floats read back exactly."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for first, *rest in rows:
            f.write(",".join([str(first), *map(repr, rest)]) + "\n")

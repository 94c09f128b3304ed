"""Minimal dense tensor with tape-based reverse-mode autodiff.

Everything is backed by numpy arrays in f32 or f64. Ops record backward
closures on the active Tape; `backward` replays the tape in reverse with
fixed-order += accumulation, so gradients are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

# elements per pass of the blocked kernels: their scratch stays in cache
BLOCK = 1 << 15


class TensorError(ValueError):
    pass


def _check_finite(arr, op):
    """One pass over `arr`; the message is worked out only after a failure."""
    if np.isfinite(arr).all():
        return
    if np.isnan(arr).any():
        raise TensorError(f"{op}: NaN in result")
    raise TensorError(f"{op}: non-finite value in result")


class Tensor:
    def __init__(self, data, dtype=None, requires_grad=False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of differentiable ops; confined to one thread."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _push_tape(self)
        return self

    def __exit__(self, *exc):
        _pop_tape(self)
        return False


_TAPE_STACK = []


def _push_tape(tape):
    _TAPE_STACK.append(tape)


def _pop_tape(tape):
    if not _TAPE_STACK or _TAPE_STACK[-1] is not tape:
        raise TensorError("tape stack corrupted")
    _TAPE_STACK.pop()


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(op, inputs, out_data, backward_fn):
    _check_finite(out_data, op)
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.nodes.append(TapeNode(op, inputs, out, backward_fn))
    return out


def row_blocks(rows, width, *dtypes):
    """Yield (lo, hi, bufs) over `rows` rows of `width` elements: [lo, hi)
    holds whole rows, at most BLOCK elements but at least one row, and `bufs`
    holds one scratch [hi - lo, width] array per dtype, reused from block to
    block."""
    step = max(1, BLOCK // width)
    bufs = [np.empty((min(step, rows), width), dt) for dt in dtypes]
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        yield lo, hi, [b[: hi - lo] for b in bufs]


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _grad(t, f):
    """`f()` summed down to t's shape; None for an operand that needs none."""
    return _unbroadcast(f(), t.shape) if t.requires_grad else None


def as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------- elementwise


def add(a, b):
    a, b = as_tensor(a), as_tensor(b, like=a)
    out = a.data + b.data

    def bw(g):
        return _grad(a, lambda: g), _grad(b, lambda: g)

    return _record("add", (a, b), out, bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b, like=a)
    out = a.data - b.data

    def bw(g):
        return _grad(a, lambda: g), _grad(b, lambda: -g)

    return _record("sub", (a, b), out, bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b, like=a)
    out = a.data * b.data

    def bw(g):
        return _grad(a, lambda: g * b.data), _grad(b, lambda: g * a.data)

    return _record("mul", (a, b), out, bw)


def scale(a, s):
    s = float(s)
    return _record("scale", (a,), a.data * s, lambda g: (g * s,))


def square(a):
    return _record("square", (a,), a.data * a.data, lambda g: (2.0 * a.data * g,))


def sqrt(a):
    out = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / out,)

    return _record("sqrt", (a,), out, bw)


def reciprocal(a):
    out = 1.0 / a.data

    def bw(g):
        return (-g * out * out,)

    return _record("reciprocal", (a,), out, bw)


def tanh(a):
    out = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", (a,), out, bw)


def exp(a):
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _record("exp", (a,), out, bw)


# ---------------------------------------------------------------- structural


def reshape(a, shape):
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.shape),)

    return _record("reshape", (a,), out, bw)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))

    def bw(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _record("transpose", (a,), out, bw)


def split_heads(x, heads):
    """[nB, T, C] -> [nB, heads, T, C // heads] as a view of x's data; the
    gradient comes back contiguous."""
    nb, t, c = x.shape
    out = x.data.reshape(nb, t, heads, c // heads).transpose(0, 2, 1, 3)

    def bw(g):
        return (np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(nb, t, c),)

    return _record("split_heads", (x,), out, bw)


def roll(a, shifts, axes):
    shifts = tuple(shifts)
    axes = tuple(axes)
    out = np.roll(a.data, shifts, axis=axes)
    inv = tuple(-s for s in shifts)

    def bw(g):
        return (np.roll(g, inv, axis=axes),)

    return _record("roll", (a,), out, bw)


def gather(a, indices, axis=0):
    """Index-select along `axis`; backward is fixed-order scatter-add."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise TensorError("gather: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise TensorError(
            f"gather: index out of range for axis {axis} of extent {a.shape[axis]}"
        )
    out = np.take(a.data, idx, axis=axis)

    def bw(g):
        ga = np.zeros(a.shape, dtype=a.dtype)
        np.add.at(np.moveaxis(ga, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (ga,)

    return _record("gather", (a,), out, bw)


def sum_(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), out, bw)


def mean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ------------------------------------------------------------------- matmul


def matmul(a, b, bias=None):
    """a @ b, plus `bias` added in place on the fresh product: one tape node."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise TensorError("matmul: operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise TensorError(
            f"matmul: inner dims mismatch {a.shape} @ {b.shape}"
        )
    out = a.data @ b.data
    if bias is not None:
        out += bias.data

    def bw(g):
        # an operand that needs no gradient (an input image) gets none
        ga = _grad(a, lambda: g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad and b.data.ndim == 2 and a.data.ndim > 2:
            # one GEMM over the flattened batch; no [B, C, D] stack to sum
            c = a.shape[-1]
            gb = a.data.reshape(-1, c).T @ g.reshape(-1, b.shape[-1])
        else:
            gb = _grad(b, lambda: np.swapaxes(a.data, -1, -2) @ g)
        if bias is None:
            return ga, gb
        return ga, gb, _grad(bias, lambda: g)

    inputs = (a, b) if bias is None else (a, b, bias)
    return _record("matmul", inputs, out, bw)


def linear(x, w, b=None):
    return matmul(x, w, b)


# ------------------------------------------------------------- fused kernels


def softmax_lastdim(x, mask=None, scale=None, bias=None):
    """Stable softmax over the last dim of `x * scale + bias + mask`; -inf
    entries map to exact 0.

    `scale` is a constant factor. `bias` is a Tensor broadcast against x; it
    gets a gradient. `mask` is a constant additive [nW, T, T] array added to
    [nB, heads, T, T] scores whose batch index runs over the nW windows
    fastest; it gets no gradient.
    """
    if x.shape[-1] < 1:
        raise TensorError("softmax: empty last dim")
    s = x.data
    if scale is not None:
        scale = float(scale)
        s = s * scale
    if bias is not None:
        s = s + bias.data
    if mask is not None:
        nb, heads, t, _ = x.shape
        nw = mask.shape[0]
        s = (s.reshape(nb // nw, nw, heads, t, t) + mask[None, :, None]).reshape(x.shape)
    m = np.max(s, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise TensorError("softmax: row with all entries masked (-inf)")
    z = s - m
    e = np.where(np.isneginf(z), 0.0, np.exp(z))
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        gs = out * (g - dot)
        gx = gs if scale is None else gs * scale
        if bias is None:
            return (gx,)
        return gx, _grad(bias, lambda: gs)

    inputs = (x,) if bias is None else (x, bias)
    return _record("softmax", inputs, out, bw)


def _xhat(xs, mu, inv, lo, hi, out):
    """(x - mu) * inv of rows [lo, hi), written into `out`."""
    np.subtract(xs[lo:hi], mu[lo:hi], out=out)
    return np.multiply(out, inv[lo:hi], out=out)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last dim to zero mean / unit variance, then affine.

    Forward and backward run BLOCK elements of whole rows at a time."""
    if eps <= 0:
        raise TensorError("layer_norm: eps must be > 0")
    gamma, beta = as_tensor(gamma, like=x), as_tensor(beta, like=x)
    n = x.shape[-1]
    inv_n = 1.0 / n
    xs = x.data.reshape(-1, n)
    rows = xs.shape[0]
    mu = xs.sum(axis=-1, keepdims=True) * inv_n
    var = np.empty_like(mu)
    for lo, hi, (xc,) in row_blocks(rows, n, x.dtype):
        np.subtract(xs[lo:hi], mu[lo:hi], out=xc)
        np.multiply(xc, xc, out=xc)
        np.sum(xc, axis=-1, keepdims=True, out=var[lo:hi])
    var *= inv_n
    # an overflowing or NaN variance would otherwise vanish into inv = 0
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + eps)
    out = np.empty(x.shape, np.result_type(x.data, gamma.data, beta.data))
    outs = out.reshape(rows, n)
    for lo, hi, (xh,) in row_blocks(rows, n, x.dtype):
        _xhat(xs, mu, inv, lo, hi, xh)
        np.multiply(xh, gamma.data, out=outs[lo:hi])
        np.add(outs[lo:hi], beta.data, out=outs[lo:hi])

    def bw(g):
        # only the per-row mu and inv are kept; xhat is recomputed from x
        xs = x.data.reshape(-1, n)
        gs = g.reshape(-1, n)
        g_xhat = np.empty(x.shape, np.result_type(g, x.data))
        gx = np.empty(x.shape, np.result_type(g, x.data, gamma.data))
        g_xhats, gxs = g_xhat.reshape(rows, n), gx.reshape(rows, n)
        for lo, hi, (xh, a, b) in row_blocks(rows, n, x.dtype, gx.dtype, gx.dtype):
            _xhat(xs, mu, inv, lo, hi, xh)
            np.multiply(gs[lo:hi], xh, out=g_xhats[lo:hi])
            # gx = inv * (a - mean(a) - xhat * mean(a * xhat)), a = g * gamma
            np.multiply(gs[lo:hi], gamma.data, out=a)
            s1 = a.sum(axis=-1, keepdims=True) * inv_n
            np.multiply(a, xh, out=b)
            s2 = b.sum(axis=-1, keepdims=True) * inv_n
            np.multiply(xh, s2, out=b)
            np.subtract(a, s1, out=a)
            np.subtract(a, b, out=a)
            np.multiply(inv[lo:hi], a, out=gxs[lo:hi])
        return gx, _unbroadcast(g_xhat, gamma.shape), _unbroadcast(g, beta.shape)

    return _record("layer_norm", (x, gamma, beta), out, bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x, cube, out):
    """tanh((x + cube * A) * C) written into `out`, which may be `cube`."""
    np.multiply(cube, _GELU_A, out=out)
    np.add(x, out, out=out)
    np.multiply(out, _GELU_C, out=out)
    return np.tanh(out, out=out)


def gelu(x):
    """tanh-approximation GELU, BLOCK elements at a time."""
    xs = x.data.reshape(-1, 1)
    out = np.empty(x.shape, x.dtype)
    outs = out.reshape(-1, 1)
    for lo, hi, (c,) in row_blocks(xs.shape[0], 1, x.dtype):
        xb, ob = xs[lo:hi], outs[lo:hi]
        np.multiply(xb, xb, out=c)
        np.multiply(c, xb, out=c)
        # the cubic term overflows long before the output does; the whole
        # cube is checked so that a NaN in any block names the error
        if not np.isfinite(c).all():
            _check_finite(x.data * x.data * x.data, "gelu")
        _gelu_tanh(xb, c, out=c)
        np.add(c, 1.0, out=c)
        np.multiply(xb, 0.5, out=ob)
        np.multiply(ob, c, out=ob)

    def bw(g):
        # nothing full-size is kept; tanh is recomputed from x
        xs = x.data.reshape(-1, 1)
        gs = g.reshape(-1, 1)
        gx = np.empty(x.shape, np.result_type(g, x.data))
        gxs = gx.reshape(-1, 1)
        for lo, hi, (t, dt, h) in row_blocks(xs.shape[0], 1, x.dtype, x.dtype, x.dtype):
            xb = xs[lo:hi]
            np.multiply(xb, xb, out=dt)
            np.multiply(dt, xb, out=t)
            _gelu_tanh(xb, t, out=t)
            # dt = (1 - t * t) * (C * (1 + 3 * A * x * x))
            np.multiply(dt, 3.0 * _GELU_A, out=dt)
            np.add(dt, 1.0, out=dt)
            np.multiply(dt, _GELU_C, out=dt)
            np.multiply(t, t, out=h)
            np.subtract(1.0, h, out=h)
            np.multiply(h, dt, out=dt)
            # g * (0.5 * (t + 1) + 0.5 * x * dt)
            np.multiply(xb, 0.5, out=h)
            np.multiply(h, dt, out=h)
            np.add(t, 1.0, out=t)
            np.multiply(t, 0.5, out=t)
            np.add(t, h, out=t)
            np.multiply(gs[lo:hi], t, out=gxs[lo:hi])
        return (gx,)

    return _record("gelu", (x,), out, bw)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of [N, C] logits against int labels [N]."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise TensorError("cross_entropy: labels must be [N] ints")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise TensorError("cross_entropy: label out of range")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1))
    out = np.mean(logsumexp - z[np.arange(n), labels])

    def bw(g):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _record("cross_entropy", (logits,), out, bw)


# ----------------------------------------------------------------- backward


def backward(loss, tape):
    """Populate .grad of every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise TensorError("backward: loss must be a scalar")
    if not tape.nodes:
        raise TensorError("backward: empty tape")
    produced = {id(n.output) for n in tape.nodes}
    grads = {id(loss): np.ones_like(loss.data)}
    leaf = {}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None:
                continue
            key = id(t)
            if key in produced:
                grads[key] = grads[key] + gi if key in grads else gi
            elif t.requires_grad:
                if key in leaf:
                    leaf[key] = (t, leaf[key][1] + gi)
                else:
                    leaf[key] = (t, gi)
    # hand each gradient over and drop it before the next, so at most one
    # parameter's gradient exists twice
    for key in list(leaf):
        t, g = leaf.pop(key)
        t.accumulate_grad(g)


class ParamStore:
    """Named parameter map with lexicographic iteration order."""

    def __init__(self):
        self._params = {}

    def add(self, name, tensor):
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        return [(n, self._params[n]) for n in self.names()]

    def zero_grad(self):
        for _, p in self.items():
            p.zero_grad()


# --------------------------------------------------------------- grad check


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic grad of f at x and central differences.

    f maps a Tensor to a scalar Tensor; f64 only.
    """
    if x.dtype != np.float64:
        raise TensorError("grad_check: f64 only")
    if not (1e-6 <= h <= 1e-4):
        raise TensorError("grad_check: h must be in [1e-6, 1e-4]")
    x.requires_grad = True
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
    if not np.isfinite(y.data).all():
        raise TensorError("grad_check: non-finite f(x)")
    backward(y, tape)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, err)
    return worst

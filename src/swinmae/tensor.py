"""Minimal dense tensor with tape-based reverse-mode autodiff.

Everything is backed by numpy arrays in f32 or f64. Ops record backward
closures on the active Tape; `backward` replays the tape in reverse with
fixed-order += accumulation, so gradients are bit-reproducible. It consumes
the tape as it walks it: a spent tape is empty, and each intermediate is
freed once the backward of its producer has run.
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
            # no backward writes into a gradient it was handed, so `g` is
            # kept as it is unless it must be cast or made contiguous
            self.grad = np.ascontiguousarray(g, dtype=self.data.dtype)
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
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise TensorError("tape stack corrupted")
        _TAPE_STACK.pop()
        return False


_TAPE_STACK = []


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


def blocks(n, *dtypes):
    """Yield (lo, hi, bufs) over [0, n) in runs of at most BLOCK elements;
    `bufs` holds one scratch array of hi - lo elements per dtype, reused from
    run to run."""
    bufs = [np.empty(min(BLOCK, n), dt) for dt in dtypes]
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
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


def _matmul_grads(a, b, g, need_a, need_b):
    """Gradients of the arrays a @ b for the output gradient g; None where
    not needed."""
    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape) if need_a else None
    if not need_b:
        gb = None
    elif b.ndim == 2 and a.ndim > 2:
        # one GEMM over the flattened batch; no [B, C, D] stack to sum
        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[-1])
    else:
        gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return ga, gb


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
        ga, gb = _matmul_grads(a.data, b.data, g, a.requires_grad, b.requires_grad)
        if bias is None:
            return ga, gb
        return ga, gb, _grad(bias, lambda: g)

    inputs = (a, b) if bias is None else (a, b, bias)
    return _record("matmul", inputs, out, bw)


# ------------------------------------------------------------- fused kernels


def _softmax(x, mask, scale, bias):
    """softmax_lastdim's forward on arrays; `bias` is an array or None. Every
    step writes one fresh array, never `x`; exp(-inf) is exactly 0."""
    s = np.array(x, order="C") if scale is None else np.multiply(x, scale, order="C")
    if bias is not None:
        s += bias
    if mask is not None:
        nb, heads, t, _ = x.shape
        nw = mask.shape[0]
        windows = s.reshape(nb // nw, nw, heads, t, t)  # a view: s is C-ordered
        windows += mask[None, :, None]
    m = np.max(s, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise TensorError("softmax: row with all entries masked (-inf)")
    s -= m
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grads(out, g, scale, bias):
    """Gradients of the scores and of the bias Tensor (None without one) for
    the gradient g of the softmax output `out`, in one scratch array."""
    gs = g * out
    dot = gs.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gs)
    gs *= out
    gb = None if bias is None else _grad(bias, lambda: gs)
    if scale is None:
        return gs, gb
    # with one window the bias gradient can be a view of gs
    if gb is not None and np.may_share_memory(gb, gs):
        return gs * scale, gb
    gs *= scale
    return gs, gb


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
    scale = None if scale is None else float(scale)
    out = _softmax(x.data, mask, scale, None if bias is None else bias.data)

    def bw(g):
        gx, gb = _softmax_grads(out, g, scale, bias)
        return (gx,) if bias is None else (gx, gb)

    inputs = (x,) if bias is None else (x, bias)
    return _record("softmax", inputs, out, bw)


def window_attention(q, k, v, mask, scale, bias=None):
    """softmax(q @ k^T * scale + bias + mask) @ v over [nB, heads, T, hd]
    heads, merged into [nB, T, heads * hd]. One tape node, bit-exact with the
    k^T copy, matmuls, softmax_lastdim and head merge it replaces; it keeps
    only the attention weights, and backward rebuilds k^T as the same
    contiguous copy (a view there changes the GEMM's rounding)."""
    nb, heads, t, hd = q.shape
    scale = float(scale)
    scores = q.data @ np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))
    _check_finite(scores, "attention")
    a = _softmax(scores, mask, scale, None if bias is None else bias.data)
    del scores
    out = np.ascontiguousarray((a @ v.data).transpose(0, 2, 1, 3)).reshape(nb, t, heads * hd)

    def bw(g):
        gp = np.ascontiguousarray(g.reshape(nb, t, heads, hd).transpose(0, 2, 1, 3))
        ga, gv = _matmul_grads(a, v.data, gp, True, v.requires_grad)
        gs, gb = _softmax_grads(a, ga, scale, bias)
        kt = np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))
        gq, gkt = _matmul_grads(q.data, kt, gs, q.requires_grad, k.requires_grad)
        gk = None if gkt is None else np.ascontiguousarray(gkt.transpose(0, 1, 3, 2))
        return (gq, gk, gv) if bias is None else (gq, gk, gv, gb)

    inputs = (q, k, v) if bias is None else (q, k, v, bias)
    return _record("attention", inputs, out, bw)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last dim to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise TensorError("layer_norm: eps must be > 0")
    gamma, beta = as_tensor(gamma, like=x), as_tensor(beta, like=x)
    inv_n = 1.0 / x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * inv_n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    # an overflowing or NaN variance would otherwise vanish into inv = 0
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv * gamma.data + beta.data

    def bw(g):
        # only the per-row mu and inv are kept; xhat is recomputed from x
        xhat = (x.data - mu) * inv
        a = g * gamma.data
        gx = inv * (
            a
            - a.sum(axis=-1, keepdims=True) * inv_n
            - xhat * ((a * xhat).sum(axis=-1, keepdims=True) * inv_n)
        )
        return gx, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)

    return _record("layer_norm", (x, gamma, beta), out, bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x, cube, out):
    """tanh((x + cube * A) * C) written into `out`, which may be `cube`."""
    np.multiply(cube, _GELU_A, out=out)
    np.add(x, out, out=out)
    np.multiply(out, _GELU_C, out=out)
    return np.tanh(out, out=out)


def _gelu_into(x, out, op):
    """GELU of the array x written into `out`, BLOCK elements at a time; an
    overflowing cube raises an error naming `op`."""
    xs, outs = x.reshape(-1), out.reshape(-1)
    for lo, hi, (c,) in blocks(xs.size, x.dtype):
        xb, ob = xs[lo:hi], outs[lo:hi]
        np.multiply(xb, xb, out=c)
        np.multiply(c, xb, out=c)
        # the cubic term overflows long before the output does; the whole
        # cube is checked so that a NaN in any block names the error
        if not np.isfinite(c).all():
            _check_finite(x * x * x, op)
        _gelu_tanh(xb, c, out=c)
        np.add(c, 1.0, out=c)
        np.multiply(xb, 0.5, out=ob)
        np.multiply(ob, c, out=ob)
    return out


def _gelu_grad(x, g, gx, y=None):
    """g * GELU'(x) written into `gx`, which may be g, BLOCK elements at a
    time. Nothing full-size is kept: tanh is recomputed from x. Given `y`,
    the same pass writes the GELU output into it, bit for bit."""
    xs, gs, gxs = x.reshape(-1), g.reshape(-1), gx.reshape(-1)
    ys = None if y is None else y.reshape(-1)
    for lo, hi, (t, dt, h) in blocks(xs.size, x.dtype, x.dtype, x.dtype):
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
        np.add(t, 1.0, out=t)
        if ys is not None:
            np.multiply(h, t, out=ys[lo:hi])
        np.multiply(h, dt, out=h)
        np.multiply(t, 0.5, out=t)
        np.add(t, h, out=t)
        np.multiply(gs[lo:hi], t, out=gxs[lo:hi])
    return gx


def gelu(x):
    """tanh-approximation GELU, BLOCK elements at a time."""
    out = _gelu_into(x.data, np.empty(x.shape, x.dtype), "gelu")

    def bw(g):
        return (_gelu_grad(x.data, g, np.empty(x.shape, np.result_type(g, x.data))),)

    return _record("gelu", (x,), out, bw)


def mlp(x, w1, b1, w2, b2):
    """GELU(x @ w1 + b1) @ w2 + b2 in one tape node, bit-exact with the two
    linear nodes and the GELU node it replaces. It keeps only the fc1
    pre-activation; backward rebuilds the GELU output in the pass that takes
    the GELU derivative."""
    pre = x.data @ w1.data
    pre += b1.data
    out = _gelu_into(pre, np.empty(pre.shape, pre.dtype), "mlp") @ w2.data
    out += b2.data

    def bw(g):
        # fc2's input gradient now, its weight gradient once h is rebuilt
        gh, _ = _matmul_grads(pre, w2.data, g, True, False)
        # the GELU gradient is written over gh, so it takes pre's width
        gh = gh.astype(np.result_type(gh, pre), copy=False)
        h = np.empty(pre.shape, pre.dtype)
        _gelu_grad(pre, gh, gh, h)
        _, gw2 = _matmul_grads(h, w2.data, g, False, w2.requires_grad)
        del h
        gx, gw1 = _matmul_grads(x.data, w1.data, gh, x.requires_grad, w1.requires_grad)
        return gx, gw1, _grad(b1, lambda: gh), gw2, _grad(b2, lambda: g)

    return _record("mlp", (x, w1, b1, w2, b2), out, bw)


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
    """Populate .grad of every requires_grad tensor reachable from loss.

    Consumes the tape: `tape.nodes` is rebound to a new empty list (the list
    it held is left as it was), and each node is dropped once its backward
    has run, so an intermediate is freed after its producer's backward.
    """
    if loss.data.size != 1:
        raise TensorError("backward: loss must be a scalar")
    if not tape.nodes:
        raise TensorError("backward: empty tape")
    nodes = list(tape.nodes)
    tape.nodes = []
    # ids stay unique: every keyed tensor was alive when backward started
    # and backward makes no Tensor, so a freed output's id is never read
    produced = {id(n.output) for n in nodes}
    grads = {id(loss): np.ones_like(loss.data)}
    leaf = {}
    while nodes:
        node = nodes.pop()
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

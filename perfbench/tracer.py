"""Timing hooks for the benchmark, installed from outside the package.

`Recorder` is always on: it timestamps the end of every optimizer update,
keeps each training loss and times evaluation, which is all the end-to-end
metrics need. `Tracer` is on only in a traced run: it wraps the public
functions of `swinmae` at their module attributes (and at every other module
attribute that names the same function), records a span per call, wraps each
tape node's `backward_fn` with a timer, and turns the spans into per-layer
metrics. Both put back every attribute they replaced when uninstalled.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

# Tensor primitives by the op name their tape nodes carry.
TENSOR_OPS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul",
    "scale": "scale", "square": "square", "sqrt": "sqrt",
    "reciprocal": "reciprocal", "tanh": "tanh", "reshape": "reshape",
    "transpose": "transpose", "roll": "roll", "gather": "gather",
    "softmax": "softmax_lastdim", "sum": "sum_",
    "cross_entropy": "softmax_cross_entropy",
}
PATCH_FNS = (
    "patch_partition", "patch_merging", "patch_expanding", "window_partition",
    "window_reverse", "cyclic_shift", "cyclic_unshift", "shift_attention_mask",
)
MODEL_SCOPES = (
    ["embed", "mask"]
    + [f"enc.stage{k}.{part}" for k in range(4) for part in ("attn", "mlp")]
    + [f"enc.merge{k}" for k in range(3)]
    + ["dec", "head_loss"]
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("tensor.fwd_ms", "ms"), ("tensor.bwd_ms", "ms"),
        ("tensor.nodes", "count"), ("tensor.tape_mb", "MB"),
        ("tensor.matmul_gflop", "GFLOP"), ("tensor.matmul_gflop_per_s", "GFLOP/s"),
    ]
    for op in TENSOR_OPS:
        out += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms"),
                (f"tensor.{op}.calls", "count")]
    for fn in PATCH_FNS:
        out += [(f"patches.{fn}.ms", "ms"), (f"patches.{fn}.calls", "count")]
    for scope in MODEL_SCOPES:
        out += [(f"model.{scope}.fwd_ms", "ms"), (f"model.{scope}.bwd_ms", "ms")]
    out += [
        ("masking.plan_ms", "ms"), ("masking.plans", "count"),
        ("masking.apply_ms", "ms"),
        ("training.adam_ms", "ms"), ("training.ckpt_save_ms", "ms"),
        ("training.ckpt_bytes", "bytes"), ("training.ckpt_load_ms", "ms"),
        ("training.input_wait_ms", "ms"),
        ("segmentation.augment_ms", "ms"), ("segmentation.predict_ms", "ms"),
        ("segmentation.predict_calls", "count"), ("segmentation.eval_ms", "ms"),
        ("segmentation.transfer_ms", "ms"),
        ("metrics.confusion_ms", "ms"), ("metrics.area_ms", "ms"),
        ("metrics.hausdorff_ms", "ms"), ("metrics.hausdorff_pairs", "count"),
        ("data.generate_ms", "ms"), ("data.load_ms", "ms"),
        ("data.images", "count"),
        ("trace.overhead_ms", "ms"),
    ]
    return out


# ------------------------------------------------------------ span arithmetic


def union_length(intervals, lo=float("-inf"), hi=float("inf")):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, children):
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - union_length(children, start, end)


def tail_percentile(samples, beyond=10):
    """(value, percentile, n) for the highest order statistic that has at
    least `beyond` samples above it. Needs more than `beyond` samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    k = n - beyond - 1
    return xs[k], 100.0 * k / (n - 1), n


def attribute_nodes(n_nodes, ranges):
    """owner[i] = index in `ranges` of the innermost [n0, n1) holding tape
    node i, or -1. `ranges` come in the order their spans opened, so a range
    nested inside an earlier one overrides it."""
    owner = np.full(n_nodes, -1, dtype=np.int64)
    for j, (n0, n1) in enumerate(ranges):
        owner[n0:n1] = j
    return owner


# ------------------------------------------------------------------ patching


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, _raw_attr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _raw_attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _aliases(fn):
    """Every (module, attribute) of a loaded swinmae module naming `fn`."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "swinmae" or name.startswith("swinmae.")):
            continue
        for attr, value in sorted(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


# ------------------------------------------------------------------ recorder


class Recorder:
    """Always-on probes: update timestamps, losses, batch sizes, evaluation.

    A step's time runs from the end of the previous update (or the start of
    the unit) to the end of its own update, minus any evaluation in between.
    """

    def __init__(self):
        self.steps = []  # (ms, traced)
        self.losses = []
        self.images = 0
        self.eval_s = 0.0
        self.eval_rates = []  # images/s of each evaluation pass
        self.traced = False
        self._mark = clock()
        self._excluded = 0.0
        self._patcher = Patcher()

    def mark(self):
        """Start a unit: the next step is timed from here."""
        self._mark = clock()
        self._excluded = 0.0

    def add_eval(self, seconds, images):
        self.eval_s += seconds
        self.eval_rates.append(images / seconds)
        self._excluded += seconds

    def install(self):
        from swinmae import model, segmentation, training

        rec = self
        adam_step = training.Adam.__dict__["step"]

        def step(self, lr):
            adam_step(self, lr)
            now = clock()
            rec.steps.append(((now - rec._mark - rec._excluded) * 1e3, rec.traced))
            rec._mark = now
            rec._excluded = 0.0

        self._patcher.set(training.Adam, "step", functools.update_wrapper(step, adam_step))
        for cls in (model.SwinMae, segmentation.SwinUnet):
            self._patcher.set(cls, "loss", self._loss_probe(cls.__dict__["loss"]))
        evaluate = segmentation.evaluate_segmentation

        def evaluate_segmentation(model_, images, *a, **kw):
            t = clock()
            out = evaluate(model_, images, *a, **kw)
            rec.add_eval(clock() - t, images.shape[0])
            return out

        self._patcher.set(
            segmentation, "evaluate_segmentation",
            functools.update_wrapper(evaluate_segmentation, evaluate),
        )

    def _loss_probe(self, loss_fn):
        rec = self

        def loss(self, image, *a, **kw):
            out = loss_fn(self, image, *a, **kw)
            rec.losses.append(out.item())
            rec.images += image.shape[0]
            return out

        return functools.update_wrapper(loss, loss_fn)

    def uninstall(self):
        self._patcher.restore()


# -------------------------------------------------------------------- tracer

# span fields
NAME, START, END, PARENT, STEP, N0, N1, SCOPE, SPARENT, KIND, WORK = range(11)


def _prefix_scope(part):
    """Scope of an attention or block call from its parameter prefix."""

    def scope(args):
        prefix = args[2]
        if prefix.startswith("enc.stage"):
            return f"enc.stage{prefix[len('enc.stage')]}.{part}"
        return None

    return scope


class Tracer:
    """Spans around every call into swinmae's public functions.

    A span is [name, start, end, parent, step, n0, n1, scope, scope parent,
    kind, work]: `n0`/`n1` are the tape length when it opened and closed (-1
    without a tape), so tape nodes appended inside a span belong to it.
    `kind` is "setup", "train" or "eval", inherited from the parent span.
    """

    def __init__(self, recorder):
        self.rec = recorder
        self.spans = []
        self._stack = []
        self._patcher = Patcher()
        self._fwd_lo = 0
        self._merge_i = 0
        self.op_bwd = defaultdict(float)
        self.scope_bwd = defaultdict(float)
        self.nodes = 0
        self.tape_bytes = 0
        self.matmul_flop = 0.0
        from swinmae import tensor

        self._active_tape = tensor.active_tape

    # -- spans

    def _open(self, name, scope=None, kind=None):
        spans = self.spans
        if self._stack:
            parent = self._stack[-1]
            p = spans[parent]
            sparent = parent if p[SCOPE] else p[SPARENT]
            kind = kind or p[KIND]
        else:
            parent = sparent = -1
            kind = kind or "train"
        tape = self._active_tape()
        n0 = len(tape.nodes) if tape is not None else -1
        idx = len(spans)
        spans.append([name, clock(), 0.0, parent, len(self.rec.steps), n0, -1,
                      scope, sparent, kind, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        s = self.spans[idx]
        s[END] = clock()
        if s[N0] >= 0:
            s[N1] = len(self._active_tape().nodes)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, kind=None):
        """A span opened by the benchmark itself."""
        idx = self._open(name, None, kind)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers

    def _wrapper(self, orig, name, scope=None, kind=None, work=None, after=None):
        tracer = self

        def wrapper(*a, **kw):
            idx = tracer._open(name, scope(a) if callable(scope) else scope, kind)
            try:
                out = orig(*a, **kw)
                if work is not None:
                    tracer.spans[idx][WORK] = work(a, out)
                return out
            finally:
                tracer._close(idx)
                if after is not None:
                    after()

        return functools.update_wrapper(wrapper, orig)

    def _wrap_fn(self, fn, name, **kw):
        wrapped = self._wrapper(fn, name, **kw)
        for mod, attr in _aliases(fn):
            self._patcher.set(mod, attr, wrapped)

    def _wrap_method(self, cls, attr, name, **kw):
        self._patcher.set(cls, attr, self._wrapper(cls.__dict__[attr], name, **kw))

    def _embed_scope(self, args):
        self._merge_i = 0
        return "embed"

    def _merge_scope(self, args):
        self._merge_i += 1
        return f"enc.merge{self._merge_i - 1}"

    def install(self):
        from swinmae import data, masking, metrics, model, patches, segmentation
        from swinmae import tensor, training

        for op, attr in TENSOR_OPS.items():
            self._wrap_fn(getattr(tensor, attr), f"tensor.{op}")
        self._wrap_fn(tensor.backward, "tensor.backward")
        self._patch_backward(tensor)
        for fn in PATCH_FNS:
            kw = {}
            if fn == "patch_partition":
                kw["scope"] = self._embed_scope
            elif fn == "patch_merging":
                kw["scope"] = self._merge_scope
            self._wrap_fn(getattr(patches, fn), f"patches.{fn}", **kw)
        self._wrap_fn(masking.build_mask_plan, "masking.build_mask_plan")
        self._wrap_fn(masking.apply_mask_tokens, "masking.apply_mask_tokens", scope="mask")
        self._wrap_fn(model.attention, "model.attention", scope=_prefix_scope("attn"))
        self._wrap_fn(model.swin_block_forward, "model.swin_block_forward",
                      scope=_prefix_scope("mlp"))
        self._wrap_fn(model.run_stage, "model.run_stage")
        self._wrap_fn(model.encoder_forward, "model.encoder_forward")
        self._wrap_method(model.SwinMae, "loss", "model.SwinMae.loss", scope="head_loss")
        self._wrap_method(model.SwinMae, "decode", "model.SwinMae.decode", scope="dec")
        self._wrap_fn(training.train_step, "training.train_step")
        self._wrap_method(training.Adam, "step", "training.Adam.step",
                          after=self.after_update)
        self._wrap_fn(training.save_checkpoint, "training.save_checkpoint",
                      work=lambda a, out: os.path.getsize(a[0]))
        self._wrap_fn(training.load_checkpoint, "training.load_checkpoint")
        self._wrap_method(segmentation.SwinUnet, "loss", "segmentation.SwinUnet.loss",
                          scope="head_loss")
        # the up-path and head run inline in forward, so its remainder is dec
        self._wrap_method(segmentation.SwinUnet, "forward",
                          "segmentation.SwinUnet.forward", scope="dec")
        self._wrap_method(segmentation.SwinUnet, "predict", "segmentation.SwinUnet.predict")
        self._wrap_fn(segmentation.augment_batch, "segmentation.augment_batch")
        self._wrap_fn(segmentation.evaluate_segmentation,
                      "segmentation.evaluate_segmentation", kind="eval")
        self._wrap_fn(segmentation.build_swin_unet_from_checkpoint,
                      "segmentation.build_swin_unet_from_checkpoint")
        self._wrap_fn(metrics.confusion_counts, "metrics.confusion_counts")
        self._wrap_fn(metrics.area_metrics, "metrics.area_metrics")
        self._wrap_fn(metrics.hausdorff_per_class, "metrics.hausdorff_per_class")
        self._wrap_fn(metrics.cdist, "metrics.cdist",
                      work=lambda a, out: len(a[0]) * len(a[1]))
        self._wrap_fn(data.generate_synthetic_dataset, "data.generate_synthetic_dataset")
        self._wrap_fn(data.load_stack, "data.load_stack", work=lambda a, out: len(a[0]))
        self._wrap_fn(data.load_labeled, "data.load_labeled", work=lambda a, out: len(a[0]))

    def uninstall(self):
        self._patcher.restore()

    # -- backward

    def _patch_backward(self, tensor):
        """Replace the (already span-wrapped) backward with one that times
        every tape node, then attributes node times to ops and scopes."""
        traced_backward = tensor.backward
        tracer = self

        def backward(loss, tape):
            nodes = tape.nodes
            times = [None] * len(nodes)
            originals = [node.backward_fn for node in nodes]
            for i, node in enumerate(nodes):
                node.backward_fn = _timed(originals[i], i, times)
            try:
                traced_backward(loss, tape)
            finally:
                for node, fn in zip(nodes, originals):
                    node.backward_fn = fn
            tracer._account_backward(nodes, times)

        backward = functools.update_wrapper(backward, traced_backward)
        for mod, attr in _aliases(traced_backward):
            self._patcher.set(mod, attr, backward)

    def _account_backward(self, nodes, times):
        self.nodes += len(nodes)
        for node, t in zip(nodes, times):
            self.tape_bytes += node.output.data.nbytes
            if t is not None:
                self.op_bwd[node.op] += t
            if node.op == "matmul":
                flop = 2.0 * node.output.data.size * node.inputs[0].shape[-1]
                self.matmul_flop += flop * (3.0 if t is not None else 1.0)
        # scope spans of this step's forward, in opening order
        scoped = [
            s for s in self.spans[self._fwd_lo:]
            if s[SCOPE] and s[N0] >= 0 and s[KIND] == "train"
        ]
        owner = attribute_nodes(len(nodes), [(s[N0], s[N1]) for s in scoped])
        for i, t in enumerate(times):
            if t is not None:
                self.scope_bwd[scoped[owner[i]][SCOPE] if owner[i] >= 0 else "other"] += t

    def after_update(self):
        """Spans opened from here on belong to the next step's forward."""
        self._fwd_lo = len(self.spans)

    # -- per-layer metrics

    def metrics(self, overhead_ms):
        """Per-layer metrics from the recorded spans (see README.md for the
        denominator of each)."""
        spans = self.spans
        steps = sum(1 for _, traced in self.rec.steps if traced) or 1
        total = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(float)
        for s in spans:
            key = (s[KIND], s[NAME])
            total[key] += s[END] - s[START]
            calls[key] += 1
            work[key] += s[WORK]

        def ms(kind, name, per):
            return 1e3 * total[(kind, name)] / per if per else 0.0

        out = {}
        fwd_total = 0.0
        for op in TENSOR_OPS:
            key = ("train", f"tensor.{op}")
            fwd_total += total[key]
            out[f"tensor.{op}.fwd_ms"] = 1e3 * total[key] / steps
            out[f"tensor.{op}.bwd_ms"] = 1e3 * self.op_bwd[op] / steps
            out[f"tensor.{op}.calls"] = calls[key] / steps
        matmul_s = total[("train", "tensor.matmul")] + self.op_bwd["matmul"]
        out.update({
            "tensor.fwd_ms": 1e3 * fwd_total / steps,
            "tensor.bwd_ms": ms("train", "tensor.backward", steps),
            "tensor.nodes": self.nodes / steps,
            "tensor.tape_mb": self.tape_bytes / 2**20 / steps,
            "tensor.matmul_gflop": self.matmul_flop / 1e9 / steps,
            "tensor.matmul_gflop_per_s": self.matmul_flop / 1e9 / matmul_s if matmul_s else 0.0,
        })
        for fn in PATCH_FNS:
            out[f"patches.{fn}.ms"] = ms("train", f"patches.{fn}", steps)
            out[f"patches.{fn}.calls"] = calls[("train", f"patches.{fn}")] / steps
        fwd = self.scope_forward()
        for scope in MODEL_SCOPES:
            out[f"model.{scope}.fwd_ms"] = 1e3 * fwd[scope] / steps
            out[f"model.{scope}.bwd_ms"] = 1e3 * self.scope_bwd[scope] / steps
        step_s = sum(ms_ for ms_, traced in self.rec.steps if traced) / 1e3
        busy = sum(total[("train", n)] for n in (
            "model.SwinMae.loss", "segmentation.SwinUnet.loss",
            "tensor.backward", "training.Adam.step"))
        saves = sum(calls[(k, "training.save_checkpoint")] for k in ("train", "setup"))
        save_bytes = sum(work[(k, "training.save_checkpoint")] for k in ("train", "setup"))
        setups = calls[("setup", "bench.setup")]
        evals = calls[("eval", "segmentation.evaluate_segmentation")]
        loads = ("data.load_stack", "data.load_labeled")
        out.update({
            "masking.plan_ms": ms("train", "masking.build_mask_plan", steps),
            "masking.plans": calls[("train", "masking.build_mask_plan")] / steps,
            "masking.apply_ms": ms("train", "masking.apply_mask_tokens", steps),
            "training.adam_ms": ms("train", "training.Adam.step", steps),
            "training.ckpt_save_ms": ms("train", "training.save_checkpoint", steps),
            "training.ckpt_bytes": save_bytes / saves if saves else 0.0,
            "training.ckpt_load_ms": ms("setup", "training.load_checkpoint", setups),
            "training.input_wait_ms": 1e3 * (step_s - busy) / steps,
            "segmentation.augment_ms": ms("train", "segmentation.augment_batch", steps),
            "segmentation.predict_ms": ms("eval", "segmentation.SwinUnet.predict", evals),
            "segmentation.predict_calls": (
                calls[("eval", "segmentation.SwinUnet.predict")] / evals if evals else 0.0),
            "segmentation.eval_ms": ms("eval", "segmentation.evaluate_segmentation", evals),
            "segmentation.transfer_ms": ms(
                "setup", "segmentation.build_swin_unet_from_checkpoint", setups),
            "metrics.confusion_ms": ms("eval", "metrics.confusion_counts", evals),
            "metrics.area_ms": ms("eval", "metrics.area_metrics", evals),
            "metrics.hausdorff_ms": ms("eval", "metrics.hausdorff_per_class", evals),
            "metrics.hausdorff_pairs": (
                work[("eval", "metrics.cdist")] / evals if evals else 0.0),
            "data.generate_ms": ms("setup", "data.generate_synthetic_dataset", setups),
            "data.load_ms": 1e3 * sum(total[("setup", n)] for n in loads) / setups
            if setups else 0.0,
            "data.images": sum(work[("setup", n)] for n in loads) / setups if setups else 0.0,
            "trace.overhead_ms": overhead_ms,
        })
        return out

    def scope_forward(self):
        """Forward self time per model scope: each training-kind scope span
        minus the union of the scope spans nested directly inside it."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s[SCOPE] and s[KIND] == "train" and s[N0] >= 0 and s[SPARENT] >= 0:
                children[s[SPARENT]].append((s[START], s[END]))
        fwd = defaultdict(float)
        for i, s in enumerate(spans):
            if s[SCOPE] and s[KIND] == "train" and s[N0] >= 0:
                fwd[s[SCOPE]] += self_time(s[START], s[END], children.get(i, ()))
        return fwd

    def self_times(self):
        """Total self time per span name (children of any name subtracted)."""
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]].append((s[START], s[END]))
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[NAME]] += self_time(s[START], s[END], children.get(i, ()))
        return dict(out)

    def dump(self):
        """Spans as a compact JSON-ready dict: names and kinds as indices,
        times in microseconds from the first span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        kinds = ["setup", "train", "eval"]
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [index[s[NAME]], round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1),
             s[PARENT], s[STEP], kinds.index(s[KIND])]
            for s in self.spans
        ]
        top = sorted(self.self_times().items(), key=lambda kv: -kv[1])[:40]
        return {
            "fields": ["name", "start_us", "end_us", "parent", "step", "kind"],
            "names": names, "kinds": kinds, "spans": rows,
            "self_ms_top": {n: round(v * 1e3, 3) for n, v in top},
        }


def _timed(fn, i, times):
    def bw(g):
        t = clock()
        out = fn(g)
        times[i] = clock() - t
        return out

    return bw

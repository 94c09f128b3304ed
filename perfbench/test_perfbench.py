"""Tests of the benchmark itself: span arithmetic, backward attribution, the
tail percentile, and that tracing changes no bit of the numerics and leaves
no wrapper behind.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
from swinmae import data, masking, metrics, model, segmentation, training  # noqa: E402,F401
from swinmae import tensor as T  # noqa: E402


# ------------------------------------------------------------ span arithmetic


def test_self_time_subtracts_union_of_children():
    # children overlap each other (2-5, 4-6) and one sticks out of the span
    children = [(2.0, 5.0), (4.0, 6.0), (8.0, 12.0)]
    assert tr.union_length(children) == 8.0
    assert tr.self_time(0.0, 10.0, children) == 10.0 - (4.0 + 2.0)
    assert tr.self_time(0.0, 10.0, []) == 10.0
    # a child covering the whole span leaves no self time
    assert tr.self_time(1.0, 3.0, [(0.0, 4.0)]) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(50, 0, -1))
    value, pct, n = tr.tail_percentile(samples)
    assert n == 50
    assert sum(1 for s in samples if s > value) == 10
    assert value == 40 and pct == pytest.approx(100.0 * 39 / 49)
    assert tr.tail_percentile(range(11))[0] == 0
    with pytest.raises(ValueError):
        tr.tail_percentile(range(10))


def test_backward_time_goes_to_innermost_scope_by_tape_range():
    owner = tr.attribute_nodes(8, [(0, 6), (1, 3), (3, 5)])
    assert owner.tolist() == [0, 1, 1, 2, 2, 0, -1, -1]

    tracer = tr.Tracer(tr.Recorder())
    span = [None] * 11
    spans = []
    for scope, n0, n1 in (("head_loss", 0, 6), ("embed", 1, 3), ("dec", 3, 5)):
        s = list(span)
        s[tr.SCOPE], s[tr.N0], s[tr.N1], s[tr.KIND] = scope, n0, n1, "train"
        spans.append(s)
    tracer.spans = spans
    out = types.SimpleNamespace(data=np.zeros((2, 3)))
    nodes = [types.SimpleNamespace(op="add", output=out, inputs=()) for _ in range(7)]
    times = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    times[2] = None  # a node that received no gradient
    tracer._account_backward(nodes, times)
    assert dict(tracer.scope_bwd) == {
        "head_loss": 1.0 + 32.0, "embed": 2.0, "dec": 8.0 + 16.0, "other": 64.0,
    }
    assert tracer.op_bwd["add"] == sum(t for t in times if t is not None)
    assert tracer.nodes == 7


# ------------------------------------------------------------- bit identity


def _attributes():
    """Every attribute of every swinmae module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "swinmae" or name.startswith("swinmae."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def _desk_steps(n):
    spec = model.desk_spec()
    m = model.SwinMae(spec, seed=3)
    opt = training.Adam(m.params)
    images = np.random.default_rng(7).random((4, 3, 32, 32))
    losses = []
    for i in range(n):
        plan = masking.build_mask_plan(
            spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, masking.split_rng(3, i)
        )
        losses.append(training.train_step(m, images, plan, opt, 1e-3))
    return losses, {k: p.data.copy() for k, p in m.params.items()}


def test_traced_run_is_bit_identical_and_unwrapped():
    before = _attributes()
    plain_losses, plain_params = _desk_steps(6)

    rec = tr.Recorder()
    tracer = tr.Tracer(rec)
    rec.install()
    tracer.install()
    try:
        traced_losses, traced_params = _desk_steps(6)
    finally:
        tracer.uninstall()
        rec.uninstall()

    assert traced_losses == plain_losses
    assert traced_params.keys() == plain_params.keys()
    for k in plain_params:
        assert traced_params[k].tobytes() == plain_params[k].tobytes(), k
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the tracer saw the steps it wrapped
    assert rec.losses == plain_losses and len(rec.steps) == 6
    assert tracer.nodes == 6 * 590
    assert tr.MODEL_SCOPES[0] in tracer.scope_bwd


def test_backward_fn_wrappers_are_removed():
    rec = tr.Recorder()
    tracer = tr.Tracer(rec)
    tracer.install()
    try:
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.Tape() as tape:
            y = T.sum_(T.square(T.scale(x, 2.0)))
        originals = [node.backward_fn for node in tape.nodes]
        T.backward(y, tape)
    finally:
        tracer.uninstall()
    assert [node.backward_fn for node in tape.nodes] == originals
    assert x.grad.tolist() == (8.0 * x.data).tolist()
    assert set(tracer.op_bwd) == {"scale", "square", "sum"}


def test_tracer_wraps_reimported_names():
    tracer = tr.Tracer(tr.Recorder())
    tracer.install()
    try:
        assert segmentation.run_stage is model.run_stage
        assert model.run_stage.__wrapped__ is not None
        assert model.apply_mask_tokens is masking.apply_mask_tokens
        assert training.build_mask_plan is masking.build_mask_plan
    finally:
        tracer.uninstall()
    assert not hasattr(model.run_stage, "__wrapped__")


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tr.per_layer_names()

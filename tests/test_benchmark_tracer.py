"""The benchmark's tracer (perfbench/tracer.py) wraps swinmae functions by
name. This test loads it as it is and runs a traced desk training step, so a
renamed or deleted function, or a moved argument the tracer reads, fails
here rather than in a traced benchmark run."""

import importlib.util
import os
import sys

import numpy as np

# every module the tracer patches, loaded before the attribute snapshot
from swinmae import data, masking, metrics, model, patches, segmentation, tensor, training  # noqa: F401

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py"
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tr)
    return tr


def swinmae_attributes():
    """Every attribute of every loaded swinmae module and of the classes they
    define, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "swinmae" or name.startswith("swinmae."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def desk_unit():
    spec = model.desk_spec()
    m = model.SwinMae(spec, seed=3)
    plan = masking.build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, masking.split_rng(3, 0)
    )
    return m, plan, np.random.default_rng(7).random((2, 3, 32, 32))


def desk_step():
    m, plan, images = desk_unit()
    loss = training.train_step(m, images, plan, training.Adam(m.params), 1e-3)
    return loss, {n: p.data.tobytes() for n, p in m.params.items()}


def desk_step_nodes():
    """Tape nodes of the desk step's loss, recorded as `train_step` records it."""
    m, plan, images = desk_unit()
    with tensor.Tape() as tape:
        m.loss(tensor.Tensor(images.astype(m.dtype)), plan)
    return len(tape.nodes)


def test_traced_desk_step_wraps_every_name_and_restores_them():
    tr = load_tracer()
    for attr in tr.TENSOR_OPS.values():
        assert hasattr(tensor, attr), attr
    for fn in tr.PATCH_FNS:
        assert hasattr(patches, fn), fn
    plain_loss, plain_params = desk_step()
    plain_nodes = desk_step_nodes()
    before = swinmae_attributes()
    rec = tr.Recorder()
    tracer = tr.Tracer(rec)
    try:
        rec.install()
        tracer.install()
        with tracer.span("bench.unit"):
            traced_loss, traced_params = desk_step()
        out = tracer.metrics(0.0)
    finally:
        tracer.uninstall()
        rec.uninstall()
    after = swinmae_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    assert traced_loss == plain_loss and traced_params == plain_params
    assert rec.losses == [plain_loss] and len(rec.steps) == 1
    assert set(out) == {name for name, _ in tr.per_layer_names()}
    # tracing adds no node
    assert out["tensor.nodes"] == plain_nodes
    # every encoder stage's attention and block scopes, read from the
    # prefix argument, and the embed, merge, decoder and loss scopes
    for scope in tr.MODEL_SCOPES:
        assert out[f"model.{scope}.fwd_ms"] > 0.0, scope
        assert out[f"model.{scope}.bwd_ms"] > 0.0, scope

import math
import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swinmae.tensor as T
from swinmae import training
from swinmae.tensor import ParamStore, Tensor, TensorError
from swinmae.masking import build_mask_plan, split_rng
from swinmae.model import SwinMae, desk_spec
from swinmae.training import (
    BETA1, BETA2, EPS, Adam, CheckpointError, cosine_lr, load_checkpoint,
    load_params_strict, run_pretraining, save_checkpoint, train_epochs, train_step,
    write_csv,
)


# ---------------------------------------------------------------- schedule


def test_cosine_endpoints_and_midpoint():
    lr_max = 3e-3
    assert cosine_lr(lr_max, 0, 10) == pytest.approx(lr_max)
    assert cosine_lr(lr_max, 10, 10) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(lr_max, 5, 10) == pytest.approx(lr_max / 2)


def test_cosine_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 200))
        i = int(rng.integers(0, m + 1))
        lr_max = float(rng.uniform(1e-6, 1.0))
        want = lr_max * (1.0 + math.cos(math.pi * i / m)) / 2.0
        assert cosine_lr(lr_max, i, m) == pytest.approx(want, rel=1e-15)


def test_cosine_monotone_decreasing():
    vals = [cosine_lr(1.0, i, 40) for i in range(41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_schedule_rejects_bad_args():
    """The epoch loop refuses a schedule with no epochs or no positive peak
    lr before it runs a batch."""

    def batches(epoch):
        raise AssertionError("no batch may run")

    model = SwinMae(desk_spec(), seed=0)
    for epochs, lr_max, match in [
        (0, 1.0, "epochs"), (-1, 1.0, "epochs"), (10, 0.0, "lr_max"), (10, -1e-3, "lr_max"),
    ]:
        with pytest.raises(TensorError, match=match):
            next(train_epochs(model, epochs, lr_max, 1, batches))


# -------------------------------------------------------------------- adam


def reference_adam(arrays, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with explicit bias-corrected moments, kept separate from
    the implementation under test."""
    out = {k: v.copy() for k, v in arrays.items()}
    m = {k: np.zeros_like(v) for k, v in arrays.items()}
    v = {k: np.zeros_like(a) for k, a in arrays.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for k in out:
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1 ** t)
            v_hat = v[k] / (1 - beta2 ** t)
            out[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def test_adam_matches_reference_oracle():
    rng = np.random.default_rng(5)
    ps = ParamStore()
    init = {}
    for name in ["a", "b.w", "c"]:
        arr = rng.standard_normal((3, 2))
        init[name] = arr.copy()
        ps.add(name, Tensor(arr.copy()))
    opt = Adam(ps)
    grads_per_step = []
    for _ in range(7):
        grads = {n: rng.standard_normal((3, 2)) for n in init}
        grads_per_step.append(grads)
        for n in init:
            ps[n].grad = grads[n].copy()
        opt.step(1e-2)
    want = reference_adam(init, grads_per_step, 1e-2)
    for n in init:
        np.testing.assert_allclose(ps[n].data, want[n], rtol=1e-12, atol=1e-14)


def test_adam_zero_grad_is_noop():
    ps = ParamStore()
    ps.add("w", Tensor(np.ones((4,))))
    opt = Adam(ps)
    before = ps["w"].data.copy()
    ps["w"].grad = np.zeros((4,))
    opt.step(1.0)
    np.testing.assert_array_equal(ps["w"].data, before)


def test_adam_lr_zero_leaves_params_unchanged():
    rng = np.random.default_rng(1)
    ps = ParamStore()
    ps.add("w", Tensor(rng.standard_normal((5,))))
    before = ps["w"].data.copy()
    opt = Adam(ps)
    ps["w"].grad = rng.standard_normal((5,))
    opt.step(0.0)
    np.testing.assert_array_equal(ps["w"].data, before)


def test_adam_converges_on_quadratic():
    # minimize 0.5 * ||w - target||^2
    target = np.array([1.0, -2.0, 0.5])
    ps = ParamStore()
    ps.add("w", Tensor(np.zeros(3)))
    opt = Adam(ps)
    for _ in range(2000):
        ps["w"].grad = ps["w"].data - target
        opt.step(1e-2)
    np.testing.assert_allclose(ps["w"].data, target, atol=1e-3)


def test_adam_skips_params_without_grad():
    ps = ParamStore()
    ps.add("used", Tensor(np.ones(2)))
    ps.add("frozen", Tensor(np.ones(2)))
    opt = Adam(ps)
    ps["used"].grad = np.ones(2)
    opt.step(0.1)
    np.testing.assert_array_equal(ps["frozen"].data, np.ones(2))
    assert not np.allclose(ps["used"].data, np.ones(2))


def adam_oracle(p, m, v, g, lr, t):
    """The unblocked update the blocked Adam replaced, in place."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape", [(1,), (T.BLOCK - 1,), (T.BLOCK,), (3 * T.BLOCK + 7,), (7, T.BLOCK // 5)]
)
def test_blocked_adam_bit_identical_to_oracle(shape, dtype):
    rng = np.random.default_rng(shape[0])
    init = rng.standard_normal(shape).astype(dtype)
    ps = ParamStore()
    ps.add("w", Tensor(init.copy()))
    opt = Adam(ps)
    p, m, v = init.copy(), np.zeros(shape, dtype), np.zeros(shape, dtype)
    for t, lr in enumerate((1e-2, 3e-3, 1e-3), start=1):
        g = rng.standard_normal(shape).astype(dtype)
        ps["w"].grad = g.copy()
        opt.step(lr)
        adam_oracle(p, m, v, g, lr, t)
    for got, want in ((ps["w"].data, p), (opt.m["w"], m), (opt.v["w"], v)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- checkpoints


def small_store(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    ps = ParamStore()
    ps.add("enc.embed.w", Tensor(rng.standard_normal((4, 8)).astype(dtype)))
    ps.add("enc.embed.b", Tensor(rng.standard_normal((8,)).astype(dtype)))
    ps.add("head", Tensor(rng.standard_normal((2, 2, 2)).astype(dtype)))
    return ps


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for dtype in (np.float32, np.float64):
        ps = small_store(3, dtype)
        path = tmp_path / f"ck_{np.dtype(dtype).name}.bin"
        save_checkpoint(path, ps, {"epoch": 7, "seed": 42})
        meta, tensors = load_checkpoint(path)
        assert meta == {"epoch": "7", "seed": "42"}
        assert set(tensors) == set(ps.names())
        for name in ps.names():
            assert tensors[name].dtype == np.dtype(dtype)
            np.testing.assert_array_equal(tensors[name], ps[name].data)


def test_checkpoint_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    ps = small_store()
    path = tmp_path / "full.bin"
    save_checkpoint(path, ps)
    blob = path.read_bytes()
    for cut in [3, 8, len(blob) // 2, len(blob) - 1]:
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(trunc)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    ps = small_store()
    path = tmp_path / "trail.bin"
    save_checkpoint(path, ps)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_unknown_dtype_code_rejected(tmp_path):
    ps = ParamStore()
    ps.add("w", Tensor(np.ones((2,))))
    path = tmp_path / "dt.bin"
    save_checkpoint(path, ps)
    blob = bytearray(path.read_bytes())
    # dtype code byte sits right after the name; name is "w" (1 byte) and
    # starts after magic(6) + meta_len(4) + count(4) + name_len(4).
    idx = 6 + 4 + 4 + 4 + 1
    assert blob[idx] in (0, 1)
    blob[idx] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(path)


def test_checkpoint_failed_write_keeps_previous(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, small_store(1), {"epoch": 0})
    broken = small_store(2)
    broken.add("z", Tensor(np.ones(2)))
    broken["z"].data = np.ones(2, dtype=np.float16)  # no dtype code: fails last
    with pytest.raises(KeyError):
        save_checkpoint(path, broken, {"epoch": 1})
    meta, tensors = load_checkpoint(path)
    assert meta == {"epoch": "0"}
    np.testing.assert_array_equal(tensors["head"], small_store(1)["head"].data)
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


@pytest.mark.parametrize(
    "metadata", [{"a\nb": 1}, {"a=b": 1}, {"k": "x\ny"}, {"k": "x\r"}]
)
def test_checkpoint_bad_metadata_rejected(tmp_path, metadata):
    path = tmp_path / "ck.bin"
    with pytest.raises(CheckpointError, match="metadata"):
        save_checkpoint(path, small_store(), metadata)
    assert not path.exists()


def _one_tensor_header(name_len, dims):
    """Header of a one-f64-tensor checkpoint named "w" with the given claims."""
    return (
        b"SWMAE\x01" + struct.pack("<II", 0, 1) + struct.pack("<I", name_len)
        + b"w" + struct.pack("<BB", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    )


@pytest.mark.parametrize(
    "name_len,dims",
    [
        (1, (1 << 17,)),  # payload: 1 MiB claimed, 8 bytes present
        (1 << 20, (1,)),  # name: 1 MiB claimed
        (1, (1 << 16,) * 4),  # 2^64 elements: wraps to 0 in int64
    ],
)
def test_checkpoint_oversized_claim_rejected(tmp_path, name_len, dims):
    path = tmp_path / "claim.bin"
    path.write_bytes(_one_tensor_header(name_len, dims) + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="claimed"):
        load_checkpoint(path)


def _raw_checkpoint(meta, names):
    """Checkpoint bytes with raw metadata and one 1-element f64 tensor per name."""
    out = b"SWMAE\x01" + struct.pack("<I", len(meta)) + meta + struct.pack("<I", len(names))
    for nb in names:
        out += struct.pack("<I", len(nb)) + nb + struct.pack("<BBI", 1, 1, 1) + b"\x00" * 8
    return out


def test_raw_checkpoint_loads_with_empty_metadata_value(tmp_path):
    path = tmp_path / "ok.bin"
    path.write_bytes(_raw_checkpoint(b"epoch=1\nnote=\n", [b"w", b"v"]))
    meta, tensors = load_checkpoint(path)
    assert meta == {"epoch": "1", "note": ""}
    assert sorted(tensors) == ["v", "w"]


@pytest.mark.parametrize(
    "meta,names,match",
    [
        (b"\xff\xfe", [b"w"], "metadata is not valid UTF-8"),
        (b"epoch\n", [b"w"], "no '='"),
        (b"", [b"\xff"], "tensor name is not valid UTF-8"),
        (b"", [b"w", b"w"], "duplicate tensor name"),
    ],
)
def test_checkpoint_malformed_content_rejected(tmp_path, meta, names, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(_raw_checkpoint(meta, names))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _two_tensor_checkpoint(path):
    """A 104-byte checkpoint: three metadata lines, an f32 [2, 3] tensor "a.w"
    whose rank byte is at offset 44, and an f64 [2] tensor "b" whose rank
    byte is at offset 83."""
    ps = ParamStore()
    ps.add("a.w", Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
    ps.add("b", Tensor(np.array([1.0, 2.0])))
    save_checkpoint(path, ps, {"epoch": 3, "seed": 0, "note": "x"})
    blob = path.read_bytes()
    assert len(blob) == 104 and (blob[44], blob[83]) == (2, 1)
    return blob


def test_checkpoint_dims_numpy_refuses_rejected(tmp_path):
    """A raised rank reads the following bytes as dims. Where they hold a 0
    beside huge dims every size check passes, yet numpy refuses the shape;
    so it does for more than 64 dims."""
    path = tmp_path / "ck.bin"
    blob = _two_tensor_checkpoint(path)
    for offset, rank, name in [(44, r, "a.w") for r in range(5, 15)] + [(83, 5, "b")]:
        bad = bytearray(blob)
        bad[offset] = rank
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match=f"tensor '{name}': dims"):
            load_checkpoint(path)
    path.write_bytes(_one_tensor_header(1, (1,) * 65) + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="tensor 'w': dims"):
        load_checkpoint(path)


# save refuses line breaks in metadata and "=" in its keys
_META_TEXT = st.text(
    st.characters(exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=6,
)

_ARRAYS = st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    )
)


def _encodable(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _assert_refused_untouched(path, ps, meta):
    """save_checkpoint raises CheckpointError and leaves the directory as it
    was: the previous checkpoint intact and no temporary file."""
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    with pytest.raises(CheckpointError, match="cannot be encoded as UTF-8"):
        save_checkpoint(path, ps, meta)
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


def test_checkpoint_unencodable_text_rejected(tmp_path):
    """A lone surrogate in a metadata value or a tensor name cannot be
    written as UTF-8."""
    path = tmp_path / "ck.bin"
    _two_tensor_checkpoint(path)
    ps = ParamStore()
    ps.add("w", Tensor(np.zeros(2)))
    _assert_refused_untouched(path, ps, {"": "\ud800"})
    bad = ParamStore()
    bad.add("w\udcff", Tensor(np.zeros(2)))
    _assert_refused_untouched(path, bad, {"epoch": 1})
    _assert_refused_untouched(tmp_path / "new.bin", bad, None)


def test_checkpoint_roundtrip_property(tmp_path):
    path = tmp_path / "ck.bin"

    @settings(max_examples=60, deadline=None)
    @given(
        meta=st.dictionaries(_META_TEXT.filter(lambda k: "=" not in k), _META_TEXT, max_size=3),
        arrays=st.dictionaries(st.text(max_size=6), _ARRAYS, max_size=3),
    )
    def check(meta, arrays):
        ps = ParamStore()
        for name, arr in arrays.items():
            ps.add(name, Tensor(arr))
        if not all(map(_encodable, [*meta, *meta.values(), *arrays])):
            _assert_refused_untouched(path, ps, meta)
            return
        save_checkpoint(path, ps, meta)
        got_meta, got = load_checkpoint(path)
        assert got_meta == meta
        assert set(got) == set(arrays)
        for name, arr in arrays.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape
            assert got[name].tobytes() == arr.tobytes()

    check()


def test_checkpoint_corruption_raises_only_checkpoint_error(tmp_path):
    """Every truncation and any single-byte substitution either loads or
    raises CheckpointError."""
    path = tmp_path / "bad.bin"
    blob = _two_tensor_checkpoint(tmp_path / "ck.bin")

    def load(data):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    for cut in range(len(blob)):
        load(blob[:cut])

    @settings(max_examples=400, deadline=None)
    @given(offset=st.integers(0, len(blob) - 1), value=st.integers(0, 255))
    def check(offset, value):
        load(blob[:offset] + bytes([value]) + blob[offset + 1:])

    check()


def test_load_params_strict_errors():
    ps = small_store()
    full = {n: ps[n].data.copy() for n in ps.names()}
    missing = dict(full)
    missing.pop("head")
    with pytest.raises(CheckpointError, match="missing"):
        load_params_strict(ps, missing)
    extra = dict(full)
    extra["bogus"] = np.zeros(1)
    with pytest.raises(CheckpointError, match="unknown"):
        load_params_strict(ps, extra)
    bad_shape = dict(full)
    bad_shape["head"] = np.zeros((5, 5))
    with pytest.raises(CheckpointError, match="shape"):
        load_params_strict(ps, bad_shape)


def test_load_params_strict_applies_values():
    ps = small_store(0)
    other = small_store(9)
    load_params_strict(ps, {n: other[n].data for n in other.names()})
    for n in ps.names():
        np.testing.assert_array_equal(ps[n].data, other[n].data)
    # f64-written values load into an f32 store with a cast
    ps32 = small_store(0, np.float32)
    load_params_strict(ps32, {n: other[n].data for n in other.names()})
    for n in ps32.names():
        assert ps32[n].dtype == np.float32
        np.testing.assert_array_equal(ps32[n].data, other[n].data.astype(np.float32))


# ---------------------------------------------------------------- training


def tiny_images(n=6, seed=0):
    return np.random.default_rng(seed).random((n, 3, 32, 32))


def test_train_step_reduces_loss_same_batch():
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    opt = Adam(model.params)
    batch = tiny_images(2)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 0)
    )
    first = train_step(model, batch, plan, opt, 1e-3)
    last = first
    for _ in range(12):
        last = train_step(model, batch, plan, opt, 1e-3)
    assert last < first


def test_train_step_aborts_on_nonfinite_loss():
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    model.params["enc.embed.w"].data[:] = np.nan
    opt = Adam(model.params)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 0)
    )
    # the op-level finiteness check fires before the loss guard does
    with pytest.raises(TensorError, match="NaN"):
        with np.errstate(invalid="ignore"):
            train_step(model, tiny_images(1), plan, opt, 1e-3)


def test_pretraining_deterministic_across_runs():
    spec = desk_spec()
    images = tiny_images(5, seed=3)

    def run():
        model = SwinMae(spec, seed=11)
        hist = run_pretraining(model, images, epochs=2, lr_max=1e-3,
                               batch_size=2, seed=7)
        return hist, {n: model.params[n].data.copy() for n in model.params.names()}

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2
    for n in p1:
        np.testing.assert_array_equal(p1[n], p2[n])


def test_pretraining_seed_changes_history():
    spec = desk_spec()
    images = tiny_images(4, seed=3)
    h1 = run_pretraining(SwinMae(spec, seed=11), images, 2, 1e-3, 2, seed=7)
    h2 = run_pretraining(SwinMae(spec, seed=11), images, 2, 1e-3, 2, seed=8)
    assert h1 != h2


def test_pretraining_writes_csv_and_checkpoint(tmp_path):
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    csv_path = tmp_path / "loss.csv"
    ck_path = tmp_path / "model.bin"
    hist = run_pretraining(
        model, tiny_images(3), epochs=2, lr_max=1e-3, batch_size=2, seed=1,
        csv_path=csv_path, checkpoint_path=ck_path,
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3
    for epoch, line in enumerate(lines[1:]):
        e, loss = line.split(",")
        assert int(e) == epoch
        assert float(loss) == hist[epoch]
    meta, tensors = load_checkpoint(ck_path)
    assert meta["kind"] == "pretrain"
    assert meta["epoch"] == "1"
    for n in model.params.names():
        np.testing.assert_array_equal(tensors[n], model.params[n].data)


def test_loss_csv_roundtrips_float_repr(tmp_path):
    hist = [0.1, 1.0 / 3.0, 2.5e-7]
    path = tmp_path / "h.csv"
    write_csv(path, ("epoch", "loss"), enumerate(hist))
    lines = path.read_text().splitlines()[1:]
    got = [float(line.split(",")[1]) for line in lines]
    assert got == hist


def test_train_epochs_yields_each_epoch_with_its_cosine_lr():
    spec = desk_spec()
    model = SwinMae(spec, seed=0)
    images = tiny_images(2)
    plan = build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio, split_rng(0, 0)
    )
    seen = []

    def batches(epoch):
        seen.append(epoch)
        yield images, plan
        yield images, plan

    out = list(train_epochs(model, 3, 1e-3, 2, batches))
    assert seen == [0, 1, 2]
    assert [(e, lr) for e, lr, _ in out] == [
        (i, cosine_lr(1e-3, i, 3)) for i in range(3)
    ]
    assert all(len(losses) == 2 and np.isfinite(losses).all() for _, _, losses in out)


@pytest.mark.parametrize("every, saved_epochs", [(1, [0, 1, 2]), (2, [1, 2]), (0, [2])])
def test_pretraining_saves_each_checkpoint_once(tmp_path, monkeypatch, every, saved_epochs):
    """The last epoch is saved once, whether or not checkpoint_every divides
    the epoch count."""
    saved = []
    real = training.save_checkpoint

    def counted(path, params, metadata=None):
        saved.append(metadata["epoch"])
        return real(path, params, metadata)

    monkeypatch.setattr(training, "save_checkpoint", counted)
    run_pretraining(
        SwinMae(desk_spec(), seed=0), tiny_images(2), epochs=3, lr_max=1e-3,
        batch_size=2, seed=1, checkpoint_path=tmp_path / "p.ckpt", checkpoint_every=every,
    )
    assert saved == saved_epochs
    assert load_checkpoint(tmp_path / "p.ckpt")[0]["epoch"] == "2"


def test_pretraining_calls_train_step_through_the_module(monkeypatch):
    """The benchmark's tracer wraps training.train_step, so the loop must
    look it up at call time."""
    calls = []
    real = training.train_step
    monkeypatch.setattr(
        training, "train_step", lambda *a: calls.append(a[1].shape[0]) or real(*a)
    )
    run_pretraining(SwinMae(desk_spec(), seed=0), tiny_images(5), 2, 1e-3, 2, seed=0)
    assert calls == [2, 2, 1] * 2

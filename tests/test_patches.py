import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swinmae.tensor as T
import swinmae.patches as P
from swinmae.tensor import Tensor, TensorError
from swinmae.patches import PatchSpec, TokenGrid


def grid_from(data):
    data = np.asarray(data, dtype=np.float64)
    side = int(round(np.sqrt(data.shape[1])))
    return TokenGrid(side, side, Tensor(data))


def test_token_grid_reads_batch_and_dim_from_its_data():
    g = TokenGrid(2, 3, Tensor(np.zeros((4, 6, 5))))
    assert (g.batch, g.h_tokens, g.w_tokens, g.dim) == (4, 2, 3, 5)


@pytest.mark.parametrize("shape", [(6, 5), (4, 6), (4, 5, 5), (4, 7, 5), (1, 4, 6, 5)])
def test_token_grid_refuses_data_not_batch_by_hw_by_dim(shape):
    with pytest.raises(TensorError, match="TokenGrid data shape"):
        TokenGrid(2, 3, Tensor(np.zeros(shape)))


def random_grid(rng, side, dim, batch=1):
    return grid_from(rng.standard_normal((batch, side * side, dim)))


def test_patch_partition_geometry_224():
    spec = PatchSpec(224, 224, 3, 4)
    w = Tensor(np.random.default_rng(0).standard_normal((48, 8)))
    g = P.patch_partition(Tensor(np.zeros((1, 3, 224, 224))), spec, w)
    assert (g.h_tokens, g.w_tokens) == (56, 56)


def test_patch_partition_identity_embedding():
    img = np.arange(64, dtype=np.float64).reshape(1, 1, 8, 8)
    spec = PatchSpec(8, 8, 1, 4)
    g = P.patch_partition(Tensor(img), spec, Tensor(np.eye(16)))
    expected = img[0, 0, :4, :4].reshape(-1)  # top-left block, row-major
    assert np.array_equal(g.data.data[0, 0], expected)


def test_patch_partition_counts():
    spec = PatchSpec(32, 32, 3, 4)
    w = Tensor(np.zeros((48, 16)))
    g = P.patch_partition(Tensor(np.zeros((2, 3, 32, 32))), spec, w)
    assert (g.h_tokens, g.w_tokens) == (8, 8)
    assert g.data.shape == (2, 64, 16)


def test_patch_partition_divisibility_error():
    with pytest.raises(TensorError, match="divisible"):
        PatchSpec(30, 32, 3, 4)


def test_patch_merging_shape():
    g = random_grid(np.random.default_rng(1), 8, 6)
    out = P.patch_merging(g, Tensor(np.zeros((24, 12))))
    assert (out.h_tokens, out.w_tokens, out.dim) == (4, 4, 12)


def test_patch_merging_constant_preserved():
    dim = 4
    g = grid_from(np.full((1, 64, dim), 2.5))
    w = np.random.default_rng(12).standard_normal((4 * dim, 2 * dim))
    out = P.patch_merging(g, Tensor(w))
    # equal inputs stay equal under any linear map of the 2x2 concat
    assert np.allclose(out.data.data, out.data.data[:, :1, :])


def test_patch_merging_odd_extent_error():
    g = random_grid(np.random.default_rng(2), 3, 4)
    with pytest.raises(TensorError, match="even"):
        P.patch_merging(g, Tensor(np.zeros((16, 8))))


def test_patch_merging_dependency_footprint():
    rng = np.random.default_rng(3)
    dim = 3
    base = rng.standard_normal((1, 64, dim))
    w = Tensor(rng.standard_normal((4 * dim, 2 * dim)))
    ref = P.patch_merging(grid_from(base), w).data.data
    for flat in range(64):
        bumped = base.copy()
        bumped[0, flat] += 1.0
        got = P.patch_merging(grid_from(bumped), w).data.data
        changed = np.argwhere(np.abs(got - ref).sum(axis=-1)[0] > 1e-12).ravel()
        i, j = flat // 8, flat % 8
        assert changed.tolist() == [(i // 2) * 4 + j // 2]


def test_patch_expanding_shape():
    g = random_grid(np.random.default_rng(4), 4, 32)
    out = P.patch_expanding(g, Tensor(np.zeros((32, 64))))
    assert (out.h_tokens, out.w_tokens, out.dim) == (8, 8, 16)


def test_merge_of_expand_roundtrip_with_pseudoinverse():
    rng = np.random.default_rng(5)
    dim = 6
    we = rng.standard_normal((dim, 2 * dim))  # expand: c -> 2c, full rank w.h.p.
    wm = np.linalg.pinv(we)  # merge reduction: 2c -> c
    g = random_grid(rng, 4, dim)
    up = P.patch_expanding(g, Tensor(we))
    down = P.patch_merging(up, Tensor(wm))
    assert np.max(np.abs(down.data.data - g.data.data)) < 1e-8


def test_patch_expanding_locality():
    rng = np.random.default_rng(6)
    dim = 4
    base = rng.standard_normal((1, 16, dim))
    w = Tensor(rng.standard_normal((dim, 2 * dim)))
    ref = P.patch_expanding(grid_from(base), w).data.data
    for flat in range(16):
        bumped = base.copy()
        bumped[0, flat] += 1.0
        got = P.patch_expanding(grid_from(bumped), w).data.data
        changed = set(np.argwhere(np.abs(got - ref).sum(axis=-1)[0] > 1e-12).ravel())
        i, j = flat // 4, flat % 4
        expected = {
            (2 * i + a) * 8 + (2 * j + b) for a in range(2) for b in range(2)
        }
        assert changed == expected


def test_patch_expanding_odd_dim_error():
    g = random_grid(np.random.default_rng(7), 2, 3)
    with pytest.raises(TensorError, match="even dim"):
        P.patch_expanding(g, Tensor(np.zeros((3, 6))))


def test_window_partition_coordinates():
    g = grid_from(np.arange(16, dtype=np.float64).reshape(1, 16, 1))
    win = P.window_partition(g, 2)
    assert win.shape == (4, 4, 1)
    assert win.data[0, :, 0].tolist() == [0, 1, 4, 5]
    assert win.data[1, :, 0].tolist() == [2, 3, 6, 7]


def test_window_partition_single_window():
    g = grid_from(np.arange(9, dtype=np.float64).reshape(1, 9, 1))
    win = P.window_partition(g, 3)
    assert win.data[0, :, 0].tolist() == list(range(9))


def test_window_roundtrip_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        side = int(rng.choice([2, 4, 6]))
        w = int(rng.choice([1, 2]))
        dim = int(rng.integers(1, 5))
        g = random_grid(rng, side, dim, batch=int(rng.integers(1, 3)))
        win = P.window_partition(g, w)
        back = P.window_reverse(win, w, side, side)
        assert np.array_equal(back.data.data, g.data.data)


def random_data(seed, shape, dtype):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(dtype))


DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(side=st.integers(1, 4), nh=st.integers(1, 3), nw=st.integers(1, 3),
       batch=st.integers(1, 3), dim=st.integers(1, 4), dtype=DTYPES, seed=SEEDS)
def test_window_roundtrip_property(side, nh, nw, batch, dim, dtype, seed):
    h, w = side * nh, side * nw
    g = TokenGrid(h, w, random_data(seed, (batch, h * w, dim), dtype))
    back = P.window_reverse(P.window_partition(g, side), side, h, w)
    assert back.data.data.dtype == dtype
    assert back.data.data.tobytes() == g.data.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(side=st.integers(2, 4), nh=st.integers(1, 3), nw=st.integers(1, 3),
       batch=st.integers(1, 3), dim=st.integers(1, 4), dtype=DTYPES, seed=SEEDS,
       data=st.data())
def test_shift_unshift_roundtrip_property(side, nh, nw, batch, dim, dtype, seed, data):
    h, w = side * nh, side * nw
    shift = data.draw(st.integers(1, side - 1))
    g = TokenGrid(h, w, random_data(seed, (batch, h * w, dim), dtype))
    shifted, _ = P.cyclic_shift(g, shift, side)
    back = P.cyclic_unshift(shifted, shift)
    assert back.data.data.dtype == dtype
    assert back.data.data.tobytes() == g.data.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 4), nh=st.integers(1, 3), nw=st.integers(1, 3),
       batch=st.integers(1, 3), c=st.integers(1, 3), dtype=DTYPES, seed=SEEDS)
def test_flatten_patches_roundtrip_property(p, nh, nw, batch, c, dtype, seed):
    h, w = p * nh, p * nw
    image = random_data(seed, (batch, c, h, w), dtype)
    back = P.unflatten_patches(P.flatten_patches(image, p), h, w, c, p)
    assert back.data.dtype == dtype
    assert back.data.tobytes() == image.data.tobytes()


def test_window_partition_divisibility_error():
    g = random_grid(np.random.default_rng(9), 3, 2)
    with pytest.raises(TensorError, match="divisible"):
        P.window_partition(g, 2)


def test_shift_zero_disallowed():
    g = random_grid(np.random.default_rng(10), 4, 2)
    with pytest.raises(TensorError, match="shift"):
        P.cyclic_shift(g, 0, 2)
    with pytest.raises(TensorError, match="shift"):
        P.cyclic_shift(g, 2, 2)


def test_shift_unshift_roundtrip():
    g = random_grid(np.random.default_rng(11), 4, 3)
    shifted, _ = P.cyclic_shift(g, 1, 2)
    back = P.cyclic_unshift(shifted, 1)
    assert np.array_equal(back.data.data, g.data.data)


def test_shift_mask_matches_region_bruteforce():
    h = w = 4
    side, shift = 2, 1
    mask = P.shift_attention_mask(h, w, side, shift)
    # brute force: a token pair may attend iff their pre-shift coordinates
    # fall in the same contiguous region of the original image
    ids = np.zeros((h, w))
    cnt = 0
    for hs in (slice(0, h - side), slice(h - side, h - shift), slice(h - shift, h)):
        for ws in (slice(0, w - side), slice(w - side, w - shift), slice(w - shift, w)):
            ids[hs, ws] = cnt
            cnt += 1
    win_ids = (
        ids.reshape(h // side, side, w // side, side)
        .transpose(0, 2, 1, 3)
        .reshape(-1, side * side)
    )
    for wi in range(win_ids.shape[0]):
        for a in range(side * side):
            for b in range(side * side):
                expected = 0.0 if win_ids[wi, a] == win_ids[wi, b] else -np.inf
                assert mask[wi, a, b] == expected

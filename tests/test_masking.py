import numpy as np
import pytest

import swinmae.tensor as T
from swinmae.tensor import Tape, Tensor, TensorError
from swinmae.patches import TokenGrid
from swinmae.masking import (
    apply_mask_tokens, build_mask_plan,
    expand_sparse_index, kept_window_grid, split_rng,
)


def bruteforce_keep_set(d, r, mask_ratio, noise):
    """Independent oracle: shuffle windows with the same noise, then collect
    member tokens via 2-D coordinates."""
    order = np.argsort(noise, kind="stable")
    n_keep = int(d * d * (1.0 - mask_ratio))
    keep = set()
    for win in order[:n_keep]:
        wr, wc = divmod(int(win), d)
        for i in range(r):
            for j in range(r):
                row, col = wr * r + i, wc * r + j
                keep.add(row * (d * r) + col)
    return keep


def plan_with_noise(d, r, ratio, noise):
    class FixedNoise:
        def random(self, n):
            assert n == len(noise)
            return np.asarray(noise, dtype=np.float64)

    return build_mask_plan(d, r, ratio, FixedNoise())


def test_expand_sparse_index_origin():
    for d, r in [(1, 1), (3, 2), (4, 4)]:
        assert expand_sparse_index(0, d, r) == 0


def test_expand_sparse_index_examples():
    assert expand_sparse_index(3, 2, 2) == 10
    assert expand_sparse_index(5, 4, 2) == 18
    assert expand_sparse_index(np.array([3, 0, 1]), 2, 2).tolist() == [10, 0, 2]


def test_expand_sparse_index_out_of_range():
    with pytest.raises(TensorError, match="out of range"):
        expand_sparse_index(4, 2, 2)
    with pytest.raises(TensorError, match="out of range"):
        expand_sparse_index(np.array([0, 3, -1]), 2, 2)


def test_expand_matches_coordinate_arithmetic():
    for d in range(1, 5):
        for r in range(1, 5):
            for x in range(d * d):
                row = (x // d) * r
                col = (x % d) * r
                assert expand_sparse_index(x, d, r) == row * (d * r) + col


def test_plan_example_d2_r2():
    # noise choosing windows 0 and 3 first
    plan = plan_with_noise(2, 2, 0.5, [0.1, 0.9, 0.8, 0.2])
    assert plan.keep_indices.tolist() == [0, 1, 4, 5, 10, 11, 14, 15]


def test_ratio_zero_keeps_everything():
    plan = build_mask_plan(3, 2, 0.0, split_rng(0, 0))
    assert plan.keep_indices.tolist() == list(range(36))
    assert not plan.mask_flags.any()


def test_full_scale_keep_count_d7():
    plan = build_mask_plan(7, 4, 0.75, split_rng(1, 0))
    assert len(plan.keep_indices) == 12 * 16  # floor(49 * 0.25) windows kept


def test_nothing_kept_errors():
    with pytest.raises(TensorError, match="nothing kept"):
        build_mask_plan(1, 2, 0.5, split_rng(0, 0))


def test_oracle_equivalence_sweep():
    for d in range(1, 5):
        for r in range(1, 5):
            for ratio in (0.25, 0.5, 0.75):
                if int(d * d * (1 - ratio)) == 0:
                    continue
                for seed in range(20):
                    rng = split_rng(seed, d, r)
                    noise = rng.random(d * d)
                    plan = plan_with_noise(d, r, ratio, noise)
                    assert set(plan.keep_indices.tolist()) == bruteforce_keep_set(
                        d, r, ratio, noise
                    )


def test_whole_window_property():
    for seed in range(20):
        plan = build_mask_plan(4, 3, 0.5, split_rng(seed, 0))
        flags = plan.mask_flags.reshape(4, 3, 4, 3)
        per_window = flags.transpose(0, 2, 1, 3).reshape(16, 9)
        assert all(len(set(w.tolist())) == 1 for w in per_window)


def test_determinism_and_seed_sensitivity():
    plans = [build_mask_plan(4, 2, 0.75, split_rng(7, 0)) for _ in range(2)]
    assert np.array_equal(plans[0].keep_indices, plans[1].keep_indices)
    distinct = {
        tuple(build_mask_plan(4, 2, 0.75, split_rng(s, 0)).keep_indices.tolist())
        for s in range(100)
    }
    assert len(distinct) > 50


def test_random_mode_is_tokenwise():
    plan = build_mask_plan(2, 2, 0.75, split_rng(3, 0), mode="random")
    assert plan.mode == "random"
    assert len(plan.keep_indices) == 4  # floor(16 * 0.25) tokens
    # tokenwise masking generally breaks the whole-window property
    broken = 0
    for seed in range(20):
        p = build_mask_plan(2, 2, 0.5, split_rng(seed, 1), mode="random")
        flags = p.mask_flags.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        broken += any(len(set(w.tolist())) > 1 for w in flags)
    assert broken > 10


def grid_of(tokens):
    arr = np.asarray(tokens, dtype=np.float64)
    side = int(round(np.sqrt(arr.shape[1])))
    return TokenGrid(side, side, Tensor(arr))


def test_apply_mask_tokens_zero_masked():
    plan = build_mask_plan(2, 2, 0.0, split_rng(0, 0))
    g = grid_of(np.random.default_rng(0).standard_normal((1, 16, 3)))
    vec = Tensor(np.full(3, 9.0))
    out = apply_mask_tokens(g, plan, vec)
    assert np.array_equal(out.data.data, g.data.data)


def test_apply_mask_tokens_substitution():
    plan = plan_with_noise(2, 2, 0.7, [0.0, 0.5, 0.6, 0.7])  # keeps window 0 only
    g = grid_of(np.random.default_rng(1).standard_normal((2, 16, 3)))
    vec = Tensor(np.array([1.0, 2.0, 3.0]))
    out = apply_mask_tokens(g, plan, vec)
    for idx in np.flatnonzero(plan.mask_flags):
        assert np.array_equal(out.data.data[:, idx], np.tile(vec.data, (2, 1)))
    for idx in plan.keep_indices:
        assert np.array_equal(out.data.data[:, idx], g.data.data[:, idx])


def test_mask_vector_gradient_is_sum_over_masked_slots():
    plan = build_mask_plan(2, 2, 0.5, split_rng(5, 0))
    g = grid_of(np.random.default_rng(2).standard_normal((1, 16, 3)))
    vec = Tensor(np.zeros(3), requires_grad=True)
    with Tape() as tape:
        out = apply_mask_tokens(g, plan, vec)
        loss = T.sum_(out.data)
    T.backward(loss, tape)
    n_masked = len(np.flatnonzero(plan.mask_flags))
    assert np.array_equal(vec.grad, np.full(3, float(n_masked)))

    def f(v):
        return T.sum_(T.square(apply_mask_tokens(g, plan, v).data))

    assert T.grad_check(f, Tensor(np.random.default_rng(3).standard_normal(3))) < 1e-6


def test_apply_mask_dim_mismatch():
    plan = build_mask_plan(2, 2, 0.5, split_rng(0, 0))
    g = grid_of(np.zeros((1, 16, 3)))
    with pytest.raises(TensorError, match="dim"):
        apply_mask_tokens(g, plan, Tensor(np.zeros(4)))


def test_kept_window_grid_square_requirement():
    plan = plan_with_noise(2, 2, 0.5, [0.1, 0.9, 0.8, 0.2])  # 2 windows kept
    g = grid_of(np.zeros((1, 16, 2)))
    with pytest.raises(TensorError, match="perfect square"):
        kept_window_grid(g, plan)


def test_kept_window_grid_packs_row_major():
    # keep exactly window 1 of a 2x2 window grid
    plan = plan_with_noise(2, 2, 0.75, [0.9, 0.0, 0.8, 0.7])
    g = grid_of(np.arange(16, dtype=np.float64).reshape(1, 16, 1))
    out = kept_window_grid(g, plan)
    assert (out.h_tokens, out.w_tokens) == (2, 2)
    assert out.data.data[0, :, 0].tolist() == [2.0, 3.0, 6.0, 7.0]
    # four kept windows of a 4x4 window grid pack into 2x2 windows, each
    # window in place as 2-D coordinates locate it
    plan = build_mask_plan(4, 2, 0.75, split_rng(0, 5))
    g = grid_of(np.arange(64, dtype=np.float64).reshape(1, 64, 1))
    out = kept_window_grid(g, plan).data.data[0, :, 0].reshape(4, 4)
    tokens = np.arange(64.0).reshape(8, 8)
    kept = [w for w in range(16) if not plan.mask_flags[expand_sparse_index(w, 4, 2)]]
    assert len(kept) == 4
    for k, win in enumerate(kept):
        (wr, wc), (pr, pc) = divmod(win, 4), divmod(k, 2)
        want = tokens[2 * wr:2 * wr + 2, 2 * wc:2 * wc + 2]
        assert np.array_equal(out[2 * pr:2 * pr + 2, 2 * pc:2 * pc + 2], want)

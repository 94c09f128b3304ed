import math

import numpy as np
import pytest

import swinmae.tensor as T
from swinmae.patches import shift_attention_mask
from swinmae.tensor import ParamStore, Tape, Tensor, TensorError


def loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    got = T.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - loop_matmul(a, b))) < 1e-12


@pytest.mark.parametrize("const", ["a", "b"])
def test_matmul_backward_skips_operand_without_grad(const):
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=const != "a")
    b = Tensor(rng.standard_normal((5, 2)), requires_grad=const != "b")
    with Tape() as tape:
        y = T.matmul(a, b)
    g = rng.standard_normal(y.shape)
    ga, gb = tape.nodes[0].backward_fn(g)
    if const == "a":
        assert ga is None
        np.testing.assert_array_equal(gb, a.data.reshape(-1, 5).T @ g.reshape(-1, 2))
    else:
        assert gb is None
        np.testing.assert_array_equal(ga, g @ b.data.T)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("const", ["a", "b"])
def test_elementwise_backward_skips_operand_without_grad(op, const):
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=const != "a")
    b = Tensor(rng.standard_normal((1, 3)), requires_grad=const != "b")
    with Tape() as tape:
        getattr(T, op)(a, b)
    g = rng.standard_normal((2, 3))
    ga, gb = tape.nodes[0].backward_fn(g)
    want_a, want_b = {
        "add": (g, g), "sub": (g, -g), "mul": (g * b.data, g * a.data),
    }[op]
    if const == "a":
        assert ga is None
        np.testing.assert_array_equal(gb, want_b.sum(axis=0, keepdims=True))
    else:
        assert gb is None
        np.testing.assert_array_equal(ga, want_a)


def test_matmul_shape_error():
    with pytest.raises(TensorError, match="inner dims"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_random_shapes_vs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - loop_matmul(a, b))) < 1e-10


def test_softmax_symmetry():
    out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_masked_entry():
    out = T.softmax_lastdim(Tensor([2.5, -np.inf]))
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def test_softmax_all_masked_row_errors():
    with pytest.raises(TensorError, match="masked"):
        T.softmax_lastdim(Tensor([-np.inf, -np.inf]))


def test_softmax_oracle():
    x = np.array([1.0, 2.0, 3.0])
    e = np.exp(x)
    expected = e / e.sum()
    got = T.softmax_lastdim(Tensor(x)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_softmax_random_rows_vs_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n) * 3
        e = np.exp(x - x.max())
        assert np.max(np.abs(T.softmax_lastdim(Tensor(x)).data - e / e.sum())) < 1e-10


def test_layer_norm_constant_row():
    x = Tensor(np.full((1, 4), 7.0))
    out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-6)
    assert np.max(np.abs(out.data)) < 1e-3  # eps collapses zero variance


def test_layer_norm_two_points():
    out = T.layer_norm(
        Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12
    )
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal(n)
        eps = 1e-12
        expected = (x - x.mean()) / np.sqrt(x.var() + eps)
        got = T.layer_norm(
            Tensor(x[None]), Tensor(np.ones(n)), Tensor(np.zeros(n)), eps=eps
        ).data[0]
        assert np.max(np.abs(got - expected)) < 1e-10


def test_backward_sum_gives_ones():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_(w)
    T.backward(loss, tape)
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_quadratic():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_(T.square(w))
    T.backward(loss, tape)
    assert np.array_equal(w.grad, np.array([2.0, 4.0]))


def test_backward_accumulates_shared_use():
    w = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_(T.add(w, w))
    T.backward(loss, tape)
    assert np.array_equal(w.grad, np.array([2.0]))


def test_backward_rejects_nonscalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.square(w)
    with pytest.raises(TensorError, match="scalar"):
        T.backward(y, tape)


def test_nan_surfaces_as_error():
    with np.errstate(invalid="ignore"):
        with pytest.raises(TensorError, match="NaN"):
            T.mul(Tensor([0.0]), Tensor([np.inf]))


def test_grad_check_linear_exact():
    x = Tensor(np.random.default_rng(4).standard_normal(6))
    assert T.grad_check(lambda t: T.sum_(t), x) < 1e-10


def test_grad_check_softmax_dot():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(5)

    def f(t):
        return T.sum_(T.mul(T.softmax_lastdim(t), Tensor(w)))

    assert T.grad_check(f, Tensor(rng.standard_normal(5))) < 1e-6


@pytest.mark.parametrize(
    "name,f",
    [
        ("matmul", lambda x: T.sum_(T.square(T.matmul(x, T.transpose(x, (1, 0)))))),
        ("softmax", lambda x: T.sum_(T.square(T.softmax_lastdim(x)))),
        ("layer_norm", lambda x: T.sum_(
            T.square(T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))))
        )),
        ("gelu", lambda x: T.sum_(T.square(T.gelu(x)))),
        ("tanh", lambda x: T.sum_(T.tanh(x))),
        ("exp", lambda x: T.sum_(T.exp(x))),
        ("sqrt", lambda x: T.sum_(T.sqrt(T.add(T.square(x), T.as_tensor(1.0))))),
        ("reciprocal", lambda x: T.sum_(T.reciprocal(T.add(T.square(x), T.as_tensor(1.0))))),
        ("gather", lambda x: T.sum_(T.square(T.gather(x, np.array([2, 0, 2]), axis=0)))),
        ("roll", lambda x: T.sum_(T.square(T.roll(x, (1,), (0,))))),
        ("mean", lambda x: T.sum_(T.square(T.mean(x, axis=-1)))),
        ("cross_entropy", lambda x: T.softmax_cross_entropy(x, np.array([1, 3, 0]))),
        ("masked_softmax", lambda x: T.sum_(T.square(T.softmax_lastdim(
            T.reshape(x, (3, 1, 2, 2)), np.array([[[0.0, -np.inf], [0.0, 0.0]]]),
        )))),
    ],
)
def test_per_op_grad_check(name, f):
    x = Tensor(np.random.default_rng(6).standard_normal((3, 4)))
    assert T.grad_check(f, x) < 1e-6, name


def test_matmul_batched_grad_check():
    """[2,3,4] @ [4,5]: the weight gradient is one GEMM over the batch."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    wrt_w = lambda t: T.sum_(T.square(T.matmul(Tensor(a), t)))
    wrt_a = lambda t: T.sum_(T.square(T.matmul(t, Tensor(w))))
    assert T.grad_check(wrt_w, Tensor(w.copy())) < 1e-6
    assert T.grad_check(wrt_a, Tensor(a.copy())) < 1e-6


@pytest.mark.parametrize("wrt", ["x", "gamma", "beta"])
def test_layer_norm_3d_grad_check(wrt):
    rng = np.random.default_rng(9)
    args = {
        "x": rng.standard_normal((2, 3, 4)),
        "gamma": rng.standard_normal(4),
        "beta": rng.standard_normal(4),
    }
    weights = Tensor(rng.standard_normal((2, 3, 4)))

    def f(t):
        x, gamma, beta = (t if k == wrt else Tensor(v) for k, v in args.items())
        return T.sum_(T.square(T.mul(T.layer_norm(x, gamma, beta), weights)))

    assert T.grad_check(f, Tensor(args[wrt].copy())) < 1e-6


def test_gelu_grad_check_wide_range():
    x = Tensor(np.linspace(-6.0, 6.0, 12).reshape(3, 4))
    assert T.grad_check(lambda t: T.sum_(T.square(T.gelu(t))), x) < 1e-6


@pytest.mark.parametrize(
    "op,f",
    [
        ("layer_norm", lambda x: T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))),
        ("gelu", T.gelu),
    ],
)
def test_fused_ops_record_one_node(op, f):
    """Backward recomputes xhat / tanh from x, which the tape already holds,
    so its closure keeps no array as large as the input."""
    x = Tensor(np.random.default_rng(10).standard_normal((2, 3, 4)), requires_grad=True)
    with Tape() as tape:
        f(x)
    assert [n.op for n in tape.nodes] == [op]
    held = [c.cell_contents for c in tape.nodes[0].backward_fn.__closure__]
    sizes = [v.size for v in held if isinstance(v, np.ndarray)]
    assert all(size < x.data.size for size in sizes), (op, sizes)


def test_linear_is_one_matmul_node():
    rng = np.random.default_rng(12)
    x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3, 4), (4, 5), (5,)))
    with Tape() as tape:
        T.linear(x, w, b)
    assert [(n.op, len(n.inputs)) for n in tape.nodes] == [("matmul", 3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_bit_identical_to_matmul_then_add(dtype):
    rng = np.random.default_rng(13)
    data = [rng.standard_normal(s).astype(dtype) for s in ((2, 3, 4), (4, 5), (5,))]
    weights = Tensor(rng.standard_normal((2, 3, 5)).astype(dtype))
    runs = []
    for f in (T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)):
        x, w, b = (Tensor(d.copy(), requires_grad=True) for d in data)
        with Tape() as tape:
            y = f(x, w, b)
            loss = T.sum_(T.mul(y, weights))
        T.backward(loss, tape)
        runs.append([y.data, x.grad, w.grad, b.grad])
    for got, want in zip(*runs):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("wrt", ["x", "w", "b"])
def test_linear_grad_check(wrt):
    rng = np.random.default_rng(14)
    args = {
        "x": rng.standard_normal((2, 3, 4)),
        "w": rng.standard_normal((4, 5)),
        "b": rng.standard_normal(5),
    }

    def f(t):
        x, w, b = (t if k == wrt else Tensor(v) for k, v in args.items())
        return T.sum_(T.square(T.linear(x, w, b)))

    assert T.grad_check(f, Tensor(args[wrt].copy())) < 1e-6


# ------------------------------------------------------------ finite checks


def test_masked_softmax_matches_tiled_reference():
    """The shift mask applied inside the softmax equals tiling it over the
    batch, adding it and taking a plain softmax; it records one node."""
    mask = shift_attention_mask(4, 4, 2, 1)  # 4 windows of 2x2 tokens
    x = Tensor(np.random.default_rng(11).standard_normal((2 * 4, 3, 4, 4)), requires_grad=True)
    with Tape() as tape:
        got = T.softmax_lastdim(x, mask).data
    assert [(n.op, len(n.inputs)) for n in tape.nodes] == [("softmax", 1)]
    tiled = np.tile(mask, (2, 1, 1))[:, None]
    np.testing.assert_array_equal(got, T.softmax_lastdim(Tensor(x.data + tiled)).data)
    masked = np.broadcast_to(np.isneginf(tiled), got.shape)
    assert masked.any() and (got[masked] == 0.0).all()
    row_masked = np.zeros((1, 2, 2))
    row_masked[0, 1] = -np.inf
    with pytest.raises(TensorError, match="all entries masked"):
        T.softmax_lastdim(Tensor(np.zeros((2, 1, 2, 2))), row_masked)


def test_finite_check_neg_inf_elsewhere():
    with pytest.raises(TensorError, match="add: non-finite"):
        T.add(Tensor([-np.inf, 1.0]), Tensor([0.0, 0.0]))


@pytest.mark.parametrize(
    "op,f",
    [
        ("layer_norm", lambda x: T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))),
        ("gelu", T.gelu),
    ],
)
def test_fused_ops_reject_nan_and_overflow(op, f):
    with pytest.raises(TensorError, match=f"{op}: NaN"):
        f(Tensor([[np.nan, 1.0]]))
    # 1e103 cubed and (2e200)^2 both overflow f64
    big = [[1e103, 2.0]] if op == "gelu" else [[1e200, -1e200]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TensorError, match=f"{op}: non-finite"):
            f(Tensor(big))


def test_backward_deterministic():
    rng = np.random.default_rng(7)
    w_data = rng.standard_normal((4, 4))
    x_data = rng.standard_normal((2, 4))
    grads = []
    for _ in range(2):
        w = Tensor(w_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(T.square(T.softmax_lastdim(T.matmul(Tensor(x_data), w))))
        T.backward(loss, tape)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_param_store_lexicographic_and_unique():
    ps = ParamStore()
    ps.add("b", Tensor([1.0]))
    ps.add("a", Tensor([2.0]))
    assert ps.names() == ["a", "b"]
    with pytest.raises(TensorError, match="duplicate"):
        ps.add("a", Tensor([3.0]))


# ------------------------------------------------------------ blocked kernels

# The unblocked formulas the kernels replaced, kept as bit-exact oracles.
_GELU_C, _GELU_A = math.sqrt(2.0 / math.pi), 0.044715
SIZES = [1, T.BLOCK - 1, T.BLOCK, 3 * T.BLOCK + 7]


def gelu_oracle(x, g):
    cube = x * x * x
    out = x * 0.5 * (np.tanh((x + cube * _GELU_A) * _GELU_C) + 1.0)
    t = np.tanh((x + x * x * x * _GELU_A) * _GELU_C)
    dt = (1.0 - t * t) * (_GELU_C * (1.0 + 3.0 * _GELU_A * (x * x)))
    return out, g * (0.5 * (t + 1.0) + 0.5 * x * dt)


def layer_norm_oracle(x, gamma, beta, g, eps=1e-6):
    inv_n = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv * gamma + beta
    xhat = (x - mu) * inv
    gx = g * gamma
    gx = inv * (
        gx
        - gx.sum(axis=-1, keepdims=True) * inv_n
        - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) * inv_n)
    )
    lead = tuple(range(x.ndim - 1))
    return out, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def run_op(f, x, g, *params):
    """Output and every gradient of f at x, with `g` as the output gradient."""
    x = Tensor(x, requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in params]
    with Tape() as tape:
        y = f(x, *params)
    assert len(tape.nodes) == 1
    grads = tape.nodes[0].backward_fn(g)
    return [y.data, *grads]


def assert_bits_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", SIZES)
def test_blocked_gelu_bit_identical_to_oracle(size, dtype):
    rng = np.random.default_rng(size)
    x = (rng.standard_normal(size) * 3.0).astype(dtype)
    g = rng.standard_normal(size).astype(dtype)
    assert_bits_equal(run_op(lambda t: T.gelu(t), x, g), gelu_oracle(x, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape",
    # widths 1, 48 (which does not divide BLOCK) and one wider than a block;
    # row counts put the total at 1, BLOCK - 1, BLOCK and 3 * BLOCK + 7
    [(1, 1), (T.BLOCK - 1, 1), (T.BLOCK, 1), (3 * T.BLOCK + 7, 1),
     (1, 48), (T.BLOCK // 48, 48), (2, 16, 48), (2 * T.BLOCK // 48 + 5, 48),
     (3, T.BLOCK + 5)],
)
def test_blocked_layer_norm_bit_identical_to_oracle(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    x += 2.0
    gamma, beta = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
    got = run_op(lambda t, gm, bt: T.layer_norm(t, gm, bt), x, g, gamma, beta)
    assert_bits_equal(got, layer_norm_oracle(x, gamma, beta, g))


def test_blocked_layer_norm_mixed_dtypes_match_oracle():
    """An f64 input through f32 gamma and beta, as when an f32 model is fed an
    f64 image, promotes exactly as the unblocked formulas do."""
    rng = np.random.default_rng(21)
    x, g = (rng.standard_normal((T.BLOCK // 32 + 3, 96)) for _ in range(2))
    gamma, beta = (rng.standard_normal(96).astype(np.float32) for _ in range(2))
    got = run_op(lambda t, gm, bt: T.layer_norm(t, gm, bt), x, g, gamma, beta)
    assert_bits_equal(got, layer_norm_oracle(x, gamma, beta, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_kernels_raise_for_a_bad_value_in_a_later_block(dtype):
    """The message is the one a check of the whole array gives: NaN anywhere
    wins over an overflow in an earlier block."""
    big = 1e30 if dtype == np.float32 else 1e200
    x = np.ones(3 * T.BLOCK + 7, dtype)
    x[2 * T.BLOCK + 3] = big
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TensorError, match="gelu: non-finite value"):
            T.gelu(Tensor(x))
        x[3 * T.BLOCK + 1] = np.nan
        with pytest.raises(TensorError, match="gelu: NaN"):
            T.gelu(Tensor(x))
        rows = np.ones((3 * T.BLOCK // 48 + 7, 48), dtype)
        rows[-3, :2] = (big, -big)
        with pytest.raises(TensorError, match="layer_norm: non-finite value"):
            T.layer_norm(Tensor(rows), np.ones(48), np.zeros(48))
        rows[-1, 0] = np.nan
        with pytest.raises(TensorError, match="layer_norm: NaN"):
            T.layer_norm(Tensor(rows), np.ones(48), np.zeros(48))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_scale_and_bias_match_separate_nodes(dtype):
    """Scale, relative bias and shift mask inside the softmax node give the
    bits of a scale node and an add node in front of it."""
    rng = np.random.default_rng(22)
    mask = shift_attention_mask(4, 4, 2, 1, dtype)
    scores = rng.standard_normal((2 * 4, 3, 4, 4)).astype(dtype)
    bias = rng.standard_normal((1, 3, 4, 4)).astype(dtype)
    g = rng.standard_normal(scores.shape).astype(dtype)
    runs = []
    for fused in (True, False):
        x, b = Tensor(scores, requires_grad=True), Tensor(bias, requires_grad=True)
        with Tape() as tape:
            if fused:
                y = T.softmax_lastdim(x, mask, scale=0.5 ** 0.5, bias=b)
            else:
                y = T.softmax_lastdim(T.add(T.scale(x, 0.5 ** 0.5), b), mask)
            loss = T.sum_(T.mul(y, Tensor(g)))
        T.backward(loss, tape)
        runs.append(([n.op for n in tape.nodes], [y.data, x.grad, b.grad]))
    assert runs[0][0] == ["softmax", "mul", "sum"]
    assert_bits_equal(runs[0][1], runs[1][1])


def test_split_heads_is_a_view_with_the_gradient_of_reshape_and_transpose():
    rng = np.random.default_rng(23)
    data = rng.standard_normal((3, 5, 8))
    w = Tensor(rng.standard_normal((3, 2, 5, 4)))
    runs = []
    for f in (
        lambda t: T.split_heads(t, 2),
        lambda t: T.transpose(T.reshape(t, (3, 5, 2, 4)), (0, 2, 1, 3)),
    ):
        x = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            y = f(x)
            loss = T.sum_(T.mul(y, w))
        T.backward(loss, tape)
        runs.append((x, y))
    (x, y), (_, want) = runs
    assert np.shares_memory(y.data, x.data)
    assert x.grad.flags.c_contiguous
    assert_bits_equal([y.data, x.grad], [want.data, runs[1][0].grad])

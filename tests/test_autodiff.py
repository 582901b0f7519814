import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mailpp import autodiff as ad
from mailpp.autodiff import NonFiniteError, Tape, Tensor
from mailpp.verify import finite_diff_grad, relative_error


def t64(x):
    return Tensor(np.asarray(x, dtype=np.float64))


# ------------------------------------------------------------------
# forward examples


def test_matmul_identity():
    a = t64(np.eye(2))
    b = t64([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_arithmetic():
    out = ad.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ValueError, match="inner dimension mismatch"):
        ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


def test_matmul_precision_mismatch():
    with pytest.raises(ValueError, match="precision mismatch"):
        ad.matmul(Tensor(np.ones((2, 2), np.float32)), t64(np.ones((2, 2))))


def test_layernorm_unit_case():
    out = ad.layernorm(t64([1.0, -1.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0]), eps=1e-14)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)


def test_layernorm_constant_row_gives_beta():
    out = ad.layernorm(t64([3.0, 3.0]), np.array([2.0, 2.0]), np.array([0.5, -0.5]), eps=1e-8)
    assert np.allclose(out.data, [0.5, -0.5], atol=1e-3)


def test_layernorm_affine_case():
    out = ad.layernorm(t64([1.0, -1.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]), eps=1e-14)
    assert np.allclose(out.data, [3.0, -1.0], atol=1e-6)


def test_layernorm_width_mismatch():
    with pytest.raises(ValueError, match="gamma"):
        ad.layernorm(t64([1.0, 2.0, 3.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0]))


def test_softmax_symmetry():
    assert np.allclose(ad.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_analytic():
    out = ad.softmax(t64([np.log(2.0), 0.0]))
    assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0])


def test_softmax_no_overflow():
    out = ad.softmax(t64([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_nonfinite_is_reported():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.scale(t64([1e308]), 10.0)  # overflow to inf is an error, not silent
    with pytest.raises(NonFiniteError):
        Tensor([np.inf, 1.0])
    with pytest.raises(ValueError, match="non-positive"):
        ad.log(t64([0.0, 1.0]))


def _check_raises(arr) -> bool:
    try:
        ad._check_finite(arr, "probe")
    except NonFiniteError:
        return True
    return False


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([3e38, 3e38], np.float32),  # finite elements whose sum overflows
        ([-3e38, -3e38, 1.0], np.float32),
        ([1.7e308, 1.7e308], np.float64),
        ([np.nan], np.float32),
        ([1.0, np.inf], np.float64),
        ([-np.inf, 2.0], np.float32),
        ([np.inf, -np.inf], np.float64),  # the sum is NaN, not Inf
        (2.5, np.float64),
        (np.nan, np.float32),
        ([], np.float32),
        (np.zeros((0, 3)), np.float64),
        ([2e19], np.float32),  # a finite element whose square overflows
        ([1e155], np.float64),
    ],
)
def test_finite_check_examples(values, dtype):
    arr = np.asarray(values, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _check_raises(arr) == (not np.all(np.isfinite(arr)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finite_check_raises_exactly_on_a_non_finite_element(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    big = float(np.finfo(dtype).max)
    width = 32 if dtype == np.float32 else 64
    elements = st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True),
        st.sampled_from([big, -big, big / 2, np.nan, np.inf, -np.inf, 0.0]),
    )
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    arr = data.draw(hnp.arrays(dtype, shape, elements=elements))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _check_raises(arr) == (not np.all(np.isfinite(arr)))


def test_view_shares_memory_read_only_and_checks_once():
    arr = np.arange(6.0).reshape(2, 3)
    t = Tensor.view(arr, "w")
    arr[0, 0] = 7.0
    assert t.data[0, 0] == 7.0
    assert not t.data.flags.writeable and arr.flags.writeable
    with pytest.raises(ValueError, match="C-contiguous"):
        Tensor.view(arr.T)
    with pytest.raises(ValueError, match="C-contiguous"):
        Tensor.view(np.arange(3))
    with pytest.raises(NonFiniteError, match="w"):
        Tensor.view(np.array([1.0, np.nan]), "w")


# ------------------------------------------------------------------
# backward basics


def test_backward_sum_of_squares():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    loss = ad.reduce_sum(ad.mul(w, w))
    grads = tape.backward(loss)
    assert grads[w.node].data.tolist() == [2.0, 4.0]


def test_backward_constant_loss_gives_zeros():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    loss = Tensor(np.asarray(3.0))
    grads = tape.backward(loss)
    assert np.array_equal(grads[w.node].data, np.zeros(2))


def test_backward_frees_the_graph_without_the_cycle_collector():
    def step():
        tape = Tape()
        w = tape.leaf(np.array([1.0, -2.0, 0.5]))
        h = ad.layernorm(ad.mul(w, w), np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.5]), 1e-5)
        watched = weakref.ref(h.data)
        loss = ad.reduce_sum(ad.add(ad.gelu(h), w))
        grads = tape.backward(loss)
        assert watched() is not None  # still held by the local h
        return watched, grads[w.node]

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        watched, grad = step()
        assert watched() is None  # freed by reference counting alone
        assert grad.shape == (3,)
    finally:
        if was_enabled:
            gc.enable()


def test_backward_unused_leaf_is_exactly_zero():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    u = tape.leaf(np.array([5.0, 6.0]))
    loss = ad.reduce_sum(ad.mul(w, w))
    grads = tape.backward(loss)
    assert np.array_equal(grads[u.node].data, np.zeros(2))
    assert grads[w.node].data.tolist() == [2.0, 4.0]


def test_backward_requires_scalar():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(ad.mul(w, w))


def test_tape_single_use():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    loss = ad.reduce_sum(ad.mul(w, w))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="consumed"):
        tape.backward(loss)


def test_gradient_accumulates_over_fanout():
    tape = Tape()
    w = tape.leaf(np.array([3.0]))
    loss = ad.reduce_sum(ad.add(ad.mul(w, w), ad.mul(w, w)))
    grads = tape.backward(loss)
    assert grads[w.node].data.tolist() == [12.0]


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.array([1.0]))
    b = t2.leaf(np.array([1.0]))
    with pytest.raises(ValueError, match="different tapes"):
        ad.add(a, b)


# ------------------------------------------------------------------
# property tests


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_sums_to_one_and_shift_invariant(xs):
    x = t64(xs)
    y = ad.softmax(x).data
    assert abs(y.sum() - 1.0) <= 1e-6
    shifted = ad.softmax(ad.add(x, Tensor(np.asarray(7.25)))).data
    assert np.max(np.abs(shifted - y)) <= 1e-6


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_matmul_associativity_4x4(seed):
    gen = np.random.default_rng(seed)
    a, b, c = (t64(gen.standard_normal((4, 4))) for _ in range(3))
    left = ad.matmul(ad.matmul(a, b), c).data
    right = ad.matmul(a, ad.matmul(b, c)).data
    assert np.max(np.abs(left - right)) <= 1e-10


# ------------------------------------------------------------------
# finite-difference agreement for every primitive

_PRIMITIVE_CASES = {}


def _case(name):
    def reg(fn):
        _PRIMITIVE_CASES[name] = fn
        return fn

    return reg


@_case("matmul")
def _build_matmul(gen):
    b = gen.standard_normal((3, 2))
    return (2, 3), lambda x: ad.matmul(x, Tensor(b))


@_case("matvec")
def _build_matvec(gen):
    v = gen.standard_normal(3)
    return (2, 3), lambda x: ad.matmul(x, Tensor(v))


@_case("add_broadcast")
def _build_add(gen):
    b = gen.standard_normal(4)
    return (3, 4), lambda x: ad.add(x, Tensor(b))


@_case("sub")
def _build_sub(gen):
    b = gen.standard_normal((3, 4))
    return (3, 4), lambda x: ad.sub(Tensor(b), x)


@_case("mul_broadcast")
def _build_mul(gen):
    b = gen.standard_normal(4)
    return (3, 4), lambda x: ad.mul(x, Tensor(b))


@_case("affine")
def _build_affine(gen):
    a = gen.standard_normal(4)
    b = gen.standard_normal(4)
    return (3, 4), lambda x: ad.affine(x, Tensor(a), Tensor(b))


@_case("linear")
def _build_linear(gen):
    w = gen.standard_normal((5, 4))
    b = gen.standard_normal(5)
    return (3, 4), lambda x: ad.linear(x, w, b)


@_case("linear_batched")
def _build_linear_batched(gen):
    w = gen.standard_normal((5, 4))
    b = gen.standard_normal(5)
    return (2, 3, 4), lambda x: ad.linear(x, w, b)


@_case("layernorm")
def _build_layernorm(gen):
    g = 1.0 + 0.2 * gen.standard_normal(5)
    b = gen.standard_normal(5)
    return (3, 5), lambda x: ad.layernorm(x, g, b, eps=1e-5)


@_case("softmax")
def _build_softmax(gen):
    return (3, 4), lambda x: ad.softmax(x)


@_case("gelu")
def _build_gelu(gen):
    return (3, 4), lambda x: ad.gelu(x)


@_case("attention_core")
def _build_attention(gen):
    k = gen.standard_normal((4, 6))
    v = gen.standard_normal((4, 6))
    mask = ad.causal_mask(4, np.dtype(np.float64))
    return (4, 6), lambda x: ad.attention_core(x, Tensor(k), Tensor(v), n_heads=2, mask=mask)


@_case("attention_core_kv")
def _build_attention_kv(gen):
    q = gen.standard_normal((4, 6))
    return (4, 6), lambda x: ad.attention_core(Tensor(q), x, ad.scale(x, 0.5), n_heads=3)


@_case("attention_core_batched")
def _build_attention_batched(gen):
    k = gen.standard_normal((3, 4, 6))
    v = gen.standard_normal((3, 4, 6))
    mask = ad.causal_mask(4, np.dtype(np.float64))
    return (3, 4, 6), lambda x: ad.attention_core(x, Tensor(k), Tensor(v), n_heads=2, mask=mask)


@_case("attention_core_batched_kv")
def _build_attention_batched_kv(gen):
    q = gen.standard_normal((2, 4, 6))
    return (2, 4, 6), lambda x: ad.attention_core(Tensor(q), x, ad.scale(x, 0.5), n_heads=3)


@_case("attention_core_query_row")
def _build_attention_query_row(gen):
    k = gen.standard_normal((4, 6))
    mask = ad.causal_mask(4, np.dtype(np.float64))
    return (4, 6), lambda x: ad.attention_core(x, Tensor(k), ad.scale(x, 0.5), n_heads=2, mask=mask, index=2)


@_case("attention_core_query_rows_batched")
def _build_attention_query_rows(gen):
    q = gen.standard_normal((2, 2, 4, 6))
    mask = ad.causal_mask(4, np.dtype(np.float64))
    idx = np.asarray([[3, 0], [1, 2]])
    return (2, 2, 4, 6), lambda x: ad.attention_core(ad.add(x, Tensor(q)), x, x, n_heads=3, mask=mask, index=idx)


@_case("l2_normalize")
def _build_l2n(gen):
    return (3, 4), lambda x: ad.l2_normalize(x)


@_case("log")
def _build_log(gen):
    return (3, 4), lambda x: ad.log(ad.add(ad.mul(x, x), Tensor(np.full((3, 4), 0.5))))


@_case("reduce_sum_axis")
def _build_reduce(gen):
    return (3, 4), lambda x: ad.reduce_sum(x, axis=1)


@_case("mean")
def _build_mean(gen):
    return (3, 4), lambda x: ad.mean(x, axis=0)


@_case("row_stack")
def _build_row_stack(gen):
    return (3, 4), lambda x: ad.stack_rows([ad.row(x, 2), ad.row(x, 0)])


@_case("row_batched")
def _build_row_batched(gen):
    idx = np.asarray([2, 0, 3])
    return (3, 4, 5), lambda x: ad.stack_rows([ad.row(ad.row(x, idx), 1), ad.row(ad.row(x, 3), 0)])


@_case("pick")
def _build_pick(gen):
    idx = np.asarray([2, 0, 1])
    return (3, 4), lambda x: ad.pick(ad.softmax(x), idx)


@_case("transpose")
def _build_transpose(gen):
    b = gen.standard_normal((2, 3))
    return (2, 3), lambda x: ad.matmul(ad.transpose(x), Tensor(b))


@_case("neg_scale")
def _build_neg_scale(gen):
    return (3, 4), lambda x: ad.neg(ad.scale(x, 0.37))


# ---- leading trial axes (one set of agent values per trial)


@_case("matmul_stacked")
def _build_matmul_stacked(gen):
    b = gen.standard_normal((2, 4, 3))
    return (2, 3, 4), lambda x: ad.matmul(x, Tensor(b))


@_case("matmul_stacked_rhs")
def _build_matmul_stacked_rhs(gen):
    a = gen.standard_normal((2, 3, 4))
    return (2, 4, 3), lambda x: ad.matmul(Tensor(a), x)


@_case("matvec_stacked")
def _build_matvec_stacked(gen):
    v = gen.standard_normal((2, 4))
    return (2, 3, 4), lambda x: ad.matmul(x, Tensor(v))


@_case("matvec_stacked_rhs")
def _build_matvec_stacked_rhs(gen):
    a = gen.standard_normal((2, 3, 4))
    return (2, 4), lambda x: ad.matmul(Tensor(a), x)


@_case("transpose_3d")
def _build_transpose_3d(gen):
    return (2, 3, 4), lambda x: ad.transpose(x)


@_case("affine_trials")
def _build_affine_trials(gen):
    a = gen.standard_normal((2, 4))
    b = gen.standard_normal((2, 4))
    return (2, 3, 5, 4), lambda y: ad.affine(y, Tensor(a), Tensor(b))


@_case("affine_trials_scale")
def _build_affine_trials_scale(gen):
    y = gen.standard_normal((2, 3, 5, 4))
    b = gen.standard_normal((2, 4))
    return (2, 4), lambda a: ad.affine(Tensor(y), a, Tensor(b))


@_case("affine_trials_shift")
def _build_affine_trials_shift(gen):
    y = gen.standard_normal((2, 3, 4))
    a = gen.standard_normal((2, 4))
    return (2, 4), lambda b: ad.affine(Tensor(y), Tensor(a), b)


@_case("pick_3d")
def _build_pick_3d(gen):
    idx = np.asarray([2, 0, 1])
    return (2, 3, 4), lambda x: ad.pick(ad.softmax(x), idx)


@_case("l2_normalize_3d")
def _build_l2n_3d(gen):
    return (2, 3, 4), lambda x: ad.l2_normalize(x)


@_case("reduce_sum_vector")
def _build_reduce_vector(gen):
    return (4,), lambda x: ad.reduce_sum(x, axis=-1)


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    """Analytic vs central-difference gradients, 100 random seeds per primitive."""
    build = _PRIMITIVE_CASES[name]
    worst = 0.0
    for seed in range(100):
        gen = np.random.default_rng(1000 + seed)
        shape, op = build(gen)
        x0 = gen.standard_normal(shape)
        w = gen.standard_normal(np.asarray(op(Tensor(x0)).data).shape)

        def f(x):
            return float(np.sum(op(Tensor(np.asarray(x).reshape(shape))).data * w))

        tape = Tape()
        leaf = tape.leaf(x0)
        loss = ad.reduce_sum(ad.mul(op(leaf), Tensor(w)))
        analytic = tape.backward(loss)[leaf.node].data
        numeric = finite_diff_grad(lambda xs: [f(x) for x in xs], x0.copy(), h=1e-5)
        worst = max(worst, relative_error(analytic, numeric.reshape(shape)))
    assert worst <= 1e-4, f"{name}: worst rel err {worst}"


def _vjp_of(monkeypatch, call):
    """Run one primitive; return its output and the VJP closure it hands to ``_emit``."""
    emit, seen = ad._emit, []

    def capture(name, out, inputs, vjp):
        seen.append(vjp)
        return emit(name, out, inputs, vjp)

    monkeypatch.setattr(ad, "_emit", capture)
    out = call()
    monkeypatch.setattr(ad, "_emit", emit)
    (vjp,) = seen
    return out, vjp


# x of shape (*lead, 6), then the frozen operands: (w, bias) or (gamma, beta)
_OPERANDS = {
    "linear": lambda gen, lead: (gen.standard_normal((*lead, 6)), gen.standard_normal((5, 6)), gen.standard_normal(5)),
    "layernorm": lambda gen, lead: (gen.standard_normal((*lead, 6)), 1 + gen.standard_normal(6), gen.random(6)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (4,), (2, 4)], ids=["vector", "rows", "batch"])
@pytest.mark.parametrize("op", sorted(_OPERANDS))
def test_the_vjp_returns_one_gradient_bitwise_equal_to_the_formula(monkeypatch, op, lead, dtype):
    """linear and layernorm record x alone, and their VJP gives x's gradient by its closed form, bit for bit."""
    gen = np.random.default_rng(17)
    x, p, q = (a.astype(dtype) for a in _OPERANDS[op](gen, lead))
    tape = Tape()
    leaf = tape.leaf(x)
    out, vjp = _vjp_of(monkeypatch, lambda: getattr(ad, op)(leaf, p, q))
    assert [ids for _, ids, _ in tape._records] == [(leaf.node,)]
    g = gen.standard_normal(out.shape).astype(dtype)
    if op == "linear":  # every leading axis folds into one row axis
        want = g @ p if g.ndim <= 2 else (g.reshape(-1, 5) @ p).reshape(g.shape[:-1] + (6,))
    else:  # d/dx of (x - mu) / sigma * gamma + beta, population variance, eps = 1e-5
        centered = x - np.add.reduce(x, -1, keepdims=True) / 6
        inv_sigma = 1.0 / np.sqrt(np.add.reduce(centered * centered, -1, keepdims=True) / 6 + dtype(1e-5))
        xhat, gx = centered * inv_sigma, g * p
        m1 = np.add.reduce(gx, -1, keepdims=True) / 6
        m2 = np.add.reduce(gx * xhat, -1, keepdims=True) / 6
        want = inv_sigma * (gx - m1 - xhat * m2)
    (dx,) = vjp(g)
    assert dx.dtype == dtype and np.array_equal(dx, want)


@pytest.mark.parametrize("kind", ["tensor", "other-precision"])
@pytest.mark.parametrize(
    "op, slot", [("linear", 1), ("linear", 2), ("layernorm", 1), ("layernorm", 2)], ids=["w", "bias", "gamma", "beta"]
)
def test_a_frozen_operand_must_be_an_array_of_the_inputs_precision(op, slot, kind):
    x, *frozen = (a.astype(np.float32) for a in _OPERANDS[op](np.random.default_rng(3), (4,)))
    frozen[slot - 1] = Tensor(frozen[slot - 1]) if kind == "tensor" else frozen[slot - 1].astype(np.float64)
    with pytest.raises(ValueError, match=f"^{op}: "):
        getattr(ad, op)(Tensor(x), *frozen)


def _attention_per_head(qd, kd, vd, n_heads, mask):
    """Reference: one matmul/softmax chain per column-split head; the output and its VJP."""
    dh = qd.shape[-1] // n_heads
    sc = qd.dtype.type(1.0 / np.sqrt(dh))
    heads = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    probs, out = [], np.empty_like(qd)
    for s in heads:
        scores = (qd[..., s] @ kd[..., s].swapaxes(-1, -2)) * sc
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs.append(e / e.sum(axis=-1, keepdims=True))
        out[..., s] = probs[-1] @ vd[..., s]

    def vjp(g):
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        for s, p in zip(heads, probs):
            go = g[..., s]
            dv[..., s] = p.swapaxes(-1, -2) @ go
            dp = go @ vd[..., s].swapaxes(-1, -2)
            ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
            dq[..., s] = (ds @ kd[..., s]) * sc
            dk[..., s] = (ds.swapaxes(-1, -2) @ qd[..., s]) * sc
        return dq, dk, dv

    return out, vjp


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["single", "batch", "trials-batch"])
@pytest.mark.parametrize("masked", [False, True], ids=["open", "causal"])
@pytest.mark.parametrize("n_heads", [1, 3])
def test_head_batched_attention_equals_the_per_head_loop(monkeypatch, n_heads, masked, lead, dtype):
    """Heads as one batch axis compute the per-head loop's output and all three VJPs, bit for bit."""
    gen = np.random.default_rng(29)
    n, d = 5, 12
    q, k, v, g = (gen.standard_normal((*lead, n, d)).astype(dtype) for _ in range(4))
    mask = ad.causal_mask(n, np.dtype(dtype)) if masked else None
    out, vjp = _vjp_of(monkeypatch, lambda: ad.attention_core(Tensor(q), Tensor(k), Tensor(v), n_heads, mask))
    ref_out, ref_vjp = _attention_per_head(q, k, v, n_heads, mask)
    assert out.data.flags.c_contiguous and np.array_equal(out.data, ref_out)
    for got, ref in zip(vjp(g), ref_vjp(g)):
        assert got.shape == ref.shape and got.dtype == dtype
        assert got.flags.c_contiguous and np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["single", "batch", "trials-batch"])
@pytest.mark.parametrize("masked", [False, True], ids=["open", "causal"])
@pytest.mark.parametrize("per_item", [False, True], ids=["int", "per-item"])
def test_query_row_attention_is_the_full_attentions_row(monkeypatch, per_item, masked, lead, dtype):
    """With ``index``, the output is that row of the full output, and the VJP that of the row-scattered gradient."""
    gen = np.random.default_rng(37)
    n, d, n_heads = 5, 12, 3
    q, k, v = (gen.standard_normal((*lead, n, d)).astype(dtype) for _ in range(3))
    g = gen.standard_normal((*lead, d)).astype(dtype)
    index = gen.integers(0, n, lead) if per_item and lead else 3
    mask = ad.causal_mask(n, np.dtype(dtype)) if masked else None
    out, vjp = _vjp_of(monkeypatch, lambda: ad.attention_core(Tensor(q), Tensor(k), Tensor(v), n_heads, mask, index))
    full, full_vjp = _vjp_of(monkeypatch, lambda: ad.attention_core(Tensor(q), Tensor(k), Tensor(v), n_heads, mask))
    sel = ad._row_select("attention_core", q.shape, index)
    g_full = np.zeros(q.shape, dtype)
    g_full[sel] = g
    tol = 1e-5 if dtype == np.float32 else 1e-13
    assert out.shape == (*lead, d) and out.data.dtype == dtype and out.data.flags.c_contiguous
    assert relative_error(out.data, full.data[sel]) <= tol
    for got, want in zip(vjp(g), full_vjp(g_full)):
        assert got.shape == want.shape and got.dtype == dtype and relative_error(got, want) <= tol
    dq = vjp(g)[0].copy()
    dq[sel] = 0
    assert not dq.any()  # q's gradient is zero off the selected rows


def test_query_row_attention_checks_its_index():
    x = Tensor(np.zeros((3, 4, 6)))
    for bad in (4, -1, np.asarray([0, 1]), np.asarray([0, 4, 1]), np.asarray([0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="^attention_core: "):
            ad.attention_core(x, x, x, 2, index=bad)


def test_f32_erf_is_within_1e6_of_the_exact_erf():
    xs = np.linspace(-6.0, 6.0, 240_001, dtype=np.float32)
    got = ad._erf_f32(xs)
    assert got.dtype == np.float32
    exact = np.array([math.erf(x) for x in xs.tolist()])
    assert np.max(np.abs(got - exact)) <= 1e-6
    assert np.max(np.abs(got)) <= 1.0


def test_f32_erf_is_exactly_odd_and_keeps_the_sign_of_zero():
    xs = np.random.default_rng(41).standard_normal(10_000).astype(np.float32) * np.float32(3.0)
    xs = np.concatenate([xs, np.float32([4.0, 1e-30, 3.7466848, 1e30])])
    assert np.array_equal(ad._erf_f32(-xs), -ad._erf_f32(xs))
    zeros = ad._erf_f32(np.float32([0.0, -0.0]))
    assert np.array_equal(zeros, [0.0, 0.0]) and np.array_equal(np.signbit(zeros), [False, True])


def _ulps_from_math_erf(xs):
    exact = np.array([math.erf(x) for x in xs.tolist()])
    return np.abs(ad._erf_f64(xs) - exact) / np.spacing(np.abs(exact))


def test_f64_erf_is_within_2_ulp_of_math_erf():
    dense = np.linspace(-8.0, 8.0, 1_600_001)
    near_zero = np.random.default_rng(47).standard_normal(200_000) * 1e-2  # |erf| small: the tightest ulp
    assert np.max(_ulps_from_math_erf(dense)) <= 2.0
    assert np.max(_ulps_from_math_erf(near_zero)) <= 2.0
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 6.0, 6.001, 1e300, -1e300, np.inf, -np.inf])
    assert np.max(_ulps_from_math_erf(edges)) <= 2.0


def test_f64_erf_reads_the_nearest_grid_point(monkeypatch):
    """|u| <= 1/2 is what the six terms' error bound assumes; a table of grid indices shows which point is read."""
    rows = ad._erf64_table().shape[1]
    indices = np.zeros((ad._ERF64_TERMS, rows))
    indices[0] = np.arange(rows)
    monkeypatch.setattr(ad, "_erf64_table", lambda: indices)
    xs = np.random.default_rng(53).uniform(-8.0, 8.0, 100_000)
    want = np.minimum(np.rint(np.abs(xs) * ad._ERF64_GRID), rows - 1)
    assert np.array_equal(ad._erf_f64(xs), np.copysign(want, xs))


def test_f64_erf_is_exactly_odd_and_keeps_the_sign_of_zero():
    xs = np.random.default_rng(41).standard_normal(10_000) * 3.0
    xs = np.concatenate([xs, [6.0, 1e-300, 5.93, 1e300, np.inf]])
    assert np.array_equal(ad._erf_f64(-xs), -ad._erf_f64(xs))
    zeros = ad._erf_f64(np.array([0.0, -0.0]))
    assert np.array_equal(zeros, [0.0, 0.0]) and np.array_equal(np.signbit(zeros), [False, True])


def test_f64_erf_maps_nan_to_nan_without_a_warning():
    xs = np.array([np.nan, -np.nan, 0.5, np.inf])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = ad._erf_f64(xs)
    assert np.isnan(got[:2]).all() and got[2] == math.erf(0.5) and got[3] == 1.0


def test_f64_gelu_computes_its_erf_in_f64():
    x = np.random.default_rng(43).standard_normal((4, 9, 16)) * 3.0
    want = np.array([0.5 * v * (1.0 + math.erf(v * 0.7071067811865476)) for v in x.ravel().tolist()])
    got = ad.gelu(Tensor(x)).data
    assert got.dtype == np.float64
    assert np.all(np.abs(got.ravel() - want) <= 1e-15 * np.abs(x.ravel()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_and_gelu_of_a_0d_array_give_the_bits_of_shape_1(dtype):
    erf = ad._erf_f32 if dtype == np.float32 else ad._erf_f64
    for v in (0.0, -0.0, np.nan, 1.0, -2.5, 5.0):
        got, want = erf(np.array(v, dtype)), erf(np.array([v], dtype))
        assert np.shape(got) == () and got.dtype == dtype and np.asarray(got).tobytes() == want.tobytes()
        if np.isfinite(v):
            got, want = ad.gelu(Tensor(np.array(v, dtype))).data, ad.gelu(Tensor(np.array([v], dtype))).data
            assert np.shape(got) == () and np.asarray(got).tobytes() == want.tobytes()
    assert np.signbit(erf(np.array(-0.0, dtype))) and not np.signbit(erf(np.array(0.0, dtype)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("biased", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("lead", [(), (9,), (16, 9), (3, 16, 9)], ids=["vector", "rows", "batch", "trials-batch"])
def test_linear_folds_its_leading_axes_into_one_row_axis(monkeypatch, lead, biased, dtype):
    """1-D/2-D calls give x @ w.T + b; an N-D call gives the 2-D call on its folded rows, output and x-gradient."""
    gen = np.random.default_rng(31)
    d_in, d_out = 192, 48
    x = gen.standard_normal((*lead, d_in)).astype(dtype)
    w = (gen.standard_normal((d_out, d_in)) / np.sqrt(d_in)).astype(dtype)
    b = gen.standard_normal(d_out).astype(dtype) if biased else None
    g = gen.standard_normal((*lead, d_out)).astype(dtype)

    def call(xa, ga):
        tape = Tape()
        out, vjp = _vjp_of(monkeypatch, lambda: ad.linear(tape.leaf(xa), w, b))
        return out.data, vjp(ga)[0]

    out, dx = call(x, g)
    assert out.dtype == dx.dtype == dtype and out.flags.c_contiguous and dx.flags.c_contiguous
    if len(lead) <= 1:
        assert np.array_equal(out, x @ w.T if b is None else x @ w.T + b)
        assert np.array_equal(dx, g @ w)
        return
    out2, dx2 = call(x.reshape(-1, d_in), g.reshape(-1, d_out))
    assert np.array_equal(out, out2.reshape(out.shape)) and np.array_equal(dx, dx2.reshape(dx.shape))
    # the blockings of a 144-row and a 9-row f32 GEMM round 192-term sums up to ~2e-6 apart
    tol = 1e-5 if dtype == np.float32 else 1e-14
    for item in np.ndindex(*lead[:-1]):
        item_out, item_dx = call(x[item], g[item])
        assert relative_error(out[item], item_out) <= tol and relative_error(dx[item], item_dx) <= tol


def test_batched_primitives_equal_their_per_item_calls():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((3, 4, 6))
    w, b = gen.standard_normal((5, 6)), gen.standard_normal(5)
    mask = ad.causal_mask(4, np.dtype(np.float64))
    lin = ad.linear(Tensor(x), w, b).data
    att = ad.attention_core(Tensor(x), Tensor(x), Tensor(x), 2, mask).data
    idx = np.asarray([3, 0, 2])
    picked = ad.row(Tensor(x), idx).data
    for i in range(3):
        xi = Tensor(x[i])
        assert np.allclose(lin[i], ad.linear(xi, w, b).data, rtol=0, atol=1e-12)
        assert np.allclose(att[i], ad.attention_core(xi, xi, xi, 2, mask).data, rtol=0, atol=1e-12)
        assert np.array_equal(picked[i], x[i, idx[i]])
    assert np.array_equal(ad.row(Tensor(x), 1).data, x[:, 1])


def test_trial_axis_primitives_equal_their_per_trial_calls():
    gen = np.random.default_rng(6)
    k = 3
    y = gen.standard_normal((k, 2, 5, 4))
    a, b = gen.standard_normal((k, 4)), gen.standard_normal((k, 4))
    m, v, m2 = gen.standard_normal((k, 3, 4)), gen.standard_normal((k, 4)), gen.standard_normal((k, 4, 2))
    rows = gen.standard_normal((k, 2, 4))
    idx = np.asarray([3, 1])
    aff = ad.affine(Tensor(y), Tensor(a), Tensor(b)).data
    mv = ad.matmul(Tensor(m), Tensor(v)).data
    mm = ad.matmul(Tensor(m), Tensor(m2)).data
    tr = ad.transpose(Tensor(m)).data
    picked = ad.pick(Tensor(rows), idx).data
    unit = ad.l2_normalize(Tensor(rows)).data
    summed = ad.add(Tensor(rows), Tensor(rows[0])).data  # (B, d) broadcasts over the trial axis
    for i in range(k):
        assert np.allclose(aff[i], ad.affine(Tensor(y[i]), Tensor(a[i]), Tensor(b[i])).data, rtol=0, atol=1e-12)
        assert np.allclose(mv[i], ad.matmul(Tensor(m[i]), Tensor(v[i])).data, rtol=0, atol=1e-12)
        assert np.allclose(mm[i], ad.matmul(Tensor(m[i]), Tensor(m2[i])).data, rtol=0, atol=1e-12)
        assert np.array_equal(tr[i], ad.transpose(Tensor(m[i])).data)
        assert np.array_equal(picked[i], ad.pick(Tensor(rows[i]), idx).data)
        assert np.allclose(unit[i], ad.l2_normalize(Tensor(rows[i])).data, rtol=0, atol=1e-12)
        assert np.array_equal(summed[i], rows[i] + rows[0])
    assert ad.reduce_sum(Tensor(v[0]), axis=-1).shape == ()
    assert ad.reduce_sum(Tensor(v[0]), axis=-1).item() == pytest.approx(v[0].sum(), abs=1e-12)
    assert ad.reduce_sum(Tensor(rows), axis=-1).shape == (k, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ad.affine(Tensor(np.zeros((3, 2, 4))), Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 4)))),
        lambda: ad.affine(Tensor(np.zeros((2, 4))), Tensor(np.ones((2, 4))), Tensor(np.zeros((3, 4)))),
        lambda: ad.affine(Tensor(np.zeros((2, 5))), Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 4)))),
        lambda: ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4)))),
        lambda: ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 2)))),
        lambda: ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3)))),
        lambda: ad.transpose(Tensor(np.zeros(3))),
        lambda: ad.pick(Tensor(np.zeros((2, 3, 4))), np.asarray([0, 1])),
        lambda: ad.add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 4)))),  # numpy would broadcast it
    ],
    ids=[
        "affine-trials-mismatch",
        "affine-scale-shift-differ",
        "affine-width",
        "matmul-unstacked-rhs",
        "matmul-stacked-inner",
        "matvec-stacked-inner",
        "transpose-vector",
        "pick-rows",
        "add-not-a-suffix",
    ],
)
def test_trial_axis_shape_contract(call):
    with pytest.raises(ValueError):
        call()


def test_row_contract():
    x = Tensor(np.zeros((3, 4, 5)))
    for bad in (np.asarray([0, 1]), np.asarray([[0, 1, 2]]), np.asarray([0, 4, 1]), np.asarray([0.0, 1.0, 2.0]), 4):
        with pytest.raises(ValueError, match="row"):
            ad.row(x, bad)
    with pytest.raises(ValueError, match="row"):
        ad.row(Tensor(np.zeros(5)), 0)


def test_tensor_immutability():
    t = t64([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0

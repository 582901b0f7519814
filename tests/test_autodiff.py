import gc
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
    out = ad.layernorm(t64([1.0, -1.0]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-14)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)


def test_layernorm_constant_row_gives_beta():
    out = ad.layernorm(t64([3.0, 3.0]), t64([2.0, 2.0]), t64([0.5, -0.5]), eps=1e-8)
    assert np.allclose(out.data, [0.5, -0.5], atol=1e-3)


def test_layernorm_affine_case():
    out = ad.layernorm(t64([1.0, -1.0]), t64([2.0, 2.0]), t64([1.0, 1.0]), eps=1e-14)
    assert np.allclose(out.data, [3.0, -1.0], atol=1e-6)


def test_layernorm_width_mismatch():
    with pytest.raises(ValueError, match="gamma"):
        ad.layernorm(t64([1.0, 2.0, 3.0]), t64([1.0, 1.0]), t64([0.0, 0.0]))


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
        h = ad.layernorm(ad.mul(w, w), t64([1.0, 2.0, 3.0]), w, 1e-5)
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
    return (3, 4), lambda x: ad.linear(x, Tensor(w), Tensor(b))


@_case("linear_batched")
def _build_linear_batched(gen):
    w = gen.standard_normal((5, 4))
    b = gen.standard_normal(5)
    return (2, 3, 4), lambda x: ad.linear(x, Tensor(w), Tensor(b))


@_case("linear_batched_weight")
def _build_linear_batched_weight(gen):
    x = gen.standard_normal((2, 3, 4))
    b = gen.standard_normal(5)
    return (5, 4), lambda w: ad.linear(Tensor(x), w, Tensor(b))


@_case("linear_batched_bias")
def _build_linear_batched_bias(gen):
    x = gen.standard_normal((2, 3, 4))
    w = gen.standard_normal((5, 4))
    return (5,), lambda b: ad.linear(Tensor(x), Tensor(w), b)


@_case("layernorm")
def _build_layernorm(gen):
    g = 1.0 + 0.2 * gen.standard_normal(5)
    b = gen.standard_normal(5)
    return (3, 5), lambda x: ad.layernorm(x, Tensor(g), Tensor(b), eps=1e-5)


@_case("softmax")
def _build_softmax(gen):
    return (3, 4), lambda x: ad.softmax(x, axis=-1)


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
    return (3, 4), lambda x: ad.pick(ad.softmax(x, axis=-1), idx)


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
    return (2, 3, 4), lambda x: ad.pick(ad.softmax(x, axis=-1), idx)


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


def test_layernorm_gamma_beta_gradients():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((3, 4))
    g0 = 1.0 + 0.2 * gen.standard_normal(4)
    b0 = gen.standard_normal(4)
    w = gen.standard_normal((3, 4))

    for which in ("gamma", "beta"):
        def f(p):
            g = p if which == "gamma" else g0
            b = p if which == "beta" else b0
            return float(np.sum(ad.layernorm(Tensor(x), Tensor(g), Tensor(b), 1e-5).data * w))

        tape = Tape()
        leaf = tape.leaf(g0 if which == "gamma" else b0)
        out = ad.layernorm(
            Tensor(x),
            leaf if which == "gamma" else Tensor(g0),
            leaf if which == "beta" else Tensor(b0),
            1e-5,
        )
        loss = ad.reduce_sum(ad.mul(out, Tensor(w)))
        analytic = tape.backward(loss)[leaf.node].data
        numeric = finite_diff_grad(lambda ps: [f(p) for p in ps], (g0 if which == "gamma" else b0).copy(), 1e-5)
        assert relative_error(analytic, numeric) <= 1e-4


def test_batched_primitives_equal_their_per_item_calls():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((3, 4, 6))
    w, b = Tensor(gen.standard_normal((5, 6))), Tensor(gen.standard_normal(5))
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

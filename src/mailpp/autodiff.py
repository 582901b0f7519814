"""Dense float tensors with a reverse-mode gradient tape.

The engine covers exactly the primitives the dual-encoder model needs.
A Tensor is its data, an immutable numpy array (f32 or f64,
C-contiguous), plus its tape node: it either lives on a Tape (it was
produced by a recorded primitive or registered as a leaf) or is a
constant. The module-level functions are the API; a Tensor has no
operators. Mixing constants into taped expressions is fine; gradients
only flow to taped inputs.

Every primitive validates shapes/precision up front and checks that its
output is finite; NaN/Inf raises ``NonFiniteError`` instead of silently
propagating. The check is one BLAS dot, the array's sum of squares: a finite
one proves every element finite, and only a non-finite one (a NaN/Inf
element, or finite values whose squares overflow) pays for the full element
scan that decides.

Primitives that act on the last axis (``linear``, ``layernorm``,
``affine``, ``gelu``, ``softmax``, ``l2_normalize``, ``add``) take any
leading axes, ``attention_core`` takes (..., n, d) with one (n, n) mask
for every item and runs its heads as one more batch axis, (..., H, n,
d / H), ``row`` reads axis -2, one index for all items or one per item, and
``pick`` reads one column per row of the last two axes. That is how a whole
batch runs as one chain of primitives. A leading trial axis goes through
them too: ``affine`` takes one scale/shift pair per trial, (*T, w) for y of
shape (*T, ..., w); ``matmul`` multiplies stacks of matrices, or of a
matrix and a vector, over equal leading axes; ``transpose`` swaps the last
two axes; and the elementwise primitives broadcast an operand whose shape
is a suffix of the other's. An unbatched call keeps its bits: on 1-D and
2-D inputs each primitive computes the same products and sums it did
before the leading axes existed, and the head axis of ``attention_core``
gives the bits of a loop over heads (the tests hold it to one). ``linear``
folds its leading axes into one row axis, so a batched call is one GEMM
forward and one for the x-gradient, with the bits of the 2-D call on the
folded rows. A batched call agrees with its per-item calls to rounding.

Frozen operands are plain numpy arrays, not Tensors: the weight and bias
of ``linear``, the gain and shift of ``layernorm`` and the mask of
``attention_core``. Nothing can put them on a tape, so ``linear`` and
``layernorm`` record ``x`` alone and their VJPs return its gradient only.

A Tape is single-use: run the forward pass again to differentiate again.
``backward`` pops each record as it replays it, so the tape no longer
reaches the graph afterwards and the step's intermediates are freed by
reference counting as soon as the caller drops them, without waiting for
the cyclic garbage collector.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "affine",
    "linear",
    "layernorm",
    "softmax",
    "gelu",
    "attention_core",
    "causal_mask",
    "l2_normalize",
    "reduce_sum",
    "mean",
    "log",
    "row",
    "stack_rows",
    "pick",
]

_PRECISION = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

_NEG_INF_FILL = -1e9  # finite stand-in for -inf in additive attention masks


class NonFiniteError(ArithmeticError):
    """A primitive produced NaN or Inf."""


def _check_finite(arr: np.ndarray, op: str, what: str = "result") -> None:
    # A finite sum of squares proves every element finite; a NaN/Inf one may
    # still come from finite values whose squares overflow, so only then does
    # the full scan decide.
    if not math.isfinite(np.vdot(arr, arr)) and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: non-finite value in {what}")


class Tensor:
    """Immutable dense float array, optionally recorded on a Tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data):
        arr = np.array(data, order="C")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        _check_finite(arr, "Tensor")
        self.data = arr
        self.tape = None
        self.node = None

    @staticmethod
    def view(arr: np.ndarray, what: str = "Tensor") -> "Tensor":
        """A read-only Tensor sharing ``arr``'s memory, finite-checked now.

        In-place writes to ``arr`` show through the view. No later check
        runs on the view itself: the primitives that consume it check their
        outputs, which is where a non-finite value written afterwards shows.
        """
        if arr.dtype not in (np.float32, np.float64) or not arr.flags.c_contiguous:
            raise ValueError(f"{what}: a view needs a C-contiguous f32/f64 array, got {arr.dtype} {arr.shape}")
        _check_finite(arr, what)
        return Tensor._wrap(arr.view())

    # Internal: wrap a freshly computed array without copying.
    @staticmethod
    def _wrap(arr: np.ndarray, tape: "Tape | None" = None, node: int | None = None) -> "Tensor":
        t = object.__new__(Tensor)
        arr.setflags(write=False)
        t.data = arr
        t.tape = tape
        t.node = node
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def precision(self) -> str:
        return _PRECISION[self.data.dtype]

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = " on tape" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}, {self.precision}{tag})"


class Tape:
    """Ordered record of primitives; replayed once, in reverse, by backward()."""

    def __init__(self):
        # per recorded primitive: (output node, input nodes, None for an untaped input, vjp)
        self._records: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._leaves: dict[int, tuple[Tensor, str | None]] = {}
        self._n_nodes = 0
        self._consumed = False

    def _new_node(self) -> int:
        nid = self._n_nodes
        self._n_nodes += 1
        return nid

    def leaf(self, value, name: str | None = None) -> Tensor:
        """Register a trainable leaf; its gradient is collected by backward(), which names it on a NaN/Inf."""
        base = value if isinstance(value, Tensor) else Tensor(value)
        t = Tensor._wrap(np.asarray(base.data), self, self._new_node())
        self._leaves[t.node] = (t, name)
        return t

    @property
    def num_records(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> dict[int, Tensor]:
        """Reverse-mode gradients of a scalar loss for every leaf.

        Leaves that the loss does not depend on get exact zeros. The tape
        is consumed: it drops its records and leaves, and a second
        backward() raises.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed; rerun the forward pass")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if loss.tape is not None and loss.tape is not self:
            raise ValueError("loss was not produced on this tape")
        # Each record's vjp closure holds Tensors that point back at this
        # tape; dropping the records here breaks that cycle.
        self._consumed = True
        records, self._records = self._records, []
        leaves, self._leaves = self._leaves, {}
        if loss.tape is None:
            # constant loss: depends on no leaf, so every gradient is zero
            return {nid: Tensor._wrap(np.zeros_like(leaf.data)) for nid, (leaf, _) in leaves.items()}

        grads: list[np.ndarray | None] = [None] * self._n_nodes
        grads[loss.node] = np.ones_like(loss.data)
        while records:
            node, inputs, vjp = records.pop()
            g = grads[node]
            if g is None:
                continue
            for nid, gi in zip(inputs, vjp(g)):
                if nid is None:
                    continue
                if grads[nid] is None:
                    grads[nid] = gi
                else:
                    grads[nid] = grads[nid] + gi
            grads[node] = None  # free as we go

        out: dict[int, Tensor] = {}
        for nid, (leaf, name) in leaves.items():
            g = grads[nid]
            if g is None:
                g = np.zeros_like(leaf.data)
            else:
                _check_finite(g, "backward" if name is None else f"backward: gradient of {name}")
            out[nid] = Tensor._wrap(np.ascontiguousarray(g))
        return out


def _tape_of(tensors: Iterable[Tensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("inputs come from different tapes")
    return tape


def _same_precision(op: str, *tensors: Tensor, frozen: Sequence[np.ndarray] = ()) -> np.dtype:
    """The tensors' one dtype; each ``frozen`` operand must be a numpy array of it too."""
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ValueError(f"{op}: precision mismatch ({_PRECISION[dt]} vs {_PRECISION[t.data.dtype]})")
    for arr in frozen:
        if not isinstance(arr, np.ndarray):
            raise ValueError(f"{op}: frozen operands are numpy arrays, got {type(arr).__name__}")
        if arr.dtype != dt:
            raise ValueError(f"{op}: precision mismatch ({_PRECISION[dt]} vs {_PRECISION.get(arr.dtype, arr.dtype)})")
    return dt


def _emit(op: str, out: np.ndarray, inputs: Sequence[Tensor], vjp: Callable | None) -> Tensor:
    """Finish a primitive: finite-check, and record it if any input is taped."""
    if not isinstance(out, np.ndarray):
        out = np.asarray(out)
    _check_finite(out, op)
    tape = _tape_of(inputs)
    if tape is None or tape._consumed:
        if tape is not None and tape._consumed:
            raise RuntimeError("tape already consumed; rerun the forward pass")
        return Tensor._wrap(out)
    node = tape._new_node()
    ids = tuple(t.node if t.tape is tape else None for t in inputs)
    tape._records.append((node, ids, vjp))
    return Tensor._wrap(out, tape, node)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape``, a suffix of ``g.shape`` (suffix broadcast)."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum(), dtype=g.dtype)
    # shape must be a suffix of g.shape with matching trailing axes
    extra = g.ndim - len(shape)
    return np.ascontiguousarray(g.sum(axis=tuple(range(extra))))


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """Operands broadcast when one shape is a suffix of the other: (), (d,), (B, d) with (K, B, d)."""
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    short, long = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if long[len(long) - len(short) :] != short:
        raise ValueError(f"{op}: shapes {sa} and {sb} do not broadcast (one must be a suffix of the other)")


# ------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_precision("add", a, b)
    _check_broadcast("add", a, b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_precision("sub", a, b)
    _check_broadcast("sub", a, b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _emit("sub", out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_precision("mul", a, b)
    _check_broadcast("mul", a, b)
    out = a.data * b.data
    da, db = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * db, a.shape), _unbroadcast(g * da, b.shape)

    return _emit("mul", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _emit("neg", -a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return _emit("scale", a.data * s, (a,), lambda g: (g * s,))


def affine(y: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Per-channel y * a + b over the last axis (the agent-layer primitive).

    ``a`` and ``b`` are one (w,) pair for every item of y (..., w), or one
    pair per trial: (*T, w) for y of shape (*T, ..., w).
    """
    _same_precision("affine", y, a, b)
    t = a.ndim - 1  # leading trial axes of the scale/shift pair
    if t < 0 or b.shape != a.shape or y.ndim <= t or y.shape[:t] != a.shape[:t] or y.shape[-1] != a.shape[-1]:
        raise ValueError(f"affine: scale/shift of shape {a.shape}/{b.shape} do not match {y.shape}")
    yd, ad, bd = y.data, a.data, b.data
    between = tuple(range(t, y.ndim - 1))  # the item axes each pair broadcasts over
    if t and between:
        shape = a.shape[:t] + (1,) * len(between) + a.shape[t:]
        ad, bd = ad.reshape(shape), bd.reshape(shape)

    def vjp(g):
        if not between:
            return g * ad, g * yd, g
        return g * ad, (g * yd).sum(axis=between), g.sum(axis=between)

    return _emit("affine", yd * ad + bd, (y, a, b), vjp)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log: non-positive input")
    ad = a.data
    return _emit("log", np.log(ad), (a,), lambda g: (g / ad,))


def gelu(a: Tensor) -> Tensor:
    x = a.data
    inner = _erf(x * np.float64(0.7071067811865476)).astype(x.dtype, copy=False)
    out = 0.5 * x * (1.0 + inner)

    def vjp(g):  # the normal pdf is only needed here, so untaped passes skip it
        pdf = (np.exp(-0.5 * x * x) * x.dtype.type(0.3989422804014327)).astype(x.dtype)
        return (g * (0.5 * (1.0 + inner) + x * pdf),)

    return _emit("gelu", out, (a,), vjp)


# ------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix @ matrix or matrix @ vector, each also stacked over equal leading axes.

    (m, n) @ (n, p) -> (m, p) and (m, n) @ (n,) -> (m,); stacked,
    (*T, m, n) @ (*T, n, p) -> (*T, m, p) and (*T, m, n) @ (*T, n) -> (*T, m).
    """
    _same_precision("matmul", a, b)
    ad, bd = a.data, b.data
    if a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul: inner dimension mismatch ({a.shape} @ {b.shape})")

        def vjp(g):
            return np.outer(g, bd), ad.T @ g

        return _emit("matmul", ad @ bd, (a, b), vjp)
    if a.ndim < 2 or b.ndim not in (a.ndim - 1, a.ndim):
        raise ValueError(f"matmul: unsupported ranks {a.ndim} and {b.ndim}")
    vector = b.ndim < a.ndim
    lead, inner = (b.shape[:-1], b.shape[-1]) if vector else (b.shape[:-2], b.shape[-2])
    if a.shape[-1] != inner:
        raise ValueError(f"matmul: inner dimension mismatch ({a.shape} @ {b.shape})")
    if a.shape[:-2] != lead:
        raise ValueError(f"matmul: leading axes do not match ({a.shape} @ {b.shape})")
    if vector:
        out = (ad @ bd[..., None])[..., 0]

        def vjp(g):
            return g[..., :, None] * bd[..., None, :], (ad.swapaxes(-1, -2) @ g[..., None])[..., 0]

    else:
        out = ad @ bd

        def vjp(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _emit("matmul", out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ValueError("transpose: expected a matrix or a stack of matrices")
    return _emit(
        "transpose",
        np.ascontiguousarray(a.data.swapaxes(-1, -2)),
        (a,),
        lambda g: (np.ascontiguousarray(g.swapaxes(-1, -2)),),
    )


def linear(x: Tensor, w: np.ndarray, bias: np.ndarray | None = None) -> Tensor:
    """x @ w.T + bias for x of shape (..., d_in), w of shape (d_out, d_in).

    ``w`` and ``bias`` are frozen arrays; only x gets a gradient. Leading
    axes fold into one row axis: a batched call is one GEMM forward and one
    backward, not a stack of small products, and it gives the bits of the
    2-D call on ``x.reshape(-1, d_in)``. A 1-D or 2-D x goes into the
    product as it is.
    """
    _same_precision("linear", x, frozen=(w,) if bias is None else (w, bias))
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear: x {x.shape} incompatible with weight {w.shape}")
    if bias is not None and bias.shape != (w.shape[0],):
        raise ValueError(f"linear: bias {bias.shape} incompatible with weight {w.shape}")
    xd = x.data
    x2 = xd if xd.ndim <= 2 else xd.reshape(-1, xd.shape[-1])
    out = x2 @ w.T
    if bias is not None:
        out = out + bias
    if xd.ndim > 2:
        out = out.reshape(xd.shape[:-1] + out.shape[-1:])

    def vjp(g):
        if g.ndim <= 2:
            return (g @ w,)
        return ((g.reshape(-1, g.shape[-1]) @ w).reshape(g.shape[:-1] + w.shape[1:]),)

    return _emit("linear", out, (x,), vjp)


# ------------------------------------------------------------------
# normalization and attention


def layernorm(x: Tensor, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Population variance (divide by d); eps sits inside the square root.
    ``gamma`` and ``beta`` are frozen arrays; only x gets a gradient.
    """
    if eps <= 0:
        raise ValueError("layernorm: eps must be positive")
    _same_precision("layernorm", x, frozen=(gamma, beta))
    d = x.shape[-1] if x.ndim else 0
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"layernorm: gamma/beta {gamma.shape}/{beta.shape} do not match last axis {d}")
    xd = x.data
    # np.add.reduce / d is ndarray.mean's arithmetic without its Python-level wrapper
    mu = np.add.reduce(xd, -1, keepdims=True) / d
    centered = xd - mu
    var = np.add.reduce(centered * centered, -1, keepdims=True) / d
    inv_sigma = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat = centered * inv_sigma
    out = xhat * gamma + beta

    def vjp(g):
        gx = g * gamma
        # d/dx of (x - mu) / sigma with population variance
        m1 = np.add.reduce(gx, -1, keepdims=True) / d
        m2 = np.add.reduce(gx * xhat, -1, keepdims=True) / d
        return (inv_sigma * (gx - m1 - xhat * m2),)

    return _emit("layernorm", out, (x,), vjp)


def _softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = _softmax_forward(x.data)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return _emit("softmax", y, (x,), vjp)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over column-split heads.

    q, k, v: (..., n, d) with d divisible by n_heads; any leading axes are
    independent items. mask: additive (n, n) constant (0 where attention is
    allowed, a large negative value where it is not), shared by every item.
    Gradients flow to q, k, v.
    """
    _same_precision("attention_core", q, k, v)
    if q.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"attention_core: q/k/v shapes {q.shape}/{k.shape}/{v.shape} must match")
    n, d = q.shape[-2:]
    if d % n_heads != 0:
        raise ValueError(f"attention_core: width {d} not divisible by {n_heads} heads")
    if mask is not None and mask.shape != (n, n):
        raise ValueError(f"attention_core: mask shape {mask.shape} != ({n}, {n})")
    dh = d // n_heads
    sc = q.data.dtype.type(1.0 / np.sqrt(dh))
    lead = q.shape[:-2]

    def heads(a):  # (..., n, d) -> (..., H, n, dh), a view: head h is columns h*dh:(h+1)*dh
        return a.reshape(*lead, n, n_heads, dh).swapaxes(-2, -3)

    def merge(a):  # (..., H, n, dh) -> (..., n, d), C-contiguous
        return a.swapaxes(-2, -3).reshape(*lead, n, d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = (qh @ kh.swapaxes(-1, -2)) * sc
    if mask is not None:
        scores = scores + mask
    p = _softmax_forward(scores)
    out = merge(p @ vh)

    def vjp(g):
        go = heads(g)
        dv = p.swapaxes(-1, -2) @ go
        dp = go @ vh.swapaxes(-1, -2)
        ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
        return merge((ds @ kh) * sc), merge((ds.swapaxes(-1, -2) @ qh) * sc), merge(dv)

    return _emit("attention_core", out, (q, k, v), vjp)


def causal_mask(n: int, dtype: np.dtype) -> np.ndarray:
    """Additive lower-triangular mask: 0 on/below the diagonal, -1e9 above."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = dtype.type(_NEG_INF_FILL)
    return m


# ------------------------------------------------------------------
# reductions and similarity


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    ashape = a.shape
    if axis is None:
        out = np.asarray(a.data.sum(), dtype=a.data.dtype)

        def vjp(g):
            return (np.broadcast_to(g, ashape).astype(g.dtype, copy=True),)

        return _emit("reduce_sum", out, (a,), vjp)
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"reduce_sum: axis {axis} invalid for shape {ashape}")
    ax = axis % a.ndim
    out = a.data.sum(axis=ax)
    out = np.ascontiguousarray(out) if out.ndim else np.asarray(out)  # a 1-D input sums to shape ()

    def vjp_axis(g):
        return (np.broadcast_to(np.expand_dims(g, ax), ashape).astype(g.dtype, copy=True),)

    return _emit("reduce_sum", out, (a,), vjp_axis)


def mean(a: Tensor, axis: int) -> Tensor:
    return scale(reduce_sum(a, axis), 1.0 / a.shape[axis])


def l2_normalize(a: Tensor) -> Tensor:
    """Scale each vector along the last axis to unit Euclidean norm."""
    if a.ndim < 1:
        raise ValueError("l2_normalize: expected a vector or a stack of vectors")
    norms = np.linalg.norm(a.data, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("l2_normalize: zero-norm input")
    y = a.data / norms

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * inner) / norms,)

    return _emit("l2_normalize", y, (a,), vjp)


# ------------------------------------------------------------------
# structural primitives


def row(a: Tensor, i: int | np.ndarray) -> Tensor:
    """Select row ``i`` along axis -2: (..., n, d) -> (..., d).

    ``i`` is one int for every item, or an integer array of shape
    ``a.shape[:-2]`` that gives each item its own row.
    """
    if a.ndim < 2:
        raise ValueError("row: expected a matrix or a stack of matrices")
    n = a.shape[-2]
    ashape = a.shape
    if isinstance(i, (int, np.integer)):
        if not 0 <= i < n:
            raise ValueError(f"row: index {i} out of range for {n} rows")
        sel = (Ellipsis, i, slice(None))
    else:
        idx = np.asarray(i)
        if idx.dtype.kind not in "iu" or idx.shape != ashape[:-2]:
            raise ValueError(f"row: need an int or one integer index per item of {ashape[:-2]}, got {idx.shape}")
        if np.any(idx < 0) or np.any(idx >= n):
            raise ValueError(f"row: index out of range for {n} rows")
        sel = (*np.indices(idx.shape, sparse=True), idx, slice(None))
    out = np.ascontiguousarray(a.data[sel])

    def vjp(g):
        da = np.zeros(ashape, dtype=g.dtype)
        da[sel] = g
        return (da,)

    return _emit("row", out, (a,), vjp)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    if not rows:
        raise ValueError("stack_rows: empty input")
    _same_precision("stack_rows", *rows)
    d = rows[0].shape
    if any(r.shape != d for r in rows) or len(d) != 1:
        raise ValueError("stack_rows: expected equal-length vectors")
    out = np.stack([r.data for r in rows])

    def vjp(g):
        return tuple(np.ascontiguousarray(g[i]) for i in range(len(rows)))

    return _emit("stack_rows", out, tuple(rows), vjp)


def pick(p: Tensor, indices: np.ndarray) -> Tensor:
    """Select p[..., j, indices[j]] for every row j; every leading item shares the indices."""
    if p.ndim < 2:
        raise ValueError("pick: expected a matrix or a stack of matrices")
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.shape[0] != p.shape[-2]:
        raise ValueError(f"pick: need one index per row, got {idx.shape} for {p.shape}")
    if np.any(idx < 0) or np.any(idx >= p.shape[-1]):
        raise ValueError("pick: index out of range")
    rows_idx = np.arange(p.shape[-2])
    out = np.ascontiguousarray(p.data[..., rows_idx, idx])
    pshape = p.shape

    def vjp(g):
        dp = np.zeros(pshape, dtype=g.dtype)
        dp[..., rows_idx, idx] = g
        return (dp,)

    return _emit("pick", out, (p,), vjp)

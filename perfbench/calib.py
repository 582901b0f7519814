"""Machine-speed calibration: a fixed kernel timed between the operations.

On a shared machine the speed of one core moves by up to about 1.5x for
minutes at a time as the neighbours' load comes and goes, and every
operation of a run moves with it. The benchmark times this kernel in the
same closed loop, interleaved with the operations, and reports every
timing at a fixed reference speed: measured time x ``REFERENCE_MS`` / the
median time of the kernel passes run nearest to it. A change to mailpp
leaves the kernel alone, so it moves the reported timings by its own
effect.

The kernel is the same kind of work mailpp does: a tiny pre-norm
transformer forward (attention and a GELU MLP, float32, 12 tokens of
width 32) over eight sequences, one small numpy call after another, with
a Python object per intermediate result, and then a walk in pure Python
over the graph of those objects, as a tape's backward pass makes. It
imports nothing from mailpp.
"""

from __future__ import annotations

import numpy as np

# the kernel's time at the reference speed: a round figure between what one
# pass takes on a 2-core Xeon KVM guest in its fast spells (about 8 ms) and
# in its slow ones (about 13 ms)
REFERENCE_MS = 10.0

_rng = np.random.default_rng(20260)
_X = _rng.standard_normal((8, 12, 32)).astype(np.float32)
_WQ, _WK, _WV, _WO = (_rng.standard_normal((32, 32)).astype(np.float32) * 0.1 for _ in range(4))
_W1 = _rng.standard_normal((32, 128)).astype(np.float32) * 0.1
_W2 = _rng.standard_normal((128, 32)).astype(np.float32) * 0.1


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


def _layernorm(x):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5)


def _topological(root: _Node) -> list[_Node]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    return order


def kernel() -> float:
    """One pass: three rounds over eight sequences, two blocks each; returns a checksum."""
    total = 0.0
    for _ in range(3):
        for seq in _X:
            h = _Node(seq)
            for _ in range(2):
                x = _layernorm(h.value)
                q, k, v = _Node(x @ _WQ, (h,)), _Node(x @ _WK, (h,)), _Node(x @ _WV, (h,))
                a = q.value @ k.value.T / np.float32(5.66)
                a = np.exp(a - a.max(-1, keepdims=True))
                a /= a.sum(-1, keepdims=True)
                h = _Node(h.value + (a @ v.value) @ _WO, (q, k, v))
                g = _layernorm(h.value) @ _W1
                g = 0.5 * g * (1 + np.tanh(0.79788456 * (g + 0.044715 * g**3)))
                h = _Node(h.value + g @ _W2, (h,))
            total += float(h.value.sum())
            for _ in range(4):
                total += len(_topological(h))
    return total


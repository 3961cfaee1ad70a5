"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Var` is a forward value plus its `node`, which is all that `backward`
reads: the nodes of its parents, a vector-Jacobian callback that maps the
upstream gradient to gradients for those parents, `grad` and
`requires_grad`.  A callback closes over only the arrays, shapes and flags
it reads, never over a `Var`, so an intermediate value lives only while the
forward or some callback holds it.  A callback may return `None` for a
parent that needs no gradient, and `matmul`'s does: it keeps `b`'s
transpose only when `a` needs a gradient and `a`'s only when `b` does, so a
product with a constant operand (the input features) never computes that
operand's gradient.  A callback runs once, so `matmul`'s drops each saved
operand as soon as it has used it.  A callback may also redo work from its
parents' values instead of keeping the products it needs, as
`tt.contract_cores` does; those values must then not change between the
forward and `backward` (`model.loss_and_grad` runs `backward` before Adam
updates a weight in place).
An op node needs a gradient exactly when one of its parents does; a node
that needs none keeps no parents or callback, so a graph built only from
constants records no tape and frees each intermediate once it is used.
`backward` sweeps the nodes in reverse topological order (consumers first)
into `grad`, dropping each node's `grad`, callback and parents once its
callback has run; leaves keep `.grad`, and a second `backward` on the
graph raises `ShapeError`.  Every operation is finite-difference tested.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


class _Node:
    __slots__ = ("parents", "vjp", "grad", "requires_grad")

    def __init__(self, parents, vjp, requires_grad):
        self.parents, self.vjp, self.grad, self.requires_grad = parents, vjp, None, requires_grad


class Var:
    __slots__ = ("value", "node")

    def __init__(self, value, parents=(), vjp=None, requires_grad=True):
        """`parents` are the Vars `value` was computed from, or their nodes."""
        self.value = np.asarray(value, dtype=np.float64)
        parents = tuple([p if type(p) is _Node else p.node for p in parents])
        if parents:
            requires_grad = any([p.requires_grad for p in parents])
        self.node = _Node(parents, vjp, True) if requires_grad else _Node((), None, False)

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.node.grad


def leaf(value, requires_grad=True) -> Var:
    return Var(value, requires_grad=requires_grad)


def constant(value) -> Var:
    return Var(value, requires_grad=False)


def _toposort(root: _Node) -> list[_Node]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def _consumed(g):
    raise ShapeError("this graph was consumed by an earlier backward")


def backward(root: Var, seed=None):
    """Accumulate d(root)/d(leaf) into every reachable leaf's `.grad`."""
    if seed is None:
        if root.value.ndim != 0:
            raise ShapeError("backward without a seed requires a scalar root")
        seed = np.array(1.0)
    root.node.grad = np.asarray(seed, dtype=np.float64)
    for node in reversed(_toposort(root.node)):
        if node.vjp is None or node.grad is None:
            continue
        for parent, contribution in zip(node.parents, node.vjp(node.grad)):
            if not parent.requires_grad or contribution is None:
                continue
            # Assign the first contribution; later ones add out of place, so a
            # contribution shared with another node is never written to.
            if parent.grad is None:
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution
        node.grad, node.vjp, node.parents = None, _consumed, ()


def matmul(a: Var, b: Var, out=None) -> Var:
    """np.matmul of two matrices, or of two equal-length stacks of matrices, into `out` if given."""
    av, bv = a.value, b.value
    if (av.ndim, bv.ndim) not in {(2, 2), (3, 3)}:
        raise ShapeError(f"unsupported matmul arity {(av.ndim, bv.ndim)}")

    bt = bv.swapaxes(-1, -2) if a.node.requires_grad else None
    at = av.swapaxes(-1, -2) if b.node.requires_grad else None

    def vjp(g):
        nonlocal at, bt  # b's gradient first, so a's operand is freed before a's gradient is made
        gb, at = (None if at is None else at @ g), None
        ga, bt = (None if bt is None else g @ bt), None
        return ga, gb

    return Var(np.matmul(av, bv, out=out), (a, b), vjp)


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    return Var(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Var, c: float) -> Var:
    return Var(a.value * c, (a,), lambda g: (g * c,))


def relu(a: Var) -> Var:
    # NaN stays NaN, so an overflow upstream still reaches the output checks.
    mask = a.value > 0 if a.node.requires_grad else None
    return Var(np.where(a.value <= 0, 0.0, a.value), (a,), lambda g: (g * mask,))


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Var, perm) -> Var:
    perm = tuple(perm)
    inv = tuple(np.argsort(perm))
    return Var(a.value.transpose(perm), (a,), lambda g: (g.transpose(inv),))


def concat(parts, axis: int, out=None) -> Var:
    """np.concatenate of the Vars `parts` along `axis`.  Given `out`, parts[i]
    instead makes part i, called with its slice of `out` (the parts split it
    evenly): one made there is not copied, and each part is dropped before
    the next is made, so no two are alive at once."""
    if out is None:
        splits = np.cumsum([p.value.shape[axis] for p in parts])[:-1]
        return Var(np.concatenate([p.value for p in parts], axis=axis), parts,
                   lambda g: tuple(np.split(g, splits, axis=axis)))
    nodes = []
    for make, chunk in zip(parts, np.split(out, len(parts), axis=axis)):
        part = make(chunk)
        chunk[...] = part.value  # numpy skips the copy of a part made in its slice
        nodes.append(part.node)
        del part
    return Var(out, nodes, lambda g: tuple(np.split(g, len(nodes), axis=axis)))


def softmax_last(a: Var) -> Var:
    e = np.exp(a.value - np.max(a.value, axis=-1, keepdims=True))
    p = e / np.sum(e, axis=-1, keepdims=True)

    def vjp(g):
        inner = np.sum(g * p, axis=-1, keepdims=True)
        return (p * (g - inner),)

    return Var(p, (a,), vjp)


def logsumexp_last(a: Var) -> Var:
    m = np.max(a.value, axis=-1, keepdims=True)
    e = np.exp(a.value - m)
    s = np.sum(e, axis=-1, keepdims=True)
    out = (m + np.log(s)).squeeze(-1)
    softmax = e / s
    return Var(out, (a,), lambda g: (np.expand_dims(g, -1) * softmax,))


def gather_last(a: Var, idx: np.ndarray) -> Var:
    """out[...] = a[..., idx[...]] for an integer index array."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != a.value.shape[:-1]:
        raise ShapeError(f"index shape {idx.shape} must equal {a.value.shape[:-1]}")
    out = np.take_along_axis(a.value, idx[..., None], axis=-1)[..., 0]
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return (full,)

    return Var(out, (a,), vjp)


def slice_axis(a: Var, axis: int, start: int, stop: int) -> Var:
    """Contiguous slice along one axis; the VJP zero-pads back."""
    sl = (slice(None),) * (axis % a.value.ndim) + (slice(start, stop),)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[sl] = g
        return (full,)

    return Var(a.value[sl], (a,), vjp)


def mean_axis(a: Var, axis: int) -> Var:
    n = a.value.shape[axis]
    out = a.value.mean(axis=axis)
    return Var(out, (a,), lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),))


def sum_all(a: Var) -> Var:
    shape = a.shape
    return Var(a.value.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_all(a: Var) -> Var:
    return scale(sum_all(a), 1.0 / a.value.size)

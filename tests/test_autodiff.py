"""Finite-difference checks for every autodiff operation."""

import weakref

import numpy as np
import pytest

from tomfn import autodiff as ad
from tomfn.errors import ShapeError

import oracles


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    out = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return g


def check(build, *shapes, seed=0, atol=1e-7):
    """Compare backward() grads against finite differences of sum(output)."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]

    def scalar_through(index):
        def f(x):
            vals = [a.copy() for a in arrays]
            vals[index] = x
            leaves = [ad.leaf(v) for v in vals]
            return ad.sum_all(build(*leaves)).value.item()

        return f

    leaves = [ad.leaf(a.copy()) for a in arrays]
    root = ad.sum_all(build(*leaves))
    ad.backward(root)
    for i, lf in enumerate(leaves):
        expect = numeric_grad(scalar_through(i), arrays[i].copy())
        assert lf.grad is not None
        assert np.allclose(lf.grad, expect, atol=atol), f"input {i} grad mismatch"


def test_matmul_2d_2d():
    check(lambda a, b: ad.matmul(a, b), (3, 4), (4, 2))


def test_matmul_3d_3d():
    check(lambda a, b: ad.matmul(a, b), (2, 3, 4), (2, 4, 5))


@pytest.mark.parametrize("constant_index", [0, 1], ids=["constant_left", "constant_right"])
def test_matmul_skips_the_constant_operand(constant_index):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]

    def graph():
        operands = [ad.leaf(a.copy()) for a in arrays]
        operands[constant_index] = ad.constant(arrays[constant_index])
        return operands, ad.matmul(*operands)

    # A callback runs once (it drops its operands), so each call gets its own graph.
    _, out = graph()
    assert out.node.vjp(np.ones(out.shape))[constant_index] is None
    operands, out = graph()
    ad.backward(ad.sum_all(out))
    assert operands[constant_index].grad is None

    learned = 1 - constant_index

    def f(x):
        vals = list(arrays)
        vals[learned] = x
        return ad.sum_all(ad.matmul(ad.constant(vals[0]), ad.constant(vals[1]))).value.item()

    expect = numeric_grad(f, arrays[learned].copy())
    assert np.allclose(operands[learned].grad, expect, atol=1e-7)


def test_matmul_callback_drops_each_operand_once_used():
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
    g = rng.normal(size=(3, 2))
    a, b = ad.leaf(arrays[0].copy()), ad.leaf(arrays[1].copy())
    # Interior values: once the Vars go, only the product's callback holds them.
    x, y = ad.scale(a, 2.0), ad.scale(b, 3.0)
    alive = [weakref.ref(x.value), weakref.ref(y.value)]
    out = ad.matmul(x, y)
    del x, y
    seen = []

    class Probe(np.ndarray):
        """An upstream gradient that records which operands live at each product."""

        def __matmul__(self, other):  # g @ b^T, a's gradient
            seen.append(("a", [r() is not None for r in alive]))
            return np.asarray(self) @ other

        def __rmatmul__(self, other):  # a^T @ g, b's gradient
            seen.append(("b", [r() is not None for r in alive]))
            return other @ np.asarray(self)

    ga, gb = out.node.vjp(g.view(Probe))
    # b's gradient is computed first; a's operand is gone before a's gradient is.
    assert seen == [("b", [True, True]), ("a", [False, True])]
    assert [r() for r in alive] == [None, None]
    assert np.array_equal(ga, g @ (3.0 * arrays[1]).T)
    assert np.array_equal(gb, (2.0 * arrays[0]).T @ g)
    check(lambda a, b: ad.matmul(ad.scale(a, 2.0), ad.scale(b, 3.0)), (3, 4), (4, 2), seed=6)


def test_add_mul_scale():
    check(lambda a, b: ad.scale(ad.mul(ad.add(a, b), b), 0.7), (3, 3), (3, 3))


def test_relu():
    check(lambda a: ad.relu(a), (4, 5), seed=3)


def test_relu_keeps_nan():
    # A NaN from an overflow upstream must reach the output checks, not become 0.
    out = ad.relu(ad.constant(np.array([np.nan, -1.0, -0.0, 0.0, 2.0]))).value
    assert np.isnan(out[0])
    assert np.array_equal(out[1:], [0.0, 0.0, 0.0, 2.0])


def test_reshape_transpose():
    check(lambda a: ad.transpose(ad.reshape(a, (2, 3, 4)), (2, 0, 1)), (6, 4))


def test_concat():
    check(lambda a, b: ad.concat([a, b], axis=1), (2, 3), (2, 2))


def test_concat_of_made_parts():
    check(lambda a, b: ad.concat([lambda out: ad.relu(a), lambda out: ad.scale(b, 2.0)], axis=2,
                                 out=np.empty((2, 3, 4))), (2, 3, 2), (2, 3, 2))


def test_concat_frees_each_made_part_before_the_next():
    rng = np.random.default_rng(15)
    xs = [ad.leaf(rng.normal(size=(2, 3, 4))) for _ in range(3)]
    made = []

    def maker(x):
        def make(out):  # ignores its slice, so concat has to copy the part
            assert all(r() is None for r in made), "an earlier part outlived its copy"
            part = ad.scale(x, 2.0)
            made.append(weakref.ref(part.value))
            return part
        return make

    out = np.empty((2, 3, 12))
    joined = ad.concat([maker(x) for x in xs], axis=2, out=out)
    assert joined.value is out and len(made) == 3
    want = np.concatenate([2.0 * x.value for x in xs], axis=2)
    assert np.array_equal(joined.value.view(np.uint64), want.view(np.uint64))
    seed = rng.normal(size=out.shape)
    ad.backward(joined, seed)
    for x, g in zip(xs, np.split(seed, 3, axis=2)):
        assert np.array_equal(x.grad, 2.0 * g)


def test_softmax_last():
    check(lambda a: ad.softmax_last(a), (3, 4))


def test_logsumexp_last():
    check(lambda a: ad.logsumexp_last(a), (5, 3))


def test_gather_last():
    idx = np.array([0, 2, 1])
    check(lambda a: ad.gather_last(a, idx), (3, 3))


def test_take():
    # Index 1 of axis 0, that axis dropped: the slice and reshape of 'last' pooling.
    check(lambda a: ad.reshape(ad.slice_axis(a, 0, 1, 2), (4,)), (3, 4))


def test_slice_axis():
    check(lambda a: ad.slice_axis(a, 1, 1, 3), (2, 5, 3))


def test_mean_axis():
    check(lambda a: ad.mean_axis(a, 1), (2, 5, 3))


def test_mean_all():
    check(lambda a: ad.mean_all(a), (4, 2))


def chained_fragment(x, w1, w2):
    # A little two-layer net exercising several ops together.
    h = ad.relu(ad.matmul(x, w1))
    p = ad.softmax_last(ad.matmul(h, w2))
    return ad.mul(p, p)


def test_chained_network_fragment():
    check(chained_fragment, (5, 4), (4, 3), (3, 2), seed=11)


def test_backward_frees_the_tape_bit_identically():
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=s) for s in ((5, 4), (4, 3), (3, 2))]
    kept = [ad.leaf(a.copy()) for a in arrays]
    kept_root = ad.sum_all(chained_fragment(*kept))
    oracles.backward(kept_root)
    freed = [ad.leaf(a.copy()) for a in arrays]
    root = ad.sum_all(chained_fragment(*freed))
    interior = [node for node in ad._toposort(root.node) if node.vjp is not None]
    ad.backward(root)
    for k, f in zip(kept, freed):
        assert np.array_equal(k.grad.view(np.uint64), f.grad.view(np.uint64))
    assert all(node.grad is None and node.parents == () for node in interior)
    assert root.value == kept_root.value  # the root keeps its value


def test_forward_frees_a_value_that_no_callback_reads():
    # relu's callback keeps a bool mask and sum_all's a shape, so once the
    # forward drops the product's Var, nothing holds the product itself.
    rng = np.random.default_rng(13)
    x, w = ad.leaf(rng.normal(size=(5, 4))), ad.leaf(rng.normal(size=(4, 3)))
    h = ad.matmul(x, w)
    product, mask = weakref.ref(h.value), h.value > 0
    root = ad.sum_all(ad.relu(h))
    del h
    assert product() is None
    ad.backward(root)
    assert np.allclose(w.grad, x.value.T @ mask, atol=1e-12)
    assert np.allclose(x.grad, mask @ w.value.T, atol=1e-12)


def test_consumed_graph_refuses_a_second_backward():
    x = ad.leaf(np.array([1.0, 2.0]))
    y = ad.mul(x, x)
    root = ad.sum_all(y)
    ad.backward(root)
    with pytest.raises(ShapeError, match="consumed by an earlier backward"):
        ad.backward(root)
    # A new graph over a consumed node cannot reach the leaves either.
    with pytest.raises(ShapeError, match="consumed by an earlier backward"):
        ad.backward(ad.sum_all(ad.scale(y, 2.0)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_on_a_leaf_repeats():
    x = ad.leaf(np.array(3.0))
    for _ in range(2):
        ad.backward(x)
        assert x.grad == 1.0


def test_grad_accumulates_over_reuse():
    x = ad.leaf(np.array([1.0, 2.0]))
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1
    ad.backward(ad.sum_all(y))
    assert np.allclose(x.grad, [3.0, 5.0], atol=1e-12)


def test_constants_get_no_grad():
    x = ad.leaf(np.ones(3))
    c = ad.constant(np.ones(3))
    ad.backward(ad.sum_all(ad.mul(x, c)))
    assert c.grad is None
    # An op on constants only needs no gradient and keeps no tape.
    y = ad.relu(ad.mul(c, ad.constant(np.full(3, 2.0))))
    assert not y.node.requires_grad
    assert y.node.parents == () and y.node.vjp is None
    assert np.allclose(x.grad, np.ones(3), atol=0)


def test_backward_requires_scalar():
    x = ad.leaf(np.ones(3))
    with pytest.raises(Exception):
        ad.backward(x)

"""Tape engine: primitive gradients, layer walking, input-gradient norms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmssl.autodiff as ad
from mmssl.gradcheck import run_primitive_checks


def test_every_primitive_matches_finite_differences():
    errs = run_primitive_checks(seed=3)
    worst = max(errs.values())
    assert worst <= 1e-4, f"worst primitive {max(errs, key=errs.get)}: {worst:.3e}"


def test_tensor_is_float64_and_contiguous():
    t = ad.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_backward_requires_scalar_loss():
    x = ad.parameter(np.ones((2, 2)), "x")
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(0)
    x = ad.parameter(rng.standard_normal((4, 3)), "x")

    def grad_of(fn):
        with ad.Tape() as tape:
            loss = fn()
        return tape.backward(loss, params=[x]).get(x)

    f = lambda: ad.reduce_sum(ad.mul(x, x))
    g = lambda: ad.reduce_sum(ad.exp(ad.scale(x, 0.1)))
    both = lambda: ad.add(f(), g())
    np.testing.assert_allclose(grad_of(both), grad_of(f) + grad_of(g), rtol=1e-12)


def test_gradient_map_accumulates_repeated_use():
    x = ad.parameter(np.array([[2.0, 3.0]]), "x")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # d/dx = 2x + 1
    grads = tape.backward(loss)
    np.testing.assert_allclose(grads.get(x), 2 * x.data + 1)


def test_non_finite_input_raises_numeric_error():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises(ad.NumericError):
        ad.exp(ad.Tensor(np.array([[800.0, 1.0]])))
    with pytest.raises(ad.NumericError):
        ad.add(ad.Tensor(bad), ad.Tensor(bad))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_row_softmax_rows_sum_to_one(n, m, seed):
    rng = np.random.default_rng(seed)
    y = ad.row_softmax(ad.Tensor(rng.standard_normal((n, m)) * 10)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(n), atol=1e-12)


def test_l2_normalize_rows_keeps_zero_rows_zero():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    y = ad.l2_normalize_rows(ad.Tensor(x)).data
    np.testing.assert_allclose(y[0], [0.6, 0.8])
    np.testing.assert_array_equal(y[1], [0.0, 0.0])


def test_dropout_eval_is_identity_and_train_needs_rng():
    x = ad.Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.5, train=False, rng=None) is x
    with pytest.raises(ValueError):
        ad.dropout(x, 0.5, train=True, rng=None)


def test_dropout_train_is_inverted_scaling():
    rng = np.random.default_rng(7)
    x = ad.Tensor(np.ones((200, 50)))
    y = ad.dropout(x, 0.25, train=True, rng=rng).data
    kept = y != 0.0
    np.testing.assert_allclose(y[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02


def test_batch_norm_train_normalizes_batch():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 5)) * 3 + 2
    state = ad.BatchNormState.create(5)
    gamma = ad.Tensor(np.ones(5))
    beta = ad.Tensor(np.zeros(5))
    y = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=True).data
    np.testing.assert_allclose(y.mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=0), 1, atol=1e-6)


def test_batch_norm_eval_uses_stored_statistics():
    state = ad.BatchNormState.create(2)
    state.mean[:] = [1.0, -1.0]
    state.var[:] = [4.0, 0.25]
    gamma = ad.Tensor(np.array([2.0, 1.0]))
    beta = ad.Tensor(np.array([0.5, 0.0]))
    x = np.array([[3.0, 0.0]])
    y = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=False).data
    expected = gamma.data * (x - state.mean) / np.sqrt(state.var + 1e-5) + beta.data
    np.testing.assert_allclose(y, expected, rtol=1e-12)
    # eval mode twice in a row gives the same answer: stats are not updated
    y2 = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=False).data
    np.testing.assert_array_equal(y, y2)


def test_input_gradient_norm_linear_layer_equals_weight_norm():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((7, 1))
    layers = [ad.AffineLayer(ad.Tensor(w), ad.Tensor(np.zeros(1)))]
    x = rng.standard_normal((9, 7))
    _, norms = ad.input_gradient_norm(layers, ad.Tensor(x), train=False, rng=None)
    np.testing.assert_allclose(norms.data, np.full(9, np.linalg.norm(w)), rtol=1e-12)


def test_input_gradient_norm_sigmoid_at_zero():
    # d sigmoid(w.x)/dx at x=0 has norm |w|/4
    w = np.array([[2.0]])
    layers = [
        ad.AffineLayer(ad.Tensor(w), ad.Tensor(np.zeros(1))),
        ad.SigmoidLayer(),
    ]
    _, norms = ad.input_gradient_norm(layers, ad.Tensor(np.zeros((1, 1))), train=False, rng=None)
    np.testing.assert_allclose(norms.data, [0.5], rtol=1e-12)


def test_input_gradient_norm_matches_finite_differences():
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal((4, 3))
    b1 = rng.standard_normal(3)
    w2 = rng.standard_normal((3, 1))
    b2 = rng.standard_normal(1)
    layers = [
        ad.AffineLayer(ad.Tensor(w1), ad.Tensor(b1)),
        ad.LeakyReluLayer(0.2),
        ad.AffineLayer(ad.Tensor(w2), ad.Tensor(b2)),
        ad.SigmoidLayer(),
    ]
    x = rng.standard_normal((5, 4))

    def score(row):
        h = row @ w1 + b1
        h = np.where(h >= 0, h, 0.2 * h)
        return 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))

    eps = 1e-6
    _, norms = ad.input_gradient_norm(layers, ad.Tensor(x), train=False, rng=None)
    for r in range(5):
        g = np.zeros(4)
        for j in range(4):
            hi, lo = x[r].copy(), x[r].copy()
            hi[j] += eps
            lo[j] -= eps
            g[j] = (score(hi)[0] - score(lo)[0]) / (2 * eps)
        assert abs(norms.data[r] - np.linalg.norm(g)) < 1e-6


def test_finite_difference_check_flags_a_wrong_gradient():
    x = ad.parameter(np.array([[1.0, 2.0]]), "x")

    def good():
        return ad.reduce_sum(ad.mul(x, x))

    assert ad.finite_difference_check(good, [x]) < 1e-8

    def stale_tape():
        # sum(x) has gradient 1, but we report against sum(2x): mismatch
        return ad.reduce_sum(ad.scale(x, 2.0))

    with ad.Tape() as tape:
        loss = ad.reduce_sum(x)
    g = tape.backward(loss, params=[x]).get(x)
    assert not np.allclose(g, 2.0)


def test_sparse_matmul_matches_dense():
    import scipy.sparse as sp

    rng = np.random.default_rng(3)
    dense = rng.random((6, 4)) * (rng.random((6, 4)) < 0.4)
    mat = sp.csr_matrix(dense)
    x = ad.parameter(rng.standard_normal((4, 3)), "x")
    with ad.Tape() as tape:
        y = ad.sparse_matmul(mat, x)
        loss = ad.reduce_sum(ad.mul(y, y))
    np.testing.assert_allclose(y.data, dense @ x.data, rtol=1e-12)
    g = tape.backward(loss, params=[x]).get(x)
    np.testing.assert_allclose(g, dense.T @ (2 * y.data), rtol=1e-12)


def test_filtered_gradient_map_accepts_further_accumulation():
    x = ad.parameter(np.array([[1.0, 2.0]]), "x")
    y = ad.parameter(np.array([[3.0]]), "y")
    with ad.Tape() as tape:
        loss = ad.add(ad.reduce_sum(ad.mul(x, x)), ad.reduce_sum(y))
    grads = tape.backward(loss, params=[x])
    assert y not in grads
    grads._accumulate(x, np.ones_like(x.data))
    np.testing.assert_allclose(grads.get(x), 2 * x.data + 1)

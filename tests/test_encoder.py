"""Semantic neighborhoods, cross-modal attention, embedding propagation."""
import numpy as np
import pytest

import mmssl.autodiff as ad
import mmssl.encoder as enc
from mmssl.data import build_norm_adjacency, graph_from_edges


def test_top_k_matches_full_sort():
    rng = np.random.default_rng(0)
    rel = rng.standard_normal((12, 9))
    neigh = enc.derive_semantic_neighbors(rel, k=4)
    for u in range(12):
        got = set(neigh.user_neighbors[u].tolist())
        best = set(np.argsort(-rel[u], kind="stable")[:4].tolist())
        assert got == best
    for i in range(9):
        got = set(neigh.item_neighbors[i].tolist())
        best = set(np.argsort(-rel[:, i], kind="stable")[:4].tolist())
        assert got == best


def test_top_k_breaks_ties_by_lower_id():
    rel = np.array([[0.5, 0.9, 0.9, 0.9]])
    neigh = enc.derive_semantic_neighbors(rel, k=2)
    assert neigh.user_neighbors[0].tolist() == [1, 2]


def test_modality_view_is_scaled_neighbor_sum():
    rng = np.random.default_rng(1)
    rel = rng.standard_normal((5, 6))
    neigh = enc.derive_semantic_neighbors(rel, k=3)
    ids = enc.IdEmbeddings(
        users=ad.parameter(rng.standard_normal((5, 4)), "id.users"),
        items=ad.parameter(rng.standard_normal((6, 4)), "id.items"),
    )
    view_u, view_i = enc.modality_view(neigh, ids)
    for u in range(5):
        expected = ids.items.data[neigh.user_neighbors[u]].sum(axis=0) / np.sqrt(3)
        np.testing.assert_allclose(view_u.data[u], expected, rtol=1e-12)
    for i in range(6):
        expected = ids.users.data[neigh.item_neighbors[i]].sum(axis=0) / np.sqrt(3)
        np.testing.assert_allclose(view_i.data[i], expected, rtol=1e-12)


def _attn(dim, heads, seed):
    return enc.AttentionParams.create(dim, heads, np.random.default_rng(seed))


def test_single_modality_attention_is_identity():
    rng = np.random.default_rng(2)
    attn = _attn(8, 2, seed=3)
    view = ad.Tensor(rng.standard_normal((7, 8)))
    (out,) = enc.cross_modal_attention([view], attn)
    assert np.abs(out.data - view.data).max() <= 1e-12


def test_attention_permutation_equivariant():
    rng = np.random.default_rng(3)
    attn = _attn(6, 2, seed=4)
    views = [ad.Tensor(rng.standard_normal((5, 6))) for _ in range(3)]
    out = enc.cross_modal_attention(views, attn)
    perm = [2, 0, 1]
    out_p = enc.cross_modal_attention([views[m] for m in perm], attn)
    for slot in range(3):
        np.testing.assert_allclose(out_p[slot].data, out[perm[slot]].data, rtol=1e-12)


def test_attention_rows_are_convex_mixes_of_head_slices():
    # with equal views the softmax collapses and output equals the input
    rng = np.random.default_rng(4)
    attn = _attn(4, 1, seed=5)
    v = ad.Tensor(rng.standard_normal((6, 4)))
    same = [ad.Tensor(v.data.copy()), ad.Tensor(v.data.copy())]
    mixed = enc.cross_modal_attention(same, attn)
    for out in mixed:
        np.testing.assert_allclose(out.data, v.data, rtol=1e-12)


def test_attention_dim_must_divide_heads():
    with pytest.raises(ValueError):
        enc.AttentionParams.create(6, 4, np.random.default_rng(0))


def test_propagation_matches_dense_oracle():
    edges = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 2), (5, 4)]
    g = graph_from_edges(6, 5, edges)
    adj = build_norm_adjacency(g)
    rng = np.random.default_rng(5)
    e_u = rng.standard_normal((6, 4))
    e_i = rng.standard_normal((5, 4))
    s_u = rng.standard_normal((6, 4))
    s_i = rng.standard_normal((5, 4))
    out_u, out_i = enc.propagate_high_order(
        adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(s_u), ad.Tensor(s_i), layers=2, eta=0.5
    )

    a_u = adj.user_from_item.toarray()
    a_i = adj.item_from_user.toarray()

    def inject(base, summary):
        sq = (summary**2).sum(axis=1, keepdims=True)
        safe = np.where(sq > 0, sq, 1.0)
        return base + 0.5 * np.where(sq > 0, summary / safe, 0.0)

    x_u = inject(e_u, s_u)
    x_i = inject(e_i, s_i)
    acc_u, acc_i = x_u.copy(), x_i.copy()
    cur_u, cur_i = x_u, x_i
    for _ in range(2):
        nxt_u = a_u @ cur_i
        nxt_i = a_i @ cur_u
        cur_u, cur_i = nxt_u, nxt_i
        acc_u += cur_u
        acc_i += cur_i
    np.testing.assert_allclose(out_u.data, acc_u / 3, atol=1e-12)
    np.testing.assert_allclose(out_i.data, acc_i / 3, atol=1e-12)


def test_propagation_linear_in_embeddings():
    g = graph_from_edges(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)])
    adj = build_norm_adjacency(g)
    rng = np.random.default_rng(6)
    zeros_u, zeros_i = np.zeros((4, 3)), np.zeros((4, 3))

    def run(e_u, e_i):
        out = enc.propagate_high_order(
            adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(zeros_u), ad.Tensor(zeros_i), layers=3, eta=0.5
        )
        return out[0].data, out[1].data

    xu, xi = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    yu, yi = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    a, b = 0.7, -1.3
    mix_u, mix_i = run(a * xu + b * yu, a * xi + b * yi)
    xu_out, xi_out = run(xu, xi)
    yu_out, yi_out = run(yu, yi)
    np.testing.assert_allclose(mix_u, a * xu_out + b * yu_out, atol=1e-10)
    np.testing.assert_allclose(mix_i, a * xi_out + b * yi_out, atol=1e-10)


def test_zero_summary_rows_inject_nothing():
    g = graph_from_edges(2, 2, [(0, 0), (1, 1)])
    adj = build_norm_adjacency(g)
    rng = np.random.default_rng(7)
    e_u, e_i = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    z = np.zeros((2, 3))
    with_zero = enc.propagate_high_order(
        adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(z), ad.Tensor(z), layers=1, eta=0.5
    )
    assert np.isfinite(with_zero[0].data).all()
    # eta has no effect when summaries are zero
    other = enc.propagate_high_order(
        adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(z), ad.Tensor(z), layers=1, eta=9.9
    )
    np.testing.assert_array_equal(with_zero[0].data, other[0].data)


def test_outputs_finite_on_isolated_nodes():
    g = graph_from_edges(3, 3, [(0, 0)])  # users 1,2 and items 1,2 isolated
    adj = build_norm_adjacency(g)
    rng = np.random.default_rng(8)
    e_u, e_i = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    s_u, s_i = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    out_u, out_i = enc.propagate_high_order(
        adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(s_u), ad.Tensor(s_i), layers=2, eta=0.5
    )
    assert np.isfinite(out_u.data).all() and np.isfinite(out_i.data).all()


def test_neighbor_k_validation_and_clamp():
    with pytest.raises(ValueError):
        enc.derive_semantic_neighbors(np.zeros((3, 3)), k=0)
    # k beyond the axis size clamps: every counterpart becomes a neighbor
    neigh = enc.derive_semantic_neighbors(np.eye(3), k=7)
    assert neigh.user_neighbors.shape == (3, 3)
    assert neigh.item_neighbors.shape == (3, 3)
    for row in neigh.user_neighbors:
        assert sorted(row.tolist()) == [0, 1, 2]


def test_top_k_order_equals_stable_argsort_with_ties():
    rng = np.random.default_rng(6)
    for scores in (
        rng.standard_normal((9, 13)),
        rng.integers(0, 3, size=(9, 13)).astype(float),
        np.zeros((4, 5)),
    ):
        for k in (1, 4, 13, 20):
            want = np.argsort(-scores, axis=1, kind="stable")[:, : min(k, scores.shape[1])]
            np.testing.assert_array_equal(enc._top_k_rows(scores, k), want)


@pytest.mark.parametrize("block", [1, 2, 5, 100])
def test_row_blocks_equal_one_dense_block(block):
    rng = np.random.default_rng(7)
    rel = rng.integers(0, 4, size=(11, 8)).astype(float)  # ties across blocks
    for k in (1, 3, 9, 15):
        dense = enc.derive_semantic_neighbors(rel, k)
        streamed = enc.neighbors_from_row_blocks(
            (rel[s : s + block] for s in range(0, 11, block)), k
        )
        np.testing.assert_array_equal(streamed.user_neighbors, dense.user_neighbors)
        np.testing.assert_array_equal(streamed.item_neighbors, dense.item_neighbors)

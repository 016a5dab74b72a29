"""Semantic neighborhoods, cross-modal attention, embedding propagation."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmssl.autodiff as ad
import mmssl.encoder as enc
import mmssl.model as mdl
from mmssl import adversarial as adv
from mmssl.data import (
    ModalityFeatureTable,
    SyntheticSpec,
    build_norm_adjacency,
    generate_synthetic,
    graph_from_edges,
)


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


def composed_cross_modal_attention(views, attn):
    """Cross-modal attention composed of elementary tape ops: the bitwise
    reference of the one-record ``enc.cross_modal_attention``."""
    n, d = views[0].shape
    heads = attn.heads
    dh = d // heads
    num_m = len(views)
    out = []
    keys = [[ad.matmul(v, attn.key[h]) for v in views] for h in range(heads)]
    queries = [[ad.matmul(v, attn.query[h]) for v in views] for h in range(heads)]
    inv_sqrt = 1.0 / np.sqrt(dh)
    for m in range(num_m):
        head_outputs = []
        for h in range(heads):
            q = queries[h][m]
            scores = [
                ad.scale(ad.reduce_sum(ad.mul(q, keys[h][mp]), axis=1, keepdims=True), inv_sqrt)
                for mp in range(num_m)
            ]
            alpha = ad.row_softmax(ad.concat(scores, axis=1))  # (n, M)
            mixed = None
            for mp in range(num_m):
                piece = ad.mul(
                    ad.slice_cols(alpha, mp, mp + 1),
                    ad.slice_cols(views[mp], h * dh, (h + 1) * dh),
                )
                mixed = piece if mixed is None else ad.add(mixed, piece)
            head_outputs.append(mixed)
        out.append(ad.concat(head_outputs, axis=1))
    return out


@pytest.mark.parametrize("used", ["all", "last"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("num_m", [1, 2, 3])
def test_attention_bitwise_equals_composed_tape(monkeypatch, num_m, heads, used):
    rng = np.random.default_rng(10 * num_m + heads)
    n, d = 9, 8
    attn = _attn(d, heads, seed=num_m)
    bases = [ad.parameter(rng.standard_normal((n, d)), f"base{m}") for m in range(num_m)]
    bases[0].data[4] = 0.0  # a zero view row
    bases[-1].data[-1] = bases[-1].data[0]  # duplicated rows
    bases[0].data[2] = bases[0].data[1]
    weights = ad.constant(rng.standard_normal((n, d)))
    params = bases + attn.parameters()

    def outputs_and_grads():
        with ad.Tape() as tape:
            # produced views whose gradient also gets a later partial first,
            # as the user-side views get InfoNCE's
            views = [ad.scale(b, 1.0) for b in bases]
            mixed = enc.cross_modal_attention(views, attn)
            # with one output unused, that output's gradient is left out
            summary = enc.fuse_modalities(mixed if used == "all" else mixed[-1:])
            loss = ad.reduce_sum(ad.mul(summary, weights))
            for v in views:
                loss = ad.add(loss, ad.reduce_sum(ad.mul(ad.mul(v, v), weights)))
        grads = tape.backward(loss, params=params)
        return [summary.data, loss.data] + [grads.get(p) for p in params]

    fused = outputs_and_grads()
    monkeypatch.setattr(enc, "cross_modal_attention", composed_cross_modal_attention)
    composed = outputs_and_grads()
    names = ["summary", "loss"] + [p.name for p in params]
    for name, a, b in zip(names, fused, composed):
        assert np.array_equal(a, b), name
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fused[:2], composed[:2]))


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
            np.testing.assert_array_equal(enc.top_k_rows(scores, k), want)


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


_TIE_VALUES = (-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0)


@st.composite
def _tied_scores(draw):
    rows, width = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    values = st.sampled_from(_TIE_VALUES)
    matrix = []
    for _ in range(rows):
        if draw(st.booleans()):  # one value repeated across the row
            matrix.append([draw(values)] * width)
        else:
            matrix.append(draw(st.lists(values, min_size=width, max_size=width)))
    scores = np.array(matrix, dtype=float)
    return scores, draw(st.integers(1, width + 2))


@settings(deadline=None, max_examples=300)
@given(_tied_scores())
def test_top_k_rows_is_the_stable_argsort_prefix(case):
    scores, k = case
    want = np.argsort(-scores, axis=1, kind="stable")[:, : min(k, scores.shape[1])]
    np.testing.assert_array_equal(enc.top_k_rows(scores, k), want)


def _stable_top_k(scores, k):
    return np.argsort(-scores, axis=1, kind="stable")[:, : min(k, scores.shape[1])]


@st.composite
def _wide_scores(draw):
    """Rows wide enough to prune under a small group count and cap."""
    groups = draw(st.sampled_from([2, 4, 8]))
    cap = draw(st.integers(1, 3 * groups))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(2 * groups, 6 * groups))
    values = st.one_of(st.sampled_from(_TIE_VALUES), st.floats(-2, 2, allow_nan=False))
    matrix = []
    for _ in range(rows):
        if draw(st.booleans()):  # one value repeated across the row
            matrix.append([draw(values)] * width)
        else:
            matrix.append(draw(st.lists(values, min_size=width, max_size=width)))
    return groups, cap, np.array(matrix, dtype=float), draw(st.integers(1, width + 2))


@settings(deadline=None, max_examples=400)
@given(_wide_scores())
def test_pruned_top_k_rows_is_the_stable_argsort_prefix(case):
    groups, cap, scores, k = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(enc, "GROUPS", groups)
        m.setattr(enc, "MAX_CANDIDATES", cap)
        np.testing.assert_array_equal(enc.top_k_rows(scores, k), _stable_top_k(scores, k))


def _rows_of_every_kind(width):
    """Plain rows mixed with rows that tie at the top, tie at the k-th value,
    hold signed zeros, are constant, or are masked with -inf."""
    rng = np.random.default_rng(width)
    plain = rng.standard_normal((8, width))
    top_ties = plain[:2].copy()
    top_ties[:, ::5] = 3.0
    levels = rng.integers(0, 3, size=(3, width)).astype(float)  # crowded at the k-th value
    zeros = np.where(rng.random((2, width)) < 0.5, 0.0, -0.0)
    zeros[0, width // 2] = 1.0
    constant = np.array([np.zeros(width), np.full(width, 0.25), np.full(width, -np.inf)])
    masked = plain[:3].copy()
    masked[0, rng.choice(width, width // 2, replace=False)] = -np.inf
    masked[1, 6:] = -np.inf  # fewer finite groups than k: a bound of -inf
    masked[2, [4, 9, width - 1]] = np.inf
    rows = np.concatenate([plain, top_ties, levels, zeros, constant, masked])
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("width", [128, 300, 1000])
def test_wide_top_k_rows_is_the_stable_argsort_prefix(width):
    scores = _rows_of_every_kind(width)
    for k in (1, 2, 10, enc.GROUPS // 2, enc.GROUPS // 2 + 1, width - 1, width, width + 5):
        np.testing.assert_array_equal(enc.top_k_rows(scores, k), _stable_top_k(scores, k))


def _ranked_shapes(monkeypatch) -> list:
    """The shape of every non-empty array ``top_k_rows`` ranks by partition."""
    ranked = []
    exact = enc._exact_top_k

    def spy(scores, k):
        if len(scores):
            ranked.append(scores.shape)
        return exact(scores, k)

    monkeypatch.setattr(enc, "_exact_top_k", spy)
    return ranked


def test_wide_rows_rank_only_their_candidates(monkeypatch):
    ranked = _ranked_shapes(monkeypatch)
    scores = np.random.default_rng(3).standard_normal((50, 4000))
    scores[7] = 0.0  # ties at its maximum: its first k columns win unranked
    scores[9, ::2] = 5.0  # 2000 ties at its maximum
    scores[11, 6:] = -np.inf  # 6 finite groups, bound -inf: every entry is a candidate
    np.testing.assert_array_equal(enc.top_k_rows(scores, 10), _stable_top_k(scores, 10))
    assert ranked[0] == (1, 4000)  # row 11 only
    assert len(ranked) == 2 and ranked[1][0] == 47 and 10 <= ranked[1][1] <= enc.MAX_CANDIDATES


def test_a_nan_row_is_ranked_whole(monkeypatch):
    # pruning would drop the NaN and answer; the whole row raises as before
    ranked = _ranked_shapes(monkeypatch)
    scores = np.random.default_rng(4).standard_normal((3, 500))
    scores[1, 77] = np.nan
    with pytest.raises(ValueError):
        enc.top_k_rows(scores, 10)
    assert ranked == [(1, 500)]


@pytest.mark.parametrize("k", [0, -2])
def test_top_k_rows_rejects_k_below_one(k):
    with pytest.raises(ValueError, match=f"top-k must be positive, got {k}"):
        enc.top_k_rows(np.zeros((2, 300)), k)


def _wide_refresh_problem():
    """300 users and 200 items, wide enough to prune both ways: users 0-9
    repeat user 10's items (identical relation rows) and items 150-199 are
    in no interaction (all-zero relation columns)."""
    rng = np.random.default_rng(5)
    edges = [(u, i) for u in range(11) for i in (3, 40, 77)]
    edges += [(u, int(i)) for u in range(11, 300) for i in rng.choice(150, size=4, replace=False)]
    g = graph_from_edges(300, 200, edges)
    features = [
        ModalityFeatureTable(f"m{m}", rng.standard_normal((200, dim)).astype(np.float32))
        for m, dim in enumerate((6, 4))
    ]
    state = mdl.init_model(300, 200, [6, 4], 5, 1, 4, np.random.default_rng(6), 0.1, 0.1)
    return build_norm_adjacency(g), features, state


@pytest.mark.parametrize("block_rows", [1, 7, 64, 130, 0])
def test_wide_refresh_equals_dense_top_k(monkeypatch, block_rows):
    adj, features, state = _wide_refresh_problem()
    if block_rows:  # 0 keeps the default size: one block of all 300 users
        monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 200 * block_rows)
    for k in (1, 10, 32, 40):
        streamed = mdl.refresh_neighborhoods(state, adj, features, k)
        for m, table in enumerate(features):
            f_u, f_i = adv.modality_collab_embeddings(adj, table.as_float64(), state.gen, m)
            rel = adv.generate_relations(f_u, f_i, block_rows=block_rows).data
            assert (rel[:, 150:] == 0).all() and (rel[:10] == rel[10]).all()
            dense = enc.derive_semantic_neighbors(rel, k)
            np.testing.assert_array_equal(streamed[m].user_neighbors, dense.user_neighbors)
            np.testing.assert_array_equal(streamed[m].item_neighbors, dense.item_neighbors)
            np.testing.assert_array_equal(dense.user_neighbors, _stable_top_k(rel, k))
            np.testing.assert_array_equal(dense.item_neighbors, _stable_top_k(rel.T, k))


@pytest.mark.parametrize("block", [1, 2, 3, 6])
def test_later_blocks_enter_only_strictly_above_the_kth_score(monkeypatch, block):
    # item 0: user 2 ties the k-th best (2.0) of users 0-1 and stays out,
    # user 3 (2.5) enters, user 5 (3.0) enters behind user 0's equal 3.0;
    # item 1 is all zeros; item 2 is -inf but for users 3 and 5
    rel = np.array(
        [
            [3.0, 0.0, -np.inf],
            [2.0, 0.0, -np.inf],
            [2.0, 0.0, -np.inf],
            [2.5, 0.0, 4.0],
            [1.0, 0.0, -np.inf],
            [3.0, 0.0, 4.0],
        ]
    )
    read = set()
    entries_above = enc._entries_above

    def spy(*args):
        scores, users = entries_above(*args)
        items, slots = np.nonzero(scores > -np.inf)
        read.update(zip(items.tolist(), users[items, slots].tolist()))
        return scores, users

    monkeypatch.setattr(enc, "_entries_above", spy)
    streamed = enc.neighbors_from_row_blocks((rel[s : s + block] for s in range(0, 6, block)), 2)
    assert streamed.item_neighbors.tolist() == [[0, 5], [0, 1], [3, 5]]
    dense = enc.derive_semantic_neighbors(rel, 2)
    np.testing.assert_array_equal(streamed.item_neighbors, dense.item_neighbors)
    np.testing.assert_array_equal(streamed.user_neighbors, dense.user_neighbors)
    # blocks after the first k users read no tie and no zero, only what enters
    assert read == (set() if block == 6 else {(0, 3), (0, 5), (2, 3), (2, 5)})


def test_row_block_scan_frees_each_block_before_the_next_is_made():
    # a refresh holds one (block, I) relation slab, not two
    rng = np.random.default_rng(3)
    made = []

    def blocks():
        for _ in range(4):
            assert all(ref() is None for ref in made), "an earlier block is still alive"
            block = rng.standard_normal((5, 7))
            made.append(weakref.ref(block))
            yield block
            del block

    streamed = enc.neighbors_from_row_blocks(blocks(), 3)
    assert len(made) == 4 and streamed.user_neighbors.shape == (20, 3)


def test_selection_matrices_are_built_once_per_refresh(monkeypatch):
    spec = SyntheticSpec(num_users=30, num_items=20, modality_dims=(4, 3), interactions_per_user=3, seed=2)
    g, features, _ = generate_synthetic(spec)
    adj = build_norm_adjacency(g)
    state = mdl.init_model(30, 20, [4, 3], 8, 2, 4, np.random.default_rng(0), 0.1, 0.1)
    built = []
    selection_matrix = enc._selection_matrix

    def spy(neighbors, width):
        built.append(width)
        return selection_matrix(neighbors, width)

    monkeypatch.setattr(enc, "_selection_matrix", spy)
    cfg = enc.EncoderConfig(top_k=3)
    for _ in range(2):
        neighborhoods = mdl.refresh_neighborhoods(state, adj, features, cfg.top_k)
        outputs = [
            mdl.forward_embeddings(
                state, adj, features, mdl.semantic_embeddings(state, adj, neighborhoods, cfg), 0.5
            )
            for _ in range(3)
        ]
        assert len(built) == 2 * len(features)
        rebuilt = [enc.SemanticNeighborhood(n.user_neighbors, n.item_neighbors) for n in neighborhoods]
        chain = mdl.semantic_embeddings(state, adj, rebuilt, cfg)
        outputs.append(mdl.forward_embeddings(state, adj, features, chain, 0.5))
        for out in outputs[1:]:
            np.testing.assert_array_equal(out.h_users.data, outputs[0].h_users.data)
            np.testing.assert_array_equal(out.h_items.data, outputs[0].h_items.data)
        built.clear()


# -- warm scans: an earlier neighbourhood only bounds the scan -----------------


def _blocks(rel, block):
    return (rel[s : s + block] for s in range(0, rel.shape[0], block))


def _earlier_ids(rel, k, kind, rng):
    """k distinct column ids per row of ``rel``: random ones, the row's k
    worst entries, or its current top-k."""
    k = min(k, rel.shape[1])
    if kind == "random":
        return np.argsort(rng.random(rel.shape), axis=1)[:, :k]
    order = np.argsort(-rel, axis=1, kind="stable")
    return order[:, rel.shape[1] - k :] if kind == "worst" else order[:, :k]


def _floor_below(rel, item_ids):
    """The largest floor strictly below each column's entries at its ids."""
    return np.nextafter(np.take_along_axis(rel.T, item_ids, axis=1).min(axis=1), -np.inf)


@st.composite
def _warm_scans(draw):
    rows, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few levels: ties inside rows, columns and blocks
        rel = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(rows, width))
    else:
        rel = rng.standard_normal((rows, width))
    rel[rng.random(rows) < 0.2] = draw(st.sampled_from([0.0, 0.5]))  # all-tied rows
    rel[:, rng.random(width) < 0.2] = 0.0  # all-zero columns
    kinds = st.sampled_from(["random", "worst", "best"])
    k = draw(st.integers(1, max(rows, width) + 2))
    users = _earlier_ids(rel, k, draw(kinds), rng)
    items = _earlier_ids(rel.T, k, draw(kinds), rng)
    block = draw(st.integers(1, rows + 1))  # one row, fewer than k rows, or several blocks
    cap = draw(st.sampled_from([1, 2, 4, enc.MAX_CANDIDATES]))
    return rel, k, users, items, block, cap


@settings(deadline=None, max_examples=300)
@given(_warm_scans())
def test_a_warm_scan_equals_the_cold_scan_and_the_stable_argsort(case):
    rel, k, users, items, block, cap = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(enc, "MAX_CANDIDATES", cap)  # small caps crowd rows and columns
        cold = enc.neighbors_from_row_blocks(_blocks(rel, block), k)
        user_bound = enc.neighbors_from_row_blocks(_blocks(rel, block), k, users)
        both = enc.neighbors_from_row_blocks(_blocks(rel, block), k, users, _floor_below(rel, items))
    for got in (cold, user_bound, both):
        np.testing.assert_array_equal(got.user_neighbors, _stable_top_k(rel, k))
        np.testing.assert_array_equal(got.item_neighbors, _stable_top_k(rel.T, k))


@settings(deadline=None, max_examples=200)
@given(_wide_scores())
def test_top_k_rows_under_a_given_bound_is_the_stable_argsort_prefix(case):
    groups, cap, scores, k = case
    rng = np.random.default_rng(scores.shape[0] * 1000 + scores.shape[1])
    ids = _earlier_ids(scores, k, "random", rng)
    bound = np.take_along_axis(scores, ids, axis=1).min(axis=1)  # k distinct entries' minimum
    with pytest.MonkeyPatch.context() as m:
        m.setattr(enc, "MAX_CANDIDATES", cap)
        np.testing.assert_array_equal(enc.top_k_rows(scores, k, bound), _stable_top_k(scores, k))


def test_a_nan_row_under_a_given_bound_is_ranked_whole(monkeypatch):
    ranked = _ranked_shapes(monkeypatch)
    scores = np.random.default_rng(4).standard_normal((3, 500))
    scores[1, 77] = np.nan
    clean = np.nan_to_num(scores, nan=-np.inf)
    bound = np.take_along_axis(clean, _stable_top_k(clean, 10), axis=1).min(axis=1)
    with pytest.raises(ValueError):
        enc.top_k_rows(scores, 10, bound)  # the NaN is not below the bound
    assert ranked == [(1, 500)]


def test_an_all_zero_column_under_a_floor_takes_its_first_users_unranked(monkeypatch):
    ranked = _ranked_shapes(monkeypatch)
    rel = np.random.default_rng(8).standard_normal((300, 6))
    rel[:, 2] = 0.0  # every entry ties, above a floor below zero
    rel[:, 4] = np.abs(rel[:, 4])  # crowded but varied: ranked within the block
    floor = np.full(6, 2.5)
    floor[[2, 4]] = -1e-15
    scores, users = enc._entries_above(rel, floor, 1000, 3)
    assert users[2, :3].tolist() == [1000, 1001, 1002] and (scores[2, :3] == 0).all()
    assert users[4, :3].tolist() == (_stable_top_k(rel[:, 4:5].T, 3)[0] + 1000).tolist()
    assert [shape[0] for shape in ranked] == [1]  # column 4 only


def test_the_item_floor_lies_below_near_tied_relations():
    # users 1e-16 apart along one direction: each item's relations to them
    # differ in the last bits, so rounding decides their order
    rng = np.random.default_rng(9)
    d, k = 64, 10
    base = rng.standard_normal(d)
    qu = base + 1e-15 * rng.standard_normal((300, d))
    qu[::7] = base  # exact ties too
    qi = np.vstack([base + 1e-15 * rng.standard_normal((40, d)), rng.standard_normal((20, d)), np.zeros((4, d))])
    qu /= np.linalg.norm(qu, axis=1, keepdims=True)
    norms = np.linalg.norm(qi, axis=1, keepdims=True)
    qi = np.divide(qi, norms, out=np.zeros_like(qi), where=norms > 0)
    rel = qu @ qi.T
    items = _earlier_ids(rel.T, k, "random", rng)
    floor = mdl._item_floor(qu, qi, items)
    at_ids = np.take_along_axis(rel.T, items, axis=1)
    assert (floor[:, None] < at_ids).all()
    assert (at_ids.min(axis=1) - floor).max() < 1e-13  # close enough to bind
    cold = enc.neighbors_from_row_blocks(_blocks(rel, 37), k)
    warm = enc.neighbors_from_row_blocks(
        _blocks(rel, 37), k, _earlier_ids(rel, k, "worst", rng), floor
    )
    np.testing.assert_array_equal(warm.user_neighbors, cold.user_neighbors)
    np.testing.assert_array_equal(warm.item_neighbors, cold.item_neighbors)
    np.testing.assert_array_equal(cold.item_neighbors, _stable_top_k(rel.T, k))


@pytest.mark.parametrize("block_rows", [1, 7, 64, 130, 0])
def test_a_warm_refresh_equals_the_cold_refresh(monkeypatch, block_rows):
    adj, features, state = _wide_refresh_problem()
    other = mdl.init_model(300, 200, [6, 4], 5, 1, 4, np.random.default_rng(60), 0.1, 0.1)
    if block_rows:  # 0 keeps the default size: one block of all 300 users
        monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 200 * block_rows)
    for k in (1, 10, 40):
        cold = mdl.refresh_neighborhoods(state, adj, features, k)
        for previous in (cold, mdl.refresh_neighborhoods(other, adj, features, k)):
            warm = mdl.refresh_neighborhoods(state, adj, features, k, previous)
            for w, c in zip(warm, cold):
                np.testing.assert_array_equal(w.user_neighbors, c.user_neighbors)
                np.testing.assert_array_equal(w.item_neighbors, c.item_neighbors)


def test_a_previous_neighbourhood_of_another_shape_is_refused():
    adj, features, state = _wide_refresh_problem()
    previous = mdl.refresh_neighborhoods(state, adj, features, 5)
    with pytest.raises(ValueError, match="not a top-6 neighbourhood"):
        mdl.refresh_neighborhoods(state, adj, features, 6, previous)

"""Relation generation, Gumbel proxy, discriminator, minimax losses."""
import tracemalloc

import numpy as np
import pytest

import mmssl.autodiff as ad
import mmssl.adversarial as adv
import mmssl.encoder as enc
import mmssl.model as mdl
from mmssl.data import (
    ModalityFeatureTable,
    SyntheticSpec,
    build_norm_adjacency,
    generate_synthetic,
    graph_from_edges,
    split_edges,
)


def _collab(seed=0, train=False, rng=None):
    g, features, _ = generate_synthetic(SyntheticSpec(seed=seed, interactions_per_user=4))
    adj = build_norm_adjacency(g)
    gen = adv.GeneratorParams.create([t.dim for t in features], 8, np.random.default_rng(seed))
    f_u, f_i = adv.modality_collab_embeddings(adj, features[0].as_float64(), gen, 0, train=train, rng=rng)
    return g, adj, features, gen, f_u, f_i


def test_relation_entries_are_cosines():
    _, _, _, _, f_u, f_i = _collab()
    rel = adv.generate_relations(f_u, f_i).data
    assert rel.min() >= -1 - 1e-12 and rel.max() <= 1 + 1e-12
    self_cos = adv.generate_relations(f_i, f_i).data
    nonzero = np.linalg.norm(f_i.data, axis=1) > 0
    np.testing.assert_allclose(np.diag(self_cos)[nonzero], 1.0, atol=1e-12)
    # isolated nodes aggregate to zero vectors and define cosine 0
    np.testing.assert_array_equal(np.diag(self_cos)[~nonzero], 0.0)


def test_two_hop_aggregation_matches_dense_oracle():
    g, adj, features, gen, f_u, f_i = _collab(seed=1)
    raw = features[0].as_float64()
    transformed = raw @ gen.weights[0].data + gen.biases[0].data
    du = np.array([len(v) for v in g.user_items], dtype=float)
    di = np.array([len(v) for v in g.item_users], dtype=float)
    a = g.dense_matrix()
    with np.errstate(divide="ignore"):
        user_norm = np.where(du > 0, 1 / np.sqrt(du), 0.0)[:, None]
        item_norm = np.where(di > 0, 1 / np.sqrt(di), 0.0)[:, None]
    users = user_norm * (a @ transformed)
    items = item_norm * (a.T @ users)
    np.testing.assert_allclose(f_u.data, users, atol=1e-12)
    np.testing.assert_allclose(f_i.data, items, atol=1e-12)


@pytest.mark.parametrize("block_rows", [1, 3, 0])
def test_blockwise_equals_dense(block_rows):
    _, _, _, _, f_u, f_i = _collab(seed=2)
    dense = adv.generate_relations(f_u, f_i, block_rows=0).data
    blocked = adv.generate_relations(f_u, f_i, block_rows=block_rows).data
    assert np.abs(blocked - dense).max() <= 1e-12


def test_gumbel_rows_sum_to_one():
    rng = np.random.default_rng(0)
    a = (rng.random((1000, 23)) < 0.2).astype(float)
    rows = adv.gumbel_real_proxy(a, rng, adv.GumbelConfig(tau=0.2, zeta=0.0, disable=False))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_gumbel_noise_zero_at_fixed_point():
    # g = -log(-log(u)) vanishes exactly at u = e^{-1}
    u = np.full((4, 6), np.exp(-1.0))
    g = -np.log(-np.log(u))
    np.testing.assert_array_equal(g, np.zeros_like(g))

    class FixedRng:
        def random(self, size=None):
            return np.full(size, np.exp(-1.0))

    a = np.eye(4, 6)
    rows = adv.gumbel_real_proxy(a, FixedRng(), adv.GumbelConfig(tau=0.5, zeta=0.0, disable=False))
    logits = a / 0.5
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(rows, expected, rtol=1e-12)


def test_gumbel_disable_returns_raw_rows():
    rng = np.random.default_rng(1)
    a = (rng.random((5, 7)) < 0.3).astype(float)
    rows = adv.gumbel_real_proxy(a, rng, adv.GumbelConfig(tau=0.2, zeta=100.0, disable=True))
    np.testing.assert_array_equal(rows, a)
    assert rows is not a  # caller may mutate freely


def test_gumbel_zeta_adds_detached_cosine():
    rng = np.random.default_rng(2)
    a = np.eye(3, 5)
    h_u = rng.standard_normal((3, 4))
    h_i = rng.standard_normal((5, 4))
    base = adv.gumbel_real_proxy(a, np.random.default_rng(7), adv.GumbelConfig(0.2, 0.0, False))
    with_cos = adv.gumbel_real_proxy(a, np.random.default_rng(7), adv.GumbelConfig(0.2, 2.5, False), h_u, h_i)
    hu = h_u / np.linalg.norm(h_u, axis=1, keepdims=True)
    hi = h_i / np.linalg.norm(h_i, axis=1, keepdims=True)
    np.testing.assert_allclose(with_cos - base, 2.5 * hu @ hi.T, rtol=1e-10)


def test_discriminator_output_shape_and_range():
    rng = np.random.default_rng(3)
    disc = adv.DiscriminatorParams.create(10, 16, rng)
    scores = adv.discriminate(np.random.default_rng(0).standard_normal((6, 10)), disc, train=False)
    assert scores.shape == (6,)
    assert (scores.data > 0).all() and (scores.data < 1).all()


def test_loss_d_antisymmetric_without_penalty():
    rng = np.random.default_rng(4)
    disc = adv.DiscriminatorParams.create(8, 12, rng)
    real = rng.standard_normal((5, 8))
    fake = rng.standard_normal((5, 8))
    gp = adv.interpolate_rows(real, fake, rng)
    s_real = adv.discriminate(real, disc, train=False)
    s_fake = adv.discriminate(fake, disc, train=False)
    fwd = adv.loss_d(s_real, s_fake, gp, disc, lam1=0.0, train=False)
    rev = adv.loss_d(s_fake, s_real, gp, disc, lam1=0.0, train=False)
    np.testing.assert_allclose(fwd.data, -rev.data, rtol=1e-12)


def test_negate_critic_flips_difference_only():
    rng = np.random.default_rng(5)
    disc = adv.DiscriminatorParams.create(8, 12, rng)
    real = rng.standard_normal((5, 8))
    fake = rng.standard_normal((5, 8))
    gp = adv.interpolate_rows(real, fake, rng)
    s_real = adv.discriminate(real, disc, train=False)
    s_fake = adv.discriminate(fake, disc, train=False)
    plain = adv.loss_d(s_real, s_fake, gp, disc, lam1=0.0, train=False).data
    flipped = adv.loss_d(s_real, s_fake, gp, disc, lam1=0.0, train=False, negate_critic=True).data
    np.testing.assert_allclose(flipped, -plain, rtol=1e-12)
    with_pen = adv.loss_d(s_real, s_fake, gp, disc, lam1=1.0, train=False).data
    with_pen_neg = adv.loss_d(s_real, s_fake, gp, disc, lam1=1.0, train=False, negate_critic=True).data
    np.testing.assert_allclose(with_pen - plain, with_pen_neg - flipped, rtol=1e-10)


def test_gradient_penalty_zero_for_unit_norm_linear_map():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((9, 1))
    w /= np.linalg.norm(w)
    layers = [ad.AffineLayer(ad.Tensor(w), ad.Tensor(np.zeros(1)))]
    for batch in range(3):
        x = np.random.default_rng(batch).standard_normal((8, 9)) * (batch + 1)
        _, norms = ad.input_gradient_norm(layers, ad.Tensor(x), train=False, rng=None)
        penalty = float(np.mean((norms.data - 1.0) ** 2))
        assert penalty < 1e-10


def test_interpolation_stays_on_segment():
    rng = np.random.default_rng(7)
    real = np.zeros((20, 4))
    fake = np.ones((20, 4))
    mix = adv.interpolate_rows(real, fake, rng)
    assert (mix >= 0).all() and (mix <= 1).all()
    # per-row epsilon: every row is constant but rows differ
    assert np.ptp(mix, axis=1).max() < 1e-12
    assert np.ptp(mix[:, 0]) > 0


def test_loss_g_is_negated_mean_score():
    rng = np.random.default_rng(8)
    disc = adv.DiscriminatorParams.create(6, 8, rng)
    rows = [rng.standard_normal((4, 6)), rng.standard_normal((4, 6))]
    scores = [adv.discriminate(r, disc, train=False) for r in rows]
    total = adv.loss_g(scores)
    expected = -sum(s.data.mean() for s in scores)
    np.testing.assert_allclose(total.data, expected, rtol=1e-12)
    with pytest.raises(ValueError):
        adv.loss_g([])


def test_generator_dropout_only_in_train_mode():
    g, adj, features, gen, _, _ = _collab(seed=9)
    a = adv.modality_collab_embeddings(adj, features[0].as_float64(), gen, 0, train=False)
    b = adv.modality_collab_embeddings(adj, features[0].as_float64(), gen, 0, train=False)
    np.testing.assert_array_equal(a[0].data, b[0].data)
    rng = np.random.default_rng(0)
    c = adv.modality_collab_embeddings(adj, features[0].as_float64(), gen, 0, train=True, rng=rng)
    assert not np.array_equal(a[0].data, c[0].data)


def _refresh_problem():
    """Users 0-3 repeat user 4's items (identical relation rows) and items
    8-9 are in no interaction (all-zero relation columns)."""
    rng = np.random.default_rng(11)
    edges = [(u, i) for u in range(5) for i in (0, 2, 5)]
    edges += [(u, int(i)) for u in range(5, 13) for i in rng.choice(8, size=3, replace=False)]
    g = graph_from_edges(13, 10, edges)
    features = [
        ModalityFeatureTable(f"m{m}", rng.standard_normal((10, dim)).astype(np.float32))
        for m, dim in enumerate((6, 4))
    ]
    state = mdl.init_model(13, 10, [6, 4], 5, 1, 4, np.random.default_rng(12))
    return build_norm_adjacency(g), features, state


@pytest.mark.parametrize("block_rows", [1, 3, 7, 13, 0])
@pytest.mark.parametrize("k", [2, 4, 12, 30])
def test_streamed_refresh_equals_dense_top_k(block_rows, k):
    adj, features, state = _refresh_problem()
    streamed = mdl.refresh_neighborhoods(state, adj, features, k, block_rows=block_rows)
    for m, table in enumerate(features):
        f_u, f_i = adv.modality_collab_embeddings(adj, table.as_float64(), state.gen, m)
        rel = adv.generate_relations(f_u, f_i, block_rows=block_rows).data
        assert (rel[:, 8:] == 0).all() and (rel[0] == rel[4]).all()
        want = enc.derive_semantic_neighbors(rel, k)
        np.testing.assert_array_equal(streamed[m].user_neighbors, want.user_neighbors)
        np.testing.assert_array_equal(streamed[m].item_neighbors, want.item_neighbors)


def test_refresh_block_rows_default_is_about_32_mib():
    assert mdl.refresh_block_rows(0, 4000) == 1048
    assert mdl.refresh_block_rows(0, 10**9) == 1
    assert mdl.refresh_block_rows(64, 4000) == 64


def test_streamed_refresh_peak_memory_below_half_a_dense_matrix():
    spec = SyntheticSpec(
        num_users=1200, num_items=900, modality_dims=(16,), interactions_per_user=3, seed=3
    )
    g, features, _ = generate_synthetic(spec)
    adj = build_norm_adjacency(g)
    state = mdl.init_model(1200, 900, [16], 8, 1, 4, np.random.default_rng(0))
    tracemalloc.start()
    try:
        mdl.refresh_neighborhoods(state, adj, features, 10, block_rows=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 1200 * 900 * 8, f"refresh peaked at {peak / 2**20:.1f} MiB"

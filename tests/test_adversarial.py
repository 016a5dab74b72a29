"""Relation generation, Gumbel proxy, discriminator, minimax losses."""
import weakref

import numpy as np
import pytest

import mmssl.autodiff as ad
import mmssl.adversarial as adv
import mmssl.encoder as enc
import mmssl.model as mdl
from mmssl.data import (
    ModalityFeatureTable,
    SyntheticSpec,
    TripletBatch,
    build_norm_adjacency,
    generate_synthetic,
    graph_from_edges,
    split_edges,
)


def _collab(seed=0, train=False, rng=None):
    g, features, _ = generate_synthetic(SyntheticSpec(seed=seed, interactions_per_user=4))
    adj = build_norm_adjacency(g)
    gen = adv.GeneratorParams.create([t.dim for t in features], 8, np.random.default_rng(seed), 0.1)
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
    a = g.dense_matrix()
    du, di = a.sum(axis=1), a.sum(axis=0)
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
    rows = adv.gumbel_real_proxy(a, rng, tau=0.2, zeta=0.0, disable=False)
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
    rows = adv.gumbel_real_proxy(a, FixedRng(), tau=0.5, zeta=0.0, disable=False)
    logits = a / 0.5
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(rows, expected, rtol=1e-12)


def test_gumbel_disable_returns_raw_rows():
    rng = np.random.default_rng(1)
    a = (rng.random((5, 7)) < 0.3).astype(float)
    rows = adv.gumbel_real_proxy(a, rng, tau=0.2, zeta=100.0, disable=True)
    np.testing.assert_array_equal(rows, a)
    assert rows is not a  # caller may mutate freely


def test_gumbel_zeta_adds_detached_cosine():
    rng = np.random.default_rng(2)
    a = np.eye(3, 5)
    h_u = rng.standard_normal((3, 4))
    h_i = rng.standard_normal((5, 4))
    base = adv.gumbel_real_proxy(a, np.random.default_rng(7), 0.2, 0.0, False)
    with_cos = adv.gumbel_real_proxy(a, np.random.default_rng(7), 0.2, 2.5, False, h_u, h_i)
    hu = h_u / np.linalg.norm(h_u, axis=1, keepdims=True)
    hi = h_i / np.linalg.norm(h_i, axis=1, keepdims=True)
    np.testing.assert_allclose(with_cos - base, 2.5 * hu @ hi.T, rtol=1e-10)


def test_gumbel_proxy_in_place_equals_the_plain_expression_bitwise():
    rng = np.random.default_rng(4)
    a = (rng.random((6, 9)) < 0.3).astype(float)
    h_u, h_i = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    h_u[2], h_i[5] = 0.0, 0.0  # zero rows have a zero cosine
    rows = adv.gumbel_real_proxy(a, np.random.default_rng(8), 0.2, 2.5, False, h_u, h_i)
    shifted = (a - np.log(-np.log(np.random.default_rng(8).random(a.shape)))) / 0.2
    e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    un, vn = np.linalg.norm(h_u, axis=1, keepdims=True), np.linalg.norm(h_i, axis=1, keepdims=True)
    qu = np.divide(h_u, un, out=np.zeros_like(h_u), where=un > 0)
    qi = np.divide(h_i, vn, out=np.zeros_like(h_i), where=vn > 0)
    expected = e / e.sum(axis=1, keepdims=True) + 2.5 * (qu @ qi.T)
    assert rows.tobytes() == expected.tobytes()


def test_discriminator_output_shape_and_range():
    rng = np.random.default_rng(3)
    disc = adv.DiscriminatorParams.create(10, 16, rng, 0.1)
    scores = adv.discriminate(np.random.default_rng(0).standard_normal((6, 10)), disc, train=False)
    assert scores.shape == (6,)
    assert (scores.data > 0).all() and (scores.data < 1).all()


def test_loss_d_antisymmetric_without_penalty():
    rng = np.random.default_rng(4)
    disc = adv.DiscriminatorParams.create(8, 12, rng, 0.1)
    real = rng.standard_normal((5, 8))
    fake = rng.standard_normal((5, 8))
    gp = adv.interpolate_rows(real, fake, rng)
    fwd = adv.loss_d(real, fake, gp, disc, lam1=0.0, train=False, negate_critic=False)
    rev = adv.loss_d(fake, real, gp, disc, lam1=0.0, train=False, negate_critic=False)
    np.testing.assert_allclose(fwd.data, -rev.data, rtol=1e-12)


def test_negate_critic_flips_difference_only():
    rng = np.random.default_rng(5)
    disc = adv.DiscriminatorParams.create(8, 12, rng, 0.1)
    real = rng.standard_normal((5, 8))
    fake = rng.standard_normal((5, 8))
    gp = adv.interpolate_rows(real, fake, rng)
    plain = adv.loss_d(real, fake, gp, disc, lam1=0.0, train=False, negate_critic=False).data
    flipped = adv.loss_d(real, fake, gp, disc, lam1=0.0, train=False, negate_critic=True).data
    np.testing.assert_allclose(flipped, -plain, rtol=1e-12)
    with_pen = adv.loss_d(real, fake, gp, disc, lam1=1.0, train=False, negate_critic=False).data
    with_pen_neg = adv.loss_d(real, fake, gp, disc, lam1=1.0, train=False, negate_critic=True).data
    np.testing.assert_allclose(with_pen - plain, with_pen_neg - flipped, rtol=1e-10)


def test_gradient_penalty_zero_for_unit_norm_linear_map():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((9, 1))
    w /= np.linalg.norm(w)
    factors = [("affine", ad.Tensor(w))]
    for batch in range(3):
        # a linear map's input gradient is w at every row: the batch sets the row count
        x = np.random.default_rng(batch).standard_normal((8, 9)) * (batch + 1)
        norms = adv.gradient_norms(factors, len(x))
        penalty = float(np.mean((norms.data - 1.0) ** 2))
        assert penalty < 1e-10


def test_eval_penalty_norms_match_central_differences_of_the_critic():
    # every factor kind: affine maps, leaky-relu masks, batch-norm scales
    # from running statistics that are not the defaults, and the sigmoid
    rng = np.random.default_rng(11)
    disc = adv.DiscriminatorParams.create(4, 3, rng, 0.1)
    for p in disc.parameters():
        p.data[:] = rng.standard_normal(p.shape)
    for bn in (disc.bn1, disc.bn2):
        bn.mean[:] = rng.standard_normal(3)
        bn.var[:] = rng.uniform(0.25, 4.0, 3)
    x = rng.standard_normal((5, 4))
    factors = []
    adv._critic(ad.constant(x), disc, False, None, factors)
    norms = adv.gradient_norms(factors, len(x)).data

    def score(row):
        return adv.discriminate(row[None, :], disc, train=False).item()

    eps = 1e-6
    for r in range(5):
        g = np.zeros(4)
        for j in range(4):
            hi, lo = x[r].copy(), x[r].copy()
            hi[j] += eps
            lo[j] -= eps
            g[j] = (score(hi) - score(lo)) / (2 * eps)
        assert abs(norms[r] - np.linalg.norm(g)) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_train_mode_critic_loss_matches_central_differences(seed):
    # batch statistics, dropout and the taped batch-norm scales of the
    # penalty; a fresh generator per call draws the same dropout masks
    rng = np.random.default_rng(seed)
    disc = adv.DiscriminatorParams.create(9, 6, rng, 0.1)
    real = rng.random((7, 9))
    fake = rng.uniform(-1.0, 1.0, (7, 9))
    gp = adv.interpolate_rows(real, fake, rng)
    params = disc.parameters()

    def loss():
        call_rng = np.random.default_rng(21)
        return adv.loss_d(real, fake, gp, disc, lam1=1.0, negate_critic=False, train=True, rng=call_rng)

    with ad.Tape() as tape:
        out = loss()
    grads = tape.backward(out, params=params)
    eps = 1e-5
    for p in params:
        analytic = grads.get(p).ravel()
        flat = p.data.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss().item()
            flat[j] = orig - eps
            down = loss().item()
            flat[j] = orig
            a, n = analytic[j], (up - down) / (2 * eps)
            assert abs(a - n) <= 1e-4 * max(abs(a), abs(n)) + 1e-8, (p.name, j, a, n)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("negate_critic", [False, True])
def test_loss_d_is_bitwise_the_composed_penalty(monkeypatch, train, negate_critic):
    # the penalty's squared norms as one record against reduce_sum(mul(v, v)):
    # the loss and every critic gradient have the same bytes
    rng = np.random.default_rng(12)
    real, fake = rng.random((6, 9)), rng.uniform(-1.0, 1.0, (6, 9))
    gp = adv.interpolate_rows(real, fake, rng)

    def run():
        disc = adv.DiscriminatorParams.create(9, 5, np.random.default_rng(3), 0.1)
        with ad.Tape() as tape:
            loss = adv.loss_d(real, fake, gp, disc, 1.0, negate_critic, train, np.random.default_rng(21))
        grads = tape.backward(loss, params=disc.parameters())
        return [loss.data.tobytes()] + [grads.get(p).tobytes() for p in disc.parameters()]

    fused = run()
    monkeypatch.setattr(ad, "row_sq_norms", lambda v: ad.reduce_sum(ad.mul(v, v), axis=1))
    assert run() == fused


def _loss_d_on_zero_rows(disc):
    # zero rows keep every score finite whatever the first layer's scale,
    # while the input-gradient rows grow with w1 and gamma1
    zeros = np.zeros((5, disc.w1.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"), ad.Tape() as tape:
        loss = adv.loss_d(zeros, zeros, zeros, disc, 1.0, negate_critic=False, train=False)
    return tape, loss


def test_an_overflow_in_the_penalty_square_is_named_row_sq_norms():
    # gradient rows near 1e199 are finite, their squares are not (named
    # 'mul' while the square was reduce_sum(mul(v, v)))
    disc = adv.DiscriminatorParams.create(6, 4, np.random.default_rng(13), 0.0)
    disc.w1.data *= 1e200
    tape, loss = _loss_d_on_zero_rows(disc)
    with pytest.raises(ad.NumericError, match="^non-finite value produced by 'row_sq_norms'$"):
        tape.backward(loss, params=disc.parameters())


def test_non_finite_gradient_rows_are_blamed_on_the_product_that_made_them():
    # d(score)/d(hidden) near 1e11 against a w1 of 1e300 overflows the
    # last product of the gradient rows; the square then only passes it on
    disc = adv.DiscriminatorParams.create(6, 4, np.random.default_rng(13), 0.0)
    disc.w1.data[:] = 1e300
    disc.gamma1.data[:] = 1e12
    tape, loss = _loss_d_on_zero_rows(disc)
    square = next(rec for rec in tape._records if rec.op == "row_sq_norms")
    rows = next(rec.out[0].data for rec in tape._records if rec.keys == square.inputs)
    assert not np.isfinite(rows).any()
    with pytest.raises(ad.NumericError, match="^non-finite value produced by 'matmul'$"):
        tape.backward(loss, params=disc.parameters())


def test_critic_backward_holds_one_gradient_row_partial_above_the_forward(peak_above_held):
    batch, items = 256, 2000
    rng = np.random.default_rng(14)
    disc = adv.DiscriminatorParams.create(items, 64, rng, 0.1)
    real, fake = rng.random((batch, items)), rng.uniform(-1.0, 1.0, (batch, items))
    gp = adv.interpolate_rows(real, fake, rng)
    rows = batch * items * 8

    def forward_then_backward():
        with ad.Tape() as tape:
            loss = adv.loss_d(real, fake, gp, disc, 1.0, False, train=True, rng=rng)
        return peak_above_held(tape.backward, loss, params=disc.parameters())[1]

    growth, _ = peak_above_held(forward_then_backward)
    # the penalty's one (batch, I) partial and the (hidden, I) w1 partials,
    # 1.28 (batch, I) arrays; the composed square made 3.0
    assert growth < 1.5 * rows, f"backward grew {growth / rows:.2f} (batch, I) arrays"


def test_interpolation_is_bitwise_the_two_product_expression():
    real, fake = (np.random.default_rng(seed).standard_normal((9, 7)) for seed in (1, 2))
    mix = adv.interpolate_rows(real, fake, np.random.default_rng(3))
    eps = np.random.default_rng(3).random((9, 1))
    assert mix.tobytes() == (eps * real + (1.0 - eps) * fake).tobytes()


def test_interpolation_stays_on_segment():
    rng = np.random.default_rng(7)
    real = np.zeros((20, 4))
    fake = np.ones((20, 4))
    mix = adv.interpolate_rows(real, fake, rng)
    assert (mix >= 0).all() and (mix <= 1).all()
    # per-row epsilon: every row is constant but rows differ
    assert np.ptp(mix, axis=1).max() < 1e-12
    assert np.ptp(mix[:, 0]) > 0


def test_generator_adversarial_backward_starts_with_no_relation_rows_alive(monkeypatch, peak_above_held):
    # at a (batch, I)-dominated shape the generator step's adversarial loss
    # scores each modality's rows with constant critic weights inside a
    # segment: neither the product that made them nor the critic's first
    # product keeps them, so each is freed once it is scored
    batch, users, items = 256, 40, 2000
    spec = SyntheticSpec(num_users=users, num_items=items, modality_dims=(6, 5), interactions_per_user=3, seed=4)
    graph, features, _ = generate_synthetic(spec)
    adj = build_norm_adjacency(graph)
    state = mdl.init_model(users, items, [6, 5], 8, 1, 16, np.random.default_rng(4), 0.1, 0.1)
    enc_cfg = enc.EncoderConfig(top_k=3, heads=1)
    neighborhoods = mdl.refresh_neighborhoods(state, adj, features, enc_cfg.top_k)
    rng = np.random.default_rng(5)
    triplets = TripletBatch(*(rng.integers(0, n, size=8) for n in (users, items, items)))
    adv_users = rng.integers(0, users, size=batch)
    rows_made = []
    user_relation_rows = adv.user_relation_rows

    def spy(*args):
        rows = user_relation_rows(*args)
        rows_made.append(weakref.ref(rows.data))
        return rows

    monkeypatch.setattr(adv, "user_relation_rows", spy)

    def loss_g_then_backward(tape, fwd):
        with tape:
            l_g = mdl.generator_losses(fwd, state.disc, triplets, adv_users, 0.1, False, False)[2]
        alive = [ref() is not None for ref in rows_made]
        tape.backward(l_g, params=state.generator_parameters())
        return alive

    def step():
        with ad.Tape() as tape:
            chain = mdl.semantic_embeddings(state, adj, neighborhoods, enc_cfg)
            fwd = mdl.forward_embeddings(state, adj, features, chain, 0.2, train=True, rng=rng)
        return peak_above_held(loss_g_then_backward, tape, fwd)

    (alive, peak), _ = peak_above_held(step)
    assert alive == [False, False]
    rows = batch * items * 8
    # above the forward: one modality's rows at a time, then one (batch, I)
    # gradient, 1.29 (batch, I) arrays; with both modalities' rows held
    # until the backward it was 3.29
    assert peak < 1.5 * rows, f"loss_g and its backward peaked at {peak / rows:.2f} (batch, I) arrays"


def test_loss_g_is_negated_mean_score():
    rng = np.random.default_rng(8)
    disc = adv.DiscriminatorParams.create(6, 8, rng, 0.1)
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
    state = mdl.init_model(13, 10, [6, 4], 5, 1, 4, np.random.default_rng(12), 0.1, 0.1)
    return build_norm_adjacency(g), features, state


@pytest.mark.parametrize("block_rows", [1, 3, 7, 13, 0])
@pytest.mark.parametrize("k", [2, 4, 12, 30])
def test_streamed_refresh_equals_dense_top_k(monkeypatch, block_rows, k):
    adj, features, state = _refresh_problem()
    if block_rows:  # 0 keeps the default size: one block of all 13 users
        monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 10 * block_rows)
    streamed = mdl.refresh_neighborhoods(state, adj, features, k)
    for m, table in enumerate(features):
        f_u, f_i = adv.modality_collab_embeddings(adj, table.as_float64(), state.gen, m)
        rel = adv.generate_relations(f_u, f_i, block_rows=block_rows).data
        assert (rel[:, 8:] == 0).all() and (rel[0] == rel[4]).all()
        want = enc.derive_semantic_neighbors(rel, k)
        np.testing.assert_array_equal(streamed[m].user_neighbors, want.user_neighbors)
        np.testing.assert_array_equal(streamed[m].item_neighbors, want.item_neighbors)


def test_refresh_block_rows_default_is_about_32_mib(monkeypatch):
    spec = SyntheticSpec(
        num_users=2100, num_items=4000, modality_dims=(2,), interactions_per_user=1, seed=5
    )
    g, features, _ = generate_synthetic(spec)
    state = mdl.init_model(2100, 4000, [2], 2, 1, 2, np.random.default_rng(0), 0.1, 0.1)
    monkeypatch.setattr(
        enc, "neighbors_from_row_blocks", lambda blocks, k: [b.shape for b in blocks]
    )
    adj = build_norm_adjacency(g)
    assert mdl.refresh_neighborhoods(state, adj, features, 10) == [
        [(1048, 4000), (1048, 4000), (4, 4000)]
    ]
    monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 4000 - 1)  # less than one row
    assert mdl.refresh_neighborhoods(state, adj, features, 10)[0][:2] == [(1, 4000)] * 2


def test_streamed_refresh_peak_memory_below_half_a_dense_matrix(monkeypatch, peak_above_held):
    spec = SyntheticSpec(
        num_users=1200, num_items=900, modality_dims=(16,), interactions_per_user=3, seed=3
    )
    g, features, _ = generate_synthetic(spec)
    adj = build_norm_adjacency(g)
    state = mdl.init_model(1200, 900, [16], 8, 1, 4, np.random.default_rng(0), 0.1, 0.1)
    monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 900 * 64)
    _, peak = peak_above_held(mdl.refresh_neighborhoods, state, adj, features, 10)
    assert peak < 0.5 * 1200 * 900 * 8, f"refresh peaked at {peak / 2**20:.1f} MiB"


def test_warm_refresh_peak_memory_below_half_a_dense_matrix(monkeypatch, peak_above_held):
    spec = SyntheticSpec(
        num_users=1200, num_items=900, modality_dims=(16,), interactions_per_user=3, seed=3
    )
    g, features, _ = generate_synthetic(spec)
    adj = build_norm_adjacency(g)
    state = mdl.init_model(1200, 900, [16], 8, 1, 4, np.random.default_rng(0), 0.1, 0.1)
    monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 8 * 900 * 64)
    previous = mdl.refresh_neighborhoods(
        mdl.init_model(1200, 900, [16], 8, 1, 4, np.random.default_rng(1), 0.1, 0.1), adj, features, 10
    )
    warm, peak = peak_above_held(mdl.refresh_neighborhoods, state, adj, features, 10, previous)
    assert peak < 0.5 * 1200 * 900 * 8, f"warm refresh peaked at {peak / 2**20:.1f} MiB"
    cold = mdl.refresh_neighborhoods(state, adj, features, 10)
    np.testing.assert_array_equal(warm[0].user_neighbors, cold[0].user_neighbors)
    np.testing.assert_array_equal(warm[0].item_neighbors, cold[0].item_neighbors)


def test_item_floor_gathers_a_refresh_block_of_user_rows_at_a_time(monkeypatch, peak_above_held):
    rng = np.random.default_rng(2)
    qu, qi = rng.standard_normal((1200, 64)), rng.standard_normal((900, 64))
    qu /= np.linalg.norm(qu, axis=1, keepdims=True)
    qi /= np.linalg.norm(qi, axis=1, keepdims=True)
    users = np.argsort(rng.random((900, 1200)), axis=1)[:, :10]
    whole = mdl._item_floor(qu, qi, users)  # one (900, 10, 64) gather: 4.4 MiB
    monkeypatch.setattr(mdl, "REFRESH_BLOCK_BYTES", 64 << 10)
    chunked, peak = peak_above_held(mdl._item_floor, qu, qi, users)
    assert peak < 3 * (64 << 10), f"item floor peaked at {peak / 2**10:.0f} KiB"
    np.testing.assert_array_equal(chunked, whole)
    assert (chunked < np.take_along_axis(qi @ qu.T, users, axis=1).min(axis=1)).all()

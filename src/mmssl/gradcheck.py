"""Finite-difference verification of every training loss on a tiny instance.

Builds a fixed small dataset and model, freezes all stochastic choices
(eval-mode dropout and normalization, precomputed batches and noise), and
exposes each loss as a deterministic closure over the live parameters so
central differences can be compared against tape gradients.
"""

from __future__ import annotations

import numpy as np

from . import adversarial, autodiff as ad, model as mdl, objectives as obj
from .data import (
    SyntheticSpec,
    build_norm_adjacency,
    generate_synthetic,
    sample_bpr_triplets,
    split_edges,
)
from .encoder import AttentionParams, EncoderConfig

__all__ = ["run_loss_checks", "run_primitive_checks"]


def run_loss_checks() -> dict[str, float]:
    """Max relative finite-difference error for every loss, keyed by name.

    The instance is fixed: 12 users, 10 items, two modalities of width 12
    and 16, d = 8, two heads, two layers, top-4 neighbours and a batch of 8.
    Each loss is the training step's own function on an eval-mode forward,
    over a precomputed batch, adversarial users and critic rows.
    """
    spec = SyntheticSpec(
        num_users=12,
        num_items=10,
        modality_dims=(12, 16),
        latent_dim=4,
        interactions_per_user=4,
        noise=0.1,
        seed=7,
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=7)
    adj = build_norm_adjacency(split.train)
    rng = np.random.default_rng(7)
    state = mdl.init_model(
        12, 10, [t.dim for t in features], 8, 2, 16, rng, gen_dropout=0.1, disc_dropout=0.1
    )
    enc_cfg = EncoderConfig(top_k=4, heads=2, layers=2)
    neighborhoods = mdl.refresh_neighborhoods(state, adj, features, 4)
    triplets = sample_bpr_triplets(split, graph, 8, rng)
    adv_users = rng.integers(0, 12, size=8)
    chain = mdl.semantic_embeddings(state, adj, neighborhoods, enc_cfg)
    fwd = mdl.forward_embeddings(state, adj, features, chain, 0.2)
    real = adversarial.gumbel_real_proxy(
        split.train.dense_matrix()[adv_users], rng, 0.2, 1.0, False,
        fwd.h_users.data[adv_users], fwd.h_items.data,
    )
    fake = adversarial.user_relation_rows(fwd.prior_users[0], fwd.prior_items[0], adv_users).data
    gp = adversarial.interpolate_rows(real, fake, rng)

    def losses(contrastive, users):
        chain = mdl.semantic_embeddings(state, adj, neighborhoods, enc_cfg)
        fwd = mdl.forward_embeddings(state, adj, features, chain, 0.2)
        return mdl.generator_losses(
            fwd, state.disc, triplets, users, 0.085, paper_sign=False, contrastive=contrastive
        )

    gen = state.generator_parameters()
    checks = {
        "l_bpr": (lambda: losses(False, None)[0], gen),
        "l_cl": (lambda: losses(True, None)[1], gen),
        "l_g": (lambda: losses(False, adv_users)[2], state.gen.parameters()),
        "l_d": (
            lambda: adversarial.loss_d(
                real, fake, gp, state.disc, 1.0, negate_critic=False, train=False
            ),
            state.discriminator_parameters(),
        ),
        "l_total": (lambda: obj.total_loss(*losses(True, adv_users), gen, 0.1, 0.1, 1e-4), gen),
    }
    return {name: ad.finite_difference_check(f, params) for name, (f, params) in checks.items()}


def run_primitive_checks() -> dict[str, float]:
    """Finite-difference check of each substrate primitive in isolation.

    Every case reduces the primitive's output to a scalar through a fixed
    random weighting so all output entries influence the loss.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(3)

    def weights_like(shape):
        return ad.constant(rng.standard_normal(shape))

    results: dict[str, float] = {}

    def check(name, f, params):
        results[name] = ad.finite_difference_check(f, params)

    a = ad.parameter(rng.standard_normal((4, 5)), "a")
    b = ad.parameter(rng.standard_normal((4, 5)), "b")
    row = ad.parameter(rng.standard_normal(5), "row")
    w = weights_like((4, 5))
    check("add", lambda: ad.reduce_sum(ad.mul(ad.add(a, row), w)), [a, row])
    check("sub", lambda: ad.reduce_sum(ad.mul(ad.sub(a, b), w)), [a, b])
    check("mul", lambda: ad.reduce_sum(ad.mul(ad.mul(a, b), w)), [a, b])
    check("scale", lambda: ad.reduce_sum(ad.mul(ad.scale(a, -1.7), w)), [a])

    m1 = ad.parameter(rng.standard_normal((3, 4)), "m1")
    m2 = ad.parameter(rng.standard_normal((4, 2)), "m2")
    wm = weights_like((3, 2))
    w43 = weights_like((4, 3))
    w410 = weights_like((4, 10))
    w45 = weights_like((4, 5))
    w5 = weights_like(5)
    w4 = weights_like(4)
    check("matmul", lambda: ad.reduce_sum(ad.mul(ad.matmul(m1, m2), wm)), [m1, m2])
    check("transpose", lambda: ad.reduce_sum(ad.mul(ad.transpose(m1), w43)), [m1])
    check("reshape", lambda: ad.reduce_sum(ad.mul(ad.reshape(m1, (4, 3)), w43)), [m1])
    check("slice_cols", lambda: ad.reduce_sum(ad.mul(ad.slice_cols(a, 1, 4), w43)), [a])
    check(
        "concat",
        lambda: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), w410)),
        [a, b],
    )
    idx = np.array([2, 0, 2, 3])
    check(
        "gather_rows",
        lambda: ad.reduce_sum(ad.mul(ad.gather_rows(a, idx), w45)),
        [a],
    )
    check("reduce_sum_axis0", lambda: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=0), w5)), [a])
    check("mean_axis1", lambda: ad.reduce_sum(ad.mul(ad.mean(a, axis=1), w4)), [a])
    check("exp", lambda: ad.reduce_sum(ad.mul(ad.exp(a), w)), [a])
    pos = ad.parameter(rng.random((4, 5)) + 0.5, "pos")
    check("log", lambda: ad.reduce_sum(ad.mul(ad.log(pos), w)), [pos])
    check("sqrt", lambda: ad.reduce_sum(ad.mul(ad.sqrt(pos), w)), [pos])
    check("sigmoid", lambda: ad.reduce_sum(ad.mul(ad.sigmoid(a), w)), [a])
    check("softplus", lambda: ad.reduce_sum(ad.mul(ad.softplus(a), w)), [a])
    check("leaky_relu", lambda: ad.reduce_sum(ad.mul(ad.leaky_relu(a, 0.2), w)), [a])
    check("row_softmax", lambda: ad.reduce_sum(ad.mul(ad.row_softmax(a), w)), [a])
    check("l2_normalize_rows", lambda: ad.reduce_sum(ad.mul(ad.l2_normalize_rows(a), w)), [a])
    check(
        "divide_rows_by_sq_norm",
        lambda: ad.reduce_sum(ad.mul(ad.divide_rows_by_sq_norm(a), w)),
        [a],
    )
    check("row_sq_norms", lambda: ad.reduce_sum(ad.mul(ad.row_sq_norms(a), w4)), [a])
    # a second view, whose vjp rebuilds its exponentials, drawn from a
    # generator of its own so that no later case's inputs move
    local = np.random.default_rng(13)
    b2 = ad.parameter(local.standard_normal((4, 5)), "b2")
    w4b = ad.constant(local.standard_normal(4))

    def infonce():
        first, second = ad.infonce_terms(a, [b, b2], 0.7)
        return ad.add(ad.reduce_sum(ad.mul(first, w4)), ad.reduce_sum(ad.mul(second, w4b)))

    check("infonce_terms", infonce, [a, b, b2])
    s = sp.random(6, 4, density=0.5, random_state=5, format="csr")
    x = ad.parameter(rng.standard_normal((4, 3)), "x")
    w63 = weights_like((6, 3))
    check(
        "sparse_matmul",
        lambda: ad.reduce_sum(ad.mul(ad.sparse_matmul(s, x), w63)),
        [x],
    )
    gamma = ad.parameter(rng.random(5) + 0.5, "gamma")
    beta = ad.parameter(rng.standard_normal(5), "beta")

    def bn_train():
        state = ad.BatchNormState.create(5)
        return ad.reduce_sum(ad.mul(ad.batch_norm(a, gamma, beta, state, train=True), w))

    check("batch_norm_train", bn_train, [a, gamma, beta])
    frozen = ad.BatchNormState(mean=rng.standard_normal(5), var=rng.random(5) + 0.5)
    check(
        "batch_norm_eval",
        lambda: ad.reduce_sum(ad.mul(ad.batch_norm(a, gamma, beta, frozen, train=False), w)),
        [a, gamma, beta],
    )

    def dropout_fixed():
        local = np.random.default_rng(11)
        return ad.reduce_sum(ad.mul(ad.dropout(a, 0.3, local, train=True), w))

    check("dropout", dropout_fixed, [a])
    views = [ad.parameter(rng.standard_normal((4, 6)), f"view{m}") for m in range(3)]
    attn = AttentionParams.create(6, 2, rng)
    w46 = [weights_like((4, 6)) for _ in views]

    def attention():
        mixed = ad.head_attention(views, attn.query, attn.key)
        return ad.reduce_sum(ad.concat([ad.mul(t, wt) for t, wt in zip(mixed, w46)], axis=1))

    check("head_attention", attention, views + attn.parameters())
    return results

"""Finite-difference verification of every training loss on a tiny instance.

Builds a fixed small dataset and model, freezes all stochastic choices
(eval-mode dropout and normalization, precomputed batches and noise), and
exposes each loss as a deterministic closure over the live parameters so
central differences can be compared against tape gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adversarial, autodiff as ad, model as mdl, objectives as obj
from .autodiff import Tensor
from .data import (
    ModalityFeatureTable,
    SyntheticSpec,
    TripletBatch,
    build_norm_adjacency,
    generate_synthetic,
    sample_bpr_triplets,
    split_edges,
)
from .encoder import AttentionParams, EncoderConfig

__all__ = ["CheckInstance", "build_check_instance", "run_loss_checks"]


@dataclass
class CheckInstance:
    state: mdl.ModelState
    adj: object
    features: list[ModalityFeatureTable]
    neighborhoods: list
    enc_cfg: EncoderConfig
    omega: float
    tau_prime: float
    lam2: float
    lam3: float
    lam4: float
    lam1: float
    triplets: TripletBatch
    adv_users: np.ndarray
    real_rows: np.ndarray
    fake_rows: np.ndarray
    gp_rows: np.ndarray

    def generator_losses(self, contrastive: bool = True, adv: bool = True):
        """The training step's (l_bpr, l_cl, l_g) on an eval-mode forward."""
        fwd = mdl.forward_embeddings(
            self.state,
            self.adj,
            self.features,
            self.neighborhoods,
            self.enc_cfg,
            self.omega,
            train=False,
        )
        return mdl.generator_losses(
            fwd,
            self.state.disc,
            self.triplets,
            self.adv_users if adv else None,
            self.tau_prime,
            paper_sign=False,
            contrastive=contrastive,
        )

    def loss_d(self) -> Tensor:
        real = adversarial.discriminate(self.real_rows, self.state.disc, train=False)
        fake = adversarial.discriminate(self.fake_rows, self.state.disc, train=False)
        return adversarial.loss_d(
            real, fake, self.gp_rows, self.state.disc, self.lam1, negate_critic=False, train=False
        )

    def loss_total(self) -> Tensor:
        return obj.total_loss(
            *self.generator_losses(),
            self.state.generator_parameters(),
            self.lam2,
            self.lam3,
            self.lam4,
        )

    def closures(self) -> dict:
        gen = self.state.generator_parameters()
        return {
            "l_bpr": (lambda: self.generator_losses(contrastive=False, adv=False)[0], gen),
            "l_cl": (lambda: self.generator_losses(adv=False)[1], gen),
            "l_g": (
                lambda: self.generator_losses(contrastive=False)[2],
                self.state.gen.parameters(),
            ),
            "l_d": (self.loss_d, self.state.discriminator_parameters()),
            "l_total": (self.loss_total, gen),
        }


def build_check_instance(
    num_users: int = 12,
    num_items: int = 10,
    modality_dims: tuple[int, ...] = (12, 16),
    embed_dim: int = 8,
    heads: int = 2,
    layers: int = 2,
    disc_hidden: int = 16,
    batch: int = 8,
    top_k: int = 4,
    seed: int = 7,
) -> CheckInstance:
    spec = SyntheticSpec(
        num_users=num_users,
        num_items=num_items,
        modality_dims=modality_dims,
        latent_dim=4,
        interactions_per_user=min(4, num_items),
        noise=0.1,
        seed=seed,
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=seed)
    adj = build_norm_adjacency(split.train)
    rng = np.random.default_rng(seed)
    state = mdl.init_model(
        num_users,
        num_items,
        [t.dim for t in features],
        embed_dim,
        heads,
        disc_hidden,
        rng,
        gen_dropout=0.1,
        disc_dropout=0.1,
    )
    enc_cfg = EncoderConfig(top_k=top_k, heads=heads, layers=layers)
    neighborhoods = mdl.refresh_neighborhoods(state, adj, features, top_k)
    triplets = sample_bpr_triplets(split, graph, batch, rng)
    adv_users = rng.integers(0, num_users, size=batch)
    fwd = mdl.forward_embeddings(state, adj, features, neighborhoods, enc_cfg, 0.2)
    a_rows = split.train.dense_matrix()[adv_users]
    real = adversarial.gumbel_real_proxy(
        a_rows, rng, 0.2, 1.0, False, fwd.h_users.data[adv_users], fwd.h_items.data
    )
    f_u, f_i = fwd.prior_users[0], fwd.prior_items[0]
    fake = adversarial.user_relation_rows(f_u, f_i, adv_users).data
    gp = adversarial.interpolate_rows(real, fake, rng)
    return CheckInstance(
        state=state,
        adj=adj,
        features=features,
        neighborhoods=neighborhoods,
        enc_cfg=enc_cfg,
        omega=0.2,
        tau_prime=0.085,
        lam2=0.1,
        lam3=0.1,
        lam4=1e-4,
        lam1=1.0,
        triplets=triplets,
        adv_users=adv_users,
        real_rows=real,
        fake_rows=fake,
        gp_rows=gp,
    )


def run_loss_checks(
    instance: CheckInstance | None = None, eps: float = 1e-5
) -> dict[str, float]:
    """Max relative finite-difference error for every loss, keyed by name."""
    inst = instance or build_check_instance()
    results = {}
    for name, (fn, params) in inst.closures().items():
        results[name] = ad.finite_difference_check(fn, params, eps=eps)
    return results


def run_primitive_checks(seed: int = 3, eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of each substrate primitive in isolation.

    Every case reduces the primitive's output to a scalar through a fixed
    random weighting so all output entries influence the loss.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)

    def weights_like(shape):
        return ad.constant(rng.standard_normal(shape))

    results: dict[str, float] = {}

    def check(name, f, params):
        results[name] = ad.finite_difference_check(f, params, eps=eps)

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
    check(
        "infonce_terms",
        lambda: ad.reduce_sum(ad.mul(ad.infonce_terms(a, b, 0.7), w4)),
        [a, b],
    )
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

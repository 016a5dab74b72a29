"""Adversarial modality-aware relation generation.

The generator turns raw modality features into user/item collaborative
embeddings and scores user-item pairs by cosine similarity: the training
steps score batch rows, and only the test oracle ``generate_relations``
builds a whole relation matrix.  A small row-wise critic is trained to
tell those rows apart from a smoothed proxy of the observed interaction
rows; the generator is trained to fool it.  The critic is regularized with
a gradient penalty on interpolated rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .data import NormalizedAdjacency

__all__ = [
    "GeneratorParams",
    "DiscriminatorParams",
    "modality_collab_embeddings",
    "generate_relations",
    "relation_rows",
    "user_relation_rows",
    "gumbel_real_proxy",
    "discriminate",
    "gradient_norms",
    "interpolate_rows",
    "loss_g",
    "loss_d",
]


@dataclass
class GeneratorParams:
    """Per-modality feature transforms (one affine map + dropout each)."""

    weights: list[Tensor]  # [m]: (raw_dim_m, d)
    biases: list[Tensor]  # [m]: (d,)
    dropout_rate: float

    @classmethod
    def create(
        cls,
        modality_dims: list[int],
        embed_dim: int,
        rng: np.random.Generator,
        dropout_rate: float,
    ) -> "GeneratorParams":
        weights, biases = [], []
        for m, dim in enumerate(modality_dims):
            weights.append(ad.xavier_parameter(rng, dim, embed_dim, f"gen.w{m}"))
            biases.append(ad.parameter(np.zeros(embed_dim), f"gen.b{m}"))
        return cls(weights=weights, biases=biases, dropout_rate=dropout_rate)

    def parameters(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


def modality_collab_embeddings(
    adj: NormalizedAdjacency,
    raw_features: np.ndarray,
    gen: GeneratorParams,
    modality: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Collaborative modality embeddings for users, then items.

    Raw item features are first pushed through the modality transform with
    dropout; user vectors aggregate transformed item vectors over observed
    interactions with 1/sqrt(degree) weights, and item vectors then
    aggregate those user vectors the same way.  One tape segment.
    """

    def collab():
        feats = ad.add(
            ad.matmul(
                ad.constant(np.asarray(raw_features, dtype=np.float64)), gen.weights[modality]
            ),
            gen.biases[modality],
        )
        feats = ad.dropout(feats, gen.dropout_rate, rng, train)
        f_user = ad.sparse_matmul(adj.user_from_item, feats)
        f_item = ad.sparse_matmul(adj.item_from_user, f_user)
        return f_user, f_item

    return ad.segment("modality_collab_embeddings", collab)


def relation_rows(f_user_rows: Tensor, f_item: Tensor) -> Tensor:
    """Cosine similarity of the given user rows against every item."""
    q = ad.l2_normalize_rows(f_user_rows)
    k = ad.l2_normalize_rows(f_item)
    return ad.matmul(q, ad.transpose(k))


def user_relation_rows(f_user: Tensor, f_item: Tensor, users) -> Tensor:
    """Relation rows of the given users (ids may repeat)."""
    return relation_rows(ad.gather_rows(f_user, users), f_item)


def generate_relations(f_user: Tensor, f_item: Tensor, block_rows: int = 0) -> Tensor:
    """Full relation matrix, assembled from row blocks of the given size.

    ``block_rows`` of zero (or >= the user count) computes the matrix in
    one piece; any positive block size yields the identical result.
    """
    n = f_user.shape[0]
    if block_rows <= 0 or block_rows >= n:
        return relation_rows(f_user, f_item)
    k = ad.l2_normalize_rows(f_item)
    kt = ad.transpose(k)
    blocks = []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        q = ad.l2_normalize_rows(ad.gather_rows(f_user, np.arange(start, stop)))
        blocks.append(ad.matmul(q, kt))
    return ad.concat(blocks, axis=0)


# --------------------------------------------------------------------------
# Real-sample proxy
# --------------------------------------------------------------------------


def gumbel_real_proxy(
    a_rows: np.ndarray,
    rng: np.random.Generator,
    tau: float,
    zeta: float,
    disable: bool,
    h_user_rows: np.ndarray | None = None,
    h_item: np.ndarray | None = None,
) -> np.ndarray:
    """Smoothed interaction rows used as the critic's real samples.

    Each row gets i.i.d. Gumbel noise ``g = -log(-log(u))``, a temperature
    softmax over items, and an augmentation term ``zeta * cos(h_u, h_i)``
    built from the current final embeddings.  ``disable`` feeds the raw
    interaction rows instead.  The output carries no gradient: the proxy is
    a training target, not a trainable path.
    """
    a_rows = np.asarray(a_rows, dtype=np.float64)
    if disable:
        return a_rows.copy()
    # one (batch, I) buffer, worked in place in the order of
    # softmax((a + -log(-log(u))) / tau) + zeta * cos, so no value changes
    rows = rng.random(a_rows.shape)
    np.negative(np.log(rows, out=rows), out=rows)
    np.negative(np.log(rows, out=rows), out=rows)
    rows += a_rows
    rows /= tau
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    if zeta != 0.0 and h_user_rows is not None and h_item is not None:
        qu = ad.l2_normalize_rows(h_user_rows).data
        qi = ad.l2_normalize_rows(h_item).data
        cos = qu @ qi.T
        cos *= zeta
        rows += cos
    return rows


# --------------------------------------------------------------------------
# Critic
# --------------------------------------------------------------------------

# negative-side slope of the critic's leaky relus
LEAKY_SLOPE = 0.2


@dataclass
class DiscriminatorParams:
    """Row-wise critic: two (affine, leaky-relu, batch-norm, dropout) blocks,
    then an affine map to one logit and a sigmoid."""

    w1: Tensor
    b1: Tensor
    gamma1: Tensor
    beta1: Tensor
    bn1: BatchNormState
    w2: Tensor
    b2: Tensor
    gamma2: Tensor
    beta2: Tensor
    bn2: BatchNormState
    w3: Tensor
    b3: Tensor
    dropout_rate: float

    @classmethod
    def create(
        cls,
        num_items: int,
        hidden: int,
        rng: np.random.Generator,
        dropout_rate: float,
    ) -> "DiscriminatorParams":
        return cls(
            w1=ad.xavier_parameter(rng, num_items, hidden, "disc.w1"),
            b1=ad.parameter(np.zeros(hidden), "disc.b1"),
            gamma1=ad.parameter(np.ones(hidden), "disc.gamma1"),
            beta1=ad.parameter(np.zeros(hidden), "disc.beta1"),
            bn1=BatchNormState.create(hidden),
            w2=ad.xavier_parameter(rng, hidden, hidden, "disc.w2"),
            b2=ad.parameter(np.zeros(hidden), "disc.b2"),
            gamma2=ad.parameter(np.ones(hidden), "disc.gamma2"),
            beta2=ad.parameter(np.zeros(hidden), "disc.beta2"),
            bn2=BatchNormState.create(hidden),
            w3=ad.xavier_parameter(rng, hidden, 1, "disc.w3"),
            b3=ad.parameter(np.zeros(1), "disc.b3"),
            dropout_rate=dropout_rate,
        )

    def parameters(self) -> list[Tensor]:
        return [
            self.w1, self.b1, self.gamma1, self.beta1,
            self.w2, self.b2, self.gamma2, self.beta2,
            self.w3, self.b3,
        ]

    def as_constants(self) -> "DiscriminatorParams":
        """This critic with each weight a constant over the same buffer, for
        a loss that differentiates only the scored rows."""
        return replace(self, **{p.name.removeprefix("disc."): ad.constant(p.data) for p in self.parameters()})


def _critic(
    rows: Tensor,
    disc: DiscriminatorParams,
    train: bool,
    rng: np.random.Generator | None,
    factors: list | None = None,
) -> Tensor:
    """The critic's (n, 1) scores: two (affine, leaky-relu, batch-norm,
    dropout) blocks, then an affine map and a sigmoid.

    Given a ``factors`` list, the call also appends the factors whose
    product, right to left, is d(score)/d(row), so that ``gradient_norms``
    builds the gradient-penalty norm as an expression on the tape.  Plain
    first-order backward then gives the norm's parameter gradients, and no
    tape is taped.  The leaky-relu and dropout masks enter as constants:
    they are piecewise constant, so their derivative is zero almost
    everywhere.  The batch-norm statistics enter at their realized values
    with respect to the input, but stay tape nodes, so the parameter
    gradients still flow through them.  In train mode they are the taped
    batch mean and variance with scale exp(-0.5 log(var + eps)).
    """
    collect = factors is not None
    h = rows
    blocks = (
        (disc.w1, disc.b1, disc.gamma1, disc.beta1, disc.bn1),
        (disc.w2, disc.b2, disc.gamma2, disc.beta2, disc.bn2),
    )
    for w, b, gamma, beta, bn in blocks:
        h = ad.add(ad.matmul(h, w), b)
        if collect:
            slopes = np.where(h.data >= 0, 1.0, LEAKY_SLOPE)
            factors += [("affine", w), ("mask", ad.constant(slopes))]
        h = ad.leaky_relu(h, LEAKY_SLOPE)
        if collect:
            if train:
                centered = ad.sub(h, ad.mean(h, axis=0))
                var = ad.mean(ad.mul(centered, centered), axis=0)
                eps = ad.constant(np.full(var.shape, ad.BN_EPS))
                inv = ad.exp(ad.scale(ad.log(ad.add(var, eps)), -0.5))
            else:
                inv = ad.constant(1.0 / np.sqrt(bn.var + ad.BN_EPS))
            factors.append(("mask", ad.mul(gamma, inv)))
        h = ad.batch_norm(h, gamma, beta, bn, train)
        if train and disc.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout needs a random generator")
            rate = disc.dropout_rate
            mask = ad.constant((rng.random(h.shape) >= rate) / (1.0 - rate))
            h = ad.mul(h, mask)
            if collect:
                factors.append(("mask", mask))
    s = ad.sigmoid(ad.add(ad.matmul(h, disc.w3), disc.b3))
    if collect:
        slope = ad.mul(s, ad.sub(ad.constant(np.ones(s.shape)), s))
        factors += [("affine", disc.w3), ("mask", slope)]
    return s


def gradient_norms(factors: list, num_rows: int) -> Tensor:
    """Per-row L2 norm of d(score)/d(row), from ``_critic``'s factors: an
    ``("affine", w)`` factor multiplies by w transposed, a ``("mask", m)``
    factor elementwise by m."""
    v = ad.constant(np.ones((num_rows, 1)))
    for kind, factor in reversed(factors):
        v = ad.matmul(v, ad.transpose(factor)) if kind == "affine" else ad.mul(v, factor)
    return ad.sqrt(ad.row_sq_norms(v))


def discriminate(
    rows,
    disc: DiscriminatorParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Score a batch of relation rows, one value in (0, 1) per row.  It
    collects no penalty factor, so every record on a step's tape reaches
    its loss."""
    rows = rows if isinstance(rows, Tensor) else ad.constant(rows)
    if rows.ndim != 2:
        raise ValueError("discriminate expects a 2-D batch of rows")
    return ad.reshape(_critic(rows, disc, train, rng), (rows.shape[0],))


def interpolate_rows(
    real: np.ndarray, fake: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-row convex mix of real and fake samples for the gradient penalty."""
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise ValueError(f"shape mismatch: real {real.shape} vs fake {fake.shape}")
    eps = rng.random((real.shape[0], 1))
    mix = eps * real  # one (batch, I) temporary: the same products and sum
    mix += (1.0 - eps) * fake
    return mix


# --------------------------------------------------------------------------
# Adversarial losses
# --------------------------------------------------------------------------


def loss_g(fake_scores_per_modality: list[Tensor]) -> Tensor:
    """Generator loss: -E[D(generated rows)], summed over modalities."""
    total = None
    for scores in fake_scores_per_modality:
        term = ad.scale(ad.mean(scores), -1.0)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ValueError("loss_g needs at least one modality batch")
    return total


def loss_d(
    real: np.ndarray,
    fake: np.ndarray,
    gp_rows: np.ndarray,
    disc: DiscriminatorParams,
    lam1: float,
    negate_critic: bool,
    train: bool = True,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Critic loss: E[D(real)] - E[D(fake)] plus the unit-norm penalty.

    The critic scores the real rows, then the fake rows, then the penalty's
    interpolated rows, all in the given mode with draws from ``rng``.  The
    penalty differentiates each interpolated row through the critic and
    pushes the gradient norm toward one.  ``negate_critic`` flips the sign
    of the score difference for the conventional critic direction while
    keeping the penalty positive.
    """
    real_scores = discriminate(real, disc, train, rng)
    fake_scores = discriminate(fake, disc, train, rng)
    diff = ad.sub(ad.mean(real_scores), ad.mean(fake_scores))
    if negate_critic:
        diff = ad.scale(diff, -1.0)
    factors: list = []
    _critic(ad.constant(gp_rows), disc, train, rng, factors)
    norms = gradient_norms(factors, len(gp_rows))
    off = ad.sub(norms, ad.constant(np.ones(norms.shape)))
    penalty = ad.mean(ad.mul(off, off))
    return ad.add(diff, ad.scale(penalty, lam1))

"""Training objectives: ranking loss, contrastive alignment, multi-task sum.

All losses are scalar tape expressions; each has an independent oracle in
the test suite (finite differences for gradients, closed forms for values).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "fuse_final",
    "predict",
    "bpr_loss",
    "infonce_loss",
    "hard_negative_profile",
    "negative_gradient_norms",
    "l2_penalty",
    "total_loss",
]


def fuse_final(
    propagated: Tensor,
    modality_priors: list[Tensor],
    omega: float,
) -> Tensor:
    """Final embeddings: propagated id embeddings plus row-normalized
    modality priors scaled by omega.  Zero-norm prior rows contribute
    nothing rather than dividing by zero.  One tape segment."""

    def fuse():
        out = propagated
        for prior in modality_priors:
            out = ad.add(out, ad.scale(ad.l2_normalize_rows(prior), omega))
        return out

    return ad.segment("fuse_final", fuse)


def predict(h_users: Tensor, h_items: Tensor) -> Tensor:
    """Preference scores for every user-item pair."""
    return ad.matmul(h_users, ad.transpose(h_items))


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Pairwise ranking loss: mean of -log sigmoid(pos - neg).

    Written as softplus(neg - pos) so a badly ranked pair cannot underflow
    the sigmoid to an exact zero.
    """
    if pos_scores.shape != neg_scores.shape:
        raise ValueError(
            f"score shape mismatch: {pos_scores.shape} vs {neg_scores.shape}"
        )
    return ad.mean(ad.softplus(ad.sub(neg_scores, pos_scores)))


def infonce_loss(
    h_users: Tensor,
    modality_views: list[Tensor],
    tau: float,
    paper_sign: bool,
) -> Tensor:
    """Cross-view contrastive loss between final user embeddings and each
    modality view.

    For user u and modality m the positive is s(h_u, e_u^m) and the
    denominator sums exp s(h_u', e_u^m) and exp s(e_u'^m, e_u^m) over all
    users u', with s the temperature-scaled cosine.  The mean of
    -log(ratio) over users and modalities is returned; ``paper_sign``
    flips to the raw +log form.

    Each view's terms are one ``ad.infonce_terms`` record.  Only the last
    view's holds its exponentials, because its vjp runs first in backward.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if not modality_views:
        raise ValueError("contrastive loss needs at least one modality view")
    q_h = ad.l2_normalize_rows(h_users)
    total = None
    last = len(modality_views) - 1
    for m, view in enumerate(modality_views):
        term = ad.mean(_infonce_terms(q_h, view, tau, hold=m == last))
        total = term if total is None else ad.add(total, term)
    loss = ad.scale(total, 1.0 / len(modality_views))
    if paper_sign:
        loss = ad.scale(loss, -1.0)
    return loss


def _infonce_terms(q_h: Tensor, view: Tensor, tau: float, hold: bool = True) -> Tensor:
    """Per-user terms -log(ratio) of one modality view, given the unit-norm
    final user embeddings ``q_h``; ``hold`` as in ``ad.infonce_terms``."""
    return ad.infonce_terms(q_h, ad.l2_normalize_rows(view), tau, hold=hold)


def hard_negative_profile(x, tau: float) -> np.ndarray:
    """Closed-form magnitude profile of a negative's pull on the anchor:
    sqrt(1 - x^2) * exp(x / tau) for cosine similarity x in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("cosine similarity outside [-1, 1]")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return np.sqrt(1.0 - x * x) * np.exp(x / tau)


def negative_gradient_norms(
    h_users: np.ndarray,
    view: np.ndarray,
    anchor: int,
    tau: float,
) -> np.ndarray:
    """Measured per-negative gradient norms of one contrastive term.

    Differentiates the anchor's entry of the per-user terms that
    ``infonce_loss`` averages with respect to every user embedding, and
    returns the gradient norm of each non-anchor row.  Pairs with
    ``hard_negative_profile`` as its measured counterpart.
    """
    h = ad.parameter(np.asarray(h_users, dtype=np.float64), "profile.h")
    v = ad.constant(np.asarray(view, dtype=np.float64))
    with ad.Tape() as tape:
        terms = _infonce_terms(ad.l2_normalize_rows(h), v, tau)
        term = ad.gather_rows(terms, [anchor])
    grads = tape.backward(term, params=[h])
    norms = np.linalg.norm(grads.get(h), axis=1)
    return np.delete(norms, anchor)


def l2_penalty(params: list[Tensor]) -> Tensor:
    """Sum of squared entries over the given parameters."""
    total = None
    for p in params:
        term = ad.reduce_sum(ad.mul(p, p))
        total = term if total is None else ad.add(total, term)
    if total is None:
        return ad.constant(0.0)
    return total


def total_loss(
    bpr: Tensor,
    contrastive: Tensor | None,
    generator: Tensor | None,
    params: list[Tensor],
    lam2: float,
    lam3: float,
    lam4: float,
) -> Tensor:
    """Multi-task objective: BPR + lam2*CL + lam3*G + lam4*||params||^2.

    Disabled terms are passed as None and contribute exactly nothing, so
    the fully ablated objective is literally BPR plus the L2 term.
    """
    loss = bpr
    if contrastive is not None and lam2 != 0.0:
        loss = ad.add(loss, ad.scale(contrastive, lam2))
    if generator is not None and lam3 != 0.0:
        loss = ad.add(loss, ad.scale(generator, lam3))
    if lam4 != 0.0:
        loss = ad.add(loss, ad.scale(l2_penalty(params), lam4))
    return loss

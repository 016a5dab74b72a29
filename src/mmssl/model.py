"""Model state and the end-to-end differentiable forward pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adversarial, autodiff as ad, encoder as enc, objectives as obj
from .adversarial import DiscriminatorParams, GeneratorParams
from .autodiff import Tensor
from .data import ModalityFeatureTable, NormalizedAdjacency, TripletBatch
from .encoder import AttentionParams, EncoderConfig, IdEmbeddings, SemanticNeighborhood

__all__ = [
    "ModelState",
    "ForwardResult",
    "SemanticChain",
    "init_model",
    "semantic_embeddings",
    "forward_embeddings",
    "generator_losses",
    "refresh_neighborhoods",
]


@dataclass
class ModelState:
    """Every trainable tensor, split between the two optimizers."""

    gen: GeneratorParams
    ids: IdEmbeddings
    attn: AttentionParams
    disc: DiscriminatorParams

    def generator_parameters(self) -> list[Tensor]:
        """Everything the generator-side step trains (id tables included)."""
        return self.gen.parameters() + self.ids.parameters() + self.attn.parameters()

    def discriminator_parameters(self) -> list[Tensor]:
        return self.disc.parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for p in self.generator_parameters() + self.discriminator_parameters():
            if p.name in out:
                raise ValueError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out


def init_model(
    num_users: int,
    num_items: int,
    modality_dims: list[int],
    embed_dim: int,
    heads: int,
    disc_hidden: int,
    rng: np.random.Generator,
    gen_dropout: float,
    disc_dropout: float,
) -> ModelState:
    return ModelState(
        gen=GeneratorParams.create(modality_dims, embed_dim, rng, gen_dropout),
        ids=IdEmbeddings.create(num_users, num_items, embed_dim, rng),
        attn=AttentionParams.create(embed_dim, heads, rng),
        disc=DiscriminatorParams.create(num_items, disc_hidden, rng, dropout_rate=disc_dropout),
    )


@dataclass
class ForwardResult:
    h_users: Tensor
    h_items: Tensor
    prior_users: list[Tensor]  # modality collaborative embeddings, user side
    prior_items: list[Tensor]
    views_users: list[Tensor]  # semantic-neighbor modality views, user side


@dataclass
class SemanticChain:
    """Propagated embeddings and the user-side modality views InfoNCE reads."""

    prop_users: Tensor
    prop_items: Tensor
    views_users: list[Tensor]


def semantic_embeddings(
    state: ModelState,
    adj: NormalizedAdjacency,
    neighborhoods: list[SemanticNeighborhood] | None,
    cfg: EncoderConfig,
) -> SemanticChain:
    """Semantic-neighbor views, cross-modal attention, modality fusion and
    high-order propagation.

    No stage has a train mode or draws random numbers, so one chain serves
    every forward pass under the same id tables, attention weights and
    neighborhoods.
    """
    if neighborhoods is None:
        raise ValueError(
            "no semantic neighborhoods yet: set trainer.neighborhoods via "
            "model.refresh_neighborhoods (as Trainer.run does)"
        )
    views_u, views_i = [], []
    for neigh in neighborhoods:
        e_u, e_i = enc.modality_view(neigh, state.ids)
        views_u.append(e_u)
        views_i.append(e_i)
    summary_u = enc.modality_summary(views_u, state.attn)
    summary_i = enc.modality_summary(views_i, state.attn)
    prop_u, prop_i = enc.propagate_high_order(
        adj, state.ids.users, state.ids.items, summary_u, summary_i, cfg.layers, cfg.eta
    )
    return SemanticChain(prop_u, prop_i, views_u)


def forward_embeddings(
    state: ModelState,
    adj: NormalizedAdjacency,
    features: list[ModalityFeatureTable],
    semantic: SemanticChain,
    omega: float,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Final embeddings: the ``semantic`` chain (``semantic_embeddings`` of
    the same state) fused with each modality's collaborative prior, which
    is computed here from the raw features as differentiable tape
    operations.
    """
    prior_u, prior_i = [], []
    for m, table in enumerate(features):
        f_u, f_i = adversarial.modality_collab_embeddings(
            adj, table.as_float64(), state.gen, m, train=train, rng=rng
        )
        prior_u.append(f_u)
        prior_i.append(f_i)
    return ForwardResult(
        h_users=obj.fuse_final(semantic.prop_users, prior_u, omega),
        h_items=obj.fuse_final(semantic.prop_items, prior_i, omega),
        prior_users=prior_u,
        prior_items=prior_i,
        views_users=semantic.views_users,
    )


def generator_losses(
    fwd: ForwardResult,
    disc: DiscriminatorParams,
    triplets: TripletBatch,
    adv_users: np.ndarray | None,
    tau: float,
    paper_sign: bool,
    contrastive: bool,
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """BPR, cross-modal InfoNCE and generator-adversarial losses of one
    forward pass.  InfoNCE is None unless ``contrastive``; the adversarial
    term is None without ``adv_users``, whose relation rows the critic
    scores in each modality."""

    def scores(items):
        users = ad.gather_rows(fwd.h_users, triplets.users)
        return ad.reduce_sum(ad.mul(users, ad.gather_rows(fwd.h_items, items)), axis=1)

    l_bpr = obj.bpr_loss(scores(triplets.pos_items), scores(triplets.neg_items))
    l_cl = None
    if contrastive:
        l_cl = obj.infonce_loss(fwd.h_users, fwd.views_users, tau=tau, paper_sign=paper_sign)
    l_g = None
    if adv_users is not None:
        # the step differentiates the rows alone, so the critic's weights
        # enter as constants and its first product keeps no row
        # (autodiff.matmul); the segment keeps only the scores, so each
        # modality's (batch, I) rows are freed once they are scored
        critic = disc.as_constants()

        def relation_scores(f_u, f_i):
            rows = adversarial.user_relation_rows(f_u, f_i, adv_users)
            return adversarial.discriminate(rows, critic, train=False)

        l_g = adversarial.loss_g(
            [
                ad.segment("relation_scores", relation_scores, f_u, f_i)
                for f_u, f_i in zip(fwd.prior_users, fwd.prior_items)
            ]
        )
    return l_bpr, l_cl, l_g


# bytes of float64 relation rows one refresh block holds
REFRESH_BLOCK_BYTES = 32 << 20


def refresh_neighborhoods(
    state: ModelState,
    adj: NormalizedAdjacency,
    features: list[ModalityFeatureTable],
    top_k: int,
    previous: list[SemanticNeighborhood] | None = None,
) -> list[SemanticNeighborhood]:
    """Recompute per-modality relations (eval mode, no tape) and read off
    fresh top-k semantic neighbors with ``enc.neighbors_from_row_blocks``.

    A block is at most ``REFRESH_BLOCK_BYTES`` of user rows: their unit rows
    times the transposed unit item table, the numpy operations of
    ``adversarial.relation_rows``.  ``previous``, an earlier top-k
    neighbourhood of each modality, only bounds the scan, through each
    user's previous items and ``_item_floor``.
    """
    neighborhoods = []
    for m, table in enumerate(features):
        f_u, f_i = adversarial.modality_collab_embeddings(
            adj, table.as_float64(), state.gen, m, train=False
        )
        qu = ad.l2_normalize_rows(f_u).data
        qi = ad.l2_normalize_rows(f_i).data
        kt = np.ascontiguousarray(qi.T)
        del f_u, f_i  # the priors are not read again; qi only by the floor
        step = max(1, REFRESH_BLOCK_BYTES // (8 * kt.shape[1]))
        blocks = (qu[start : start + step] @ kt for start in range(0, qu.shape[0], step))
        if previous is None:
            del qi
            neighborhoods.append(enc.neighbors_from_row_blocks(blocks, top_k))
            continue
        users, items = previous[m].user_neighbors, previous[m].item_neighbors
        if users.shape != (len(qu), min(top_k, len(qi))) or items.shape != (len(qi), min(top_k, len(qu))):
            raise ValueError(f"previous neighbourhood {m} is not a top-{top_k} neighbourhood of this graph")
        floor = _item_floor(qu, qi, items)
        del qi
        neighborhoods.append(enc.neighbors_from_row_blocks(blocks, top_k, users, floor))
    return neighborhoods


def _item_floor(qu: np.ndarray, qi: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Below each item's relations to its ``users``, as any block of
    ``qu @ qi.T`` computes them, and so below its k-th relation.

    The relations are recomputed as dot products, one chunk of items at a
    time so that the gathered (chunk, k, d) user rows stay within a refresh
    block.  A length-d dot product of unit rows is off by at most about
    d * 2**-53 in any summation order, so a block entry and its recomputed
    value differ by at most twice that; the floor lies twice as far below.
    """
    d = qu.shape[1]
    slack = 2 * d * np.finfo(np.float64).eps
    chunk = max(1, REFRESH_BLOCK_BYTES // (8 * d * max(1, users.shape[1])))
    floor = np.empty(len(qi))
    for start in range(0, len(qi), chunk):
        rel = np.einsum("ikd,id->ik", qu[users[start : start + chunk]], qi[start : start + chunk])
        floor[start : start + chunk] = rel.min(axis=1) - slack
    return floor

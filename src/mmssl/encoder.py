"""Cross-modal contrastive encoder.

From each generated relation matrix we read off the top-k semantic
neighbors and aggregate id embeddings over them into per-modality views.
Multi-head attention mixes the views across modalities, the mixed views are
mean-pooled and injected into the zero-order embeddings, and alternating
bipartite propagation spreads them over the interaction graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .data import NormalizedAdjacency

__all__ = [
    "IdEmbeddings",
    "AttentionParams",
    "EncoderConfig",
    "SemanticNeighborhood",
    "derive_semantic_neighbors",
    "neighbors_from_row_blocks",
    "modality_view",
    "cross_modal_attention",
    "fuse_modalities",
    "propagate_high_order",
]


@dataclass
class IdEmbeddings:
    users: Tensor  # (U, d)
    items: Tensor  # (I, d)

    @classmethod
    def create(cls, num_users: int, num_items: int, dim: int, rng: np.random.Generator):
        def xavier(rows, cols, name):
            bound = np.sqrt(6.0 / (rows + cols))
            return ad.parameter(rng.uniform(-bound, bound, size=(rows, cols)), name)

        return cls(users=xavier(num_users, dim, "id.users"), items=xavier(num_items, dim, "id.items"))

    def parameters(self) -> list[Tensor]:
        return [self.users, self.items]


@dataclass
class AttentionParams:
    """Per-head query/key maps, shared between the user and item sides."""

    query: list[Tensor]  # [h]: (d, d/H)
    key: list[Tensor]  # [h]: (d, d/H)

    @classmethod
    def create(cls, dim: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        if dim % heads != 0:
            raise ValueError(f"embedding dim {dim} not divisible by {heads} heads")
        dh = dim // heads
        bound = np.sqrt(6.0 / (dim + dh))

        def xavier(name):
            return ad.parameter(rng.uniform(-bound, bound, size=(dim, dh)), name)

        return cls(
            query=[xavier(f"attn.q{h}") for h in range(heads)],
            key=[xavier(f"attn.k{h}") for h in range(heads)],
        )

    @property
    def heads(self) -> int:
        return len(self.query)

    def parameters(self) -> list[Tensor]:
        return list(self.query) + list(self.key)


@dataclass
class EncoderConfig:
    top_k: int = 10
    heads: int = 2
    layers: int = 2
    eta: float = 0.5
    refresh_every: int = 1  # epochs between semantic-neighbor refreshes


# --------------------------------------------------------------------------
# Semantic neighborhoods
# --------------------------------------------------------------------------


@dataclass
class SemanticNeighborhood:
    """Top-k ids per row of one relation matrix, both directions."""

    user_neighbors: np.ndarray  # (U, k_u) item ids
    item_neighbors: np.ndarray  # (I, k_i) user ids

    def user_select(self, num_items: int) -> sp.csr_matrix:
        return _selection_matrix(self.user_neighbors, num_items)

    def item_select(self, num_users: int) -> sp.csr_matrix:
        return _selection_matrix(self.item_neighbors, num_users)


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, largest first; ties go to
    the lower id.

    The order is that of a stable sort on the negated scores, found without
    sorting whole rows: ``np.partition`` gives each row's k-th largest
    value, every entry above it is kept, entries equal to it are admitted
    lowest id first until k are kept, and only the k winners are sorted.
    """
    rows, width = scores.shape
    k = min(k, width)
    if k == 0:
        return np.empty((rows, 0), dtype=np.intp)
    kth = np.partition(scores, width - k, axis=1)[:, width - k, None]
    keep = scores >= kth
    crowded = np.flatnonzero(keep.sum(axis=1) > k)
    if crowded.size:  # more than k entries reach the k-th value: a tie crosses the cut
        sub, cut = scores[crowded], kth[crowded]
        above = sub > cut
        ties = sub == cut
        spare = k - above.sum(axis=1, keepdims=True)
        keep[crowded] = above | (ties & (np.cumsum(ties, axis=1) <= spare))
    winners = np.nonzero(keep)[1].reshape(rows, k)
    order = np.argsort(-np.take_along_axis(scores, winners, axis=1), axis=1, kind="stable")
    return np.take_along_axis(winners, order, axis=1)


def neighbors_from_row_blocks(blocks: Iterable[np.ndarray], k: int) -> SemanticNeighborhood:
    """Top-k neighbours of a relation matrix given as consecutive row blocks.

    Only one block and an (I, k) candidate set are alive at a time.  Users
    take their top-k inside their own block.  Each item keeps its best k
    (score, user) pairs so far and merges the block's column top-k behind
    them; every earlier user id is lower, so among equal scores position
    order is id order and the result equals the top-k of the whole matrix.
    """
    if k <= 0:
        raise ValueError(f"top-k must be positive, got {k}")
    user_parts = []
    cand_scores = cand_users = None
    seen = 0
    for block in blocks:
        block = np.asarray(block)
        user_parts.append(_top_k_rows(block, k))
        columns = np.ascontiguousarray(block.T)
        best = _top_k_rows(columns, k)
        if cand_scores is None:
            cand_scores = np.empty((columns.shape[0], 0))
            cand_users = np.empty((columns.shape[0], 0), dtype=np.intp)
        scores = np.concatenate([cand_scores, np.take_along_axis(columns, best, axis=1)], axis=1)
        users = np.concatenate([cand_users, best + seen], axis=1)
        keep = _top_k_rows(scores, k)
        cand_scores = np.take_along_axis(scores, keep, axis=1)
        cand_users = np.take_along_axis(users, keep, axis=1)
        seen += block.shape[0]
    if cand_users is None:
        raise ValueError("no relation rows to read neighbours from")
    return SemanticNeighborhood(
        user_neighbors=np.concatenate(user_parts, axis=0),
        item_neighbors=cand_users,
    )


def derive_semantic_neighbors(relations: np.ndarray, k: int) -> SemanticNeighborhood:
    """Top-k neighbours of a dense relation matrix: the one-block case."""
    return neighbors_from_row_blocks([relations], k)


def _selection_matrix(neighbors: np.ndarray, width: int) -> sp.csr_matrix:
    rows_n, k = neighbors.shape
    w = 1.0 / np.sqrt(k)
    indptr = np.arange(0, rows_n * k + 1, k)
    order = np.argsort(neighbors, axis=1, kind="stable")
    indices = np.take_along_axis(neighbors, order, axis=1).ravel()
    data = np.full(rows_n * k, w)
    return sp.csr_matrix((data, indices, indptr), shape=(rows_n, width))


def modality_view(
    neigh: SemanticNeighborhood, ids: IdEmbeddings
) -> tuple[Tensor, Tensor]:
    """Aggregate id embeddings over semantic neighbors, 1/sqrt(k) weighted.

    A user's view sums the id embeddings of its top-k semantically related
    items (and symmetrically for items), so the gradient flows into the id
    tables while the neighbor choice itself stays fixed.
    """
    num_users, num_items = ids.users.shape[0], ids.items.shape[0]
    e_user = ad.sparse_matmul(neigh.user_select(num_items), ids.items)
    e_item = ad.sparse_matmul(neigh.item_select(num_users), ids.users)
    return e_user, e_item


# --------------------------------------------------------------------------
# Cross-modal attention
# --------------------------------------------------------------------------


def cross_modal_attention(views: list[Tensor], attn: AttentionParams) -> list[Tensor]:
    """Blend each modality view with the others via per-head scalar attention.

    For every node and head, the query comes from the target modality and
    the keys from all modalities; softmax weights combine the *unprojected*
    head-slices of the views, and head outputs are concatenated.  With a
    single modality this is exactly the identity.
    """
    if not views:
        raise ValueError("attention needs at least one modality view")
    n, d = views[0].shape
    heads = attn.heads
    dh = d // heads
    num_m = len(views)
    out: list[Tensor] = []
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


def fuse_modalities(mixed_views: list[Tensor]) -> Tensor:
    """Mean over modalities."""
    total = None
    for v in mixed_views:
        total = v if total is None else ad.add(total, v)
    return ad.scale(total, 1.0 / len(mixed_views))


# --------------------------------------------------------------------------
# High-order propagation
# --------------------------------------------------------------------------


def propagate_high_order(
    adj: NormalizedAdjacency,
    id_users: Tensor,
    id_items: Tensor,
    summary_users: Tensor,
    summary_items: Tensor,
    layers: int,
    eta: float,
) -> tuple[Tensor, Tensor]:
    """Alternating bipartite propagation from modality-injected embeddings.

    Zero-order embeddings add the fused modality summary scaled by eta and
    divided by its per-row squared norm (zero rows contribute nothing).
    Each further layer maps the opposite side through the normalized
    adjacency, and the output averages all layers 0..L inclusive.
    """
    e0_u = ad.add(id_users, ad.scale(ad.divide_rows_by_sq_norm(summary_users), eta))
    e0_i = ad.add(id_items, ad.scale(ad.divide_rows_by_sq_norm(summary_items), eta))
    layers_u, layers_i = [e0_u], [e0_i]
    for _ in range(layers):
        # both sides advance from layer l together, the block form of the
        # joint recursion over the stacked bipartite adjacency
        prev_u, prev_i = layers_u[-1], layers_i[-1]
        layers_u.append(ad.sparse_matmul(adj.user_from_item, prev_i))
        layers_i.append(ad.sparse_matmul(adj.item_from_user, prev_u))
    inv = 1.0 / (layers + 1)
    total_u, total_i = layers_u[0], layers_i[0]
    for lu, li in zip(layers_u[1:], layers_i[1:]):
        total_u = ad.add(total_u, lu)
        total_i = ad.add(total_i, li)
    return ad.scale(total_u, inv), ad.scale(total_i, inv)

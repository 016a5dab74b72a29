"""Cross-modal contrastive encoder.

Each modality's top-k semantic neighbours are read off its relations, which
the refresh streams in row blocks of at most ``model.REFRESH_BLOCK_BYTES``,
and id embeddings are aggregated over them into per-modality views.
Multi-head attention mixes the views across modalities, the mixed views are
mean-pooled and injected into the zero-order embeddings, and alternating
bipartite propagation spreads them over the interaction graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "top_k_rows",
    "modality_view",
    "cross_modal_attention",
    "fuse_modalities",
    "modality_summary",
    "propagate_high_order",
]


@dataclass
class IdEmbeddings:
    users: Tensor  # (U, d)
    items: Tensor  # (I, d)

    @classmethod
    def create(cls, num_users: int, num_items: int, dim: int, rng: np.random.Generator):
        return cls(
            users=ad.xavier_parameter(rng, num_users, dim, "id.users"),
            items=ad.xavier_parameter(rng, num_items, dim, "id.items"),
        )

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
        return cls(
            query=[ad.xavier_parameter(rng, dim, dh, f"attn.q{h}") for h in range(heads)],
            key=[ad.xavier_parameter(rng, dim, dh, f"attn.k{h}") for h in range(heads)],
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
    """Top-k ids per row of one relation matrix, both directions.

    The ids never change after construction, so each selection matrix is
    built on first use and kept."""

    user_neighbors: np.ndarray  # (U, k_u) item ids
    item_neighbors: np.ndarray  # (I, k_i) user ids

    @cached_property
    def user_select(self) -> sp.csr_matrix:
        """(U, I) weights of each user's neighbour items."""
        return _selection_matrix(self.user_neighbors, self.item_neighbors.shape[0])

    @cached_property
    def item_select(self) -> sp.csr_matrix:
        """(I, U) weights of each item's neighbour users."""
        return _selection_matrix(self.item_neighbors, self.user_neighbors.shape[0])


# A row at least this wide is pruned before its exact top-k: the maxima of
# GROUPS interleaved column groups bound its k-th value from below, and only
# entries reaching that bound are ranked.  A row keeping more than
# MAX_CANDIDATES of them (ties, an all-zero column, -inf masks) is ranked whole.
GROUPS = 64
MAX_CANDIDATES = 64


def top_k_rows(scores: np.ndarray, k: int, bound: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k largest entries per row, largest first; ties go to
    the lower id.

    The order is that of a stable sort on the negated scores.  Only entries
    at or above a lower bound on each row's k-th value are ranked: every
    winner, and every entry tied with the last winner, reaches it, so ranking
    just those, in ascending column order, gives the same ids as ranking the
    whole row.  ``bound`` is such a bound, one per row, for instance the
    smallest of k distinct entries of the row.  Without it, a row of at least
    ``2 * GROUPS`` entries, with k at most ``GROUPS // 2``, takes the k-th
    largest of its group maxima, which are entries of distinct columns, and
    other rows are ranked whole.  ``scores`` may be a strided view, such as a
    transposed block: the pruning reads it in place.
    """
    if k < 1:
        raise ValueError(f"top-k must be positive, got {k}")
    rows, width = scores.shape
    k = min(k, width)
    top = None
    if bound is None:
        if width < 2 * GROUPS or k > GROUPS // 2:
            return _exact_top_k(scores, k)
        gmax = _group_maxima(scores)
        bound = np.partition(gmax, GROUPS - k, axis=1)[:, GROUPS - k]
        top = gmax.max(axis=1)
    # not below the bound: a NaN is a candidate too, and sends its row whole
    below = scores < bound[:, None]
    hits = np.flatnonzero(np.logical_not(below, out=below))  # row-major positions, in any layout
    starts = np.searchsorted(hits, np.arange(rows + 1) * width)
    counts = np.diff(starts)
    out = np.empty((rows, k), dtype=np.intp)
    crowded = counts > MAX_CANDIDATES
    if top is None:  # the row maxima, needed only where many entries reach the bound
        top = np.full(rows, np.nan)
        top[crowded] = scores[crowded].max(axis=1)
    # a bound at the row's maximum admits only entries equal to it: the first k win
    tied = crowded & (top == bound)
    out[tied] = hits[starts[:-1][tied, None] + np.arange(k)] % width
    pruned = np.flatnonzero(~crowded)
    owner = np.repeat(np.arange(rows), counts)
    keep = ~crowded[owner]
    owner, column = owner[keep], hits[keep] % width
    counts = counts[pruned]
    # each pruned row's candidates, columns ascending, then -inf pads: a pad
    # never outranks a candidate, which is no smaller and comes first
    slot = np.arange(column.size) - np.repeat(np.cumsum(counts) - counts, counts)
    row = np.repeat(np.arange(counts.size), counts)
    values = np.full((counts.size, counts.max(initial=k)), -np.inf)
    columns = np.zeros(values.shape, dtype=np.intp)
    values[row, slot] = scores[owner, column]
    columns[row, slot] = column
    nan = np.isnan(values).any(axis=1)
    whole = crowded & ~tied
    whole[pruned[nan]] = True
    out[whole] = _exact_top_k(scores[whole], k)
    if nan.any():
        pruned, values, columns = pruned[~nan], values[~nan], columns[~nan]
    out[pruned] = np.take_along_axis(columns, _exact_top_k(values, k), axis=1)
    return out


def _group_maxima(scores: np.ndarray) -> np.ndarray:
    """(rows, GROUPS) maxima of the column groups ``j, j + GROUPS, ...``,
    read through a strided view: slicing and reshaping would copy the rows.
    On a transposed block this is the maxima of interleaved row groups."""
    rows, width = scores.shape
    span = width // GROUPS * GROUPS
    row_stride, col_stride = scores.strides
    view = np.lib.stride_tricks.as_strided(
        scores, (rows, width // GROUPS, GROUPS), (row_stride, GROUPS * col_stride, col_stride)
    )
    gmax = view.max(axis=1)
    np.maximum(gmax[:, : width - span], scores[:, span:], out=gmax[:, : width - span])
    return gmax


def _exact_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``top_k_rows`` for 0 < k <= width, without pruning.

    One ``np.partition`` at ``width - k - 1`` puts each row's k largest
    values behind the cut, the smallest of them is the k-th value, every
    entry above it is kept, entries equal to it are admitted lowest id first
    until k are kept, and only the k winners are sorted.
    """
    rows, width = scores.shape
    cut = width - k
    if cut == 0:
        winners = np.broadcast_to(np.arange(width), (rows, width))
    else:
        part = np.partition(scores, cut - 1, axis=1)
        kth = part[:, cut:].min(axis=1, keepdims=True)
        keep = scores >= kth
        # more than k entries reach the k-th value exactly when one is left of the cut
        crowded = np.flatnonzero(part[:, cut - 1] == kth[:, 0])
        if crowded.size:
            sub, value = scores[crowded], kth[crowded]
            above = sub > value
            ties = sub == value
            spare = k - above.sum(axis=1, keepdims=True)
            keep[crowded] = above | (ties & (np.cumsum(ties, axis=1) <= spare))
        winners = np.flatnonzero(keep).reshape(rows, k) - (np.arange(rows) * width)[:, None]
    order = np.argsort(-np.take_along_axis(scores, winners, axis=1), axis=1, kind="stable")
    return np.take_along_axis(winners, order, axis=1)


def neighbors_from_row_blocks(
    blocks: Iterable[np.ndarray],
    k: int,
    previous_users: np.ndarray | None = None,
    item_floor: np.ndarray | None = None,
) -> SemanticNeighborhood:
    """Top-k neighbours of a relation matrix given as consecutive row blocks.

    Only one block and an (I, k) candidate set are alive at a time.  Users
    take their top-k inside their own block.  Each item keeps its best k
    (score, user) pairs so far, largest first, and merges a block's entries
    behind them.  Every earlier user id is lower, so among equal scores
    position order is id order and the result equals the top-k of the whole
    matrix.  Once an item holds k candidates, only entries strictly above
    its k-th score can enter: they are read with one comparison and grouped
    by item, users ascending, so such blocks are never transposed.

    An earlier neighbourhood only bounds the scan; the ids are the same
    without it.  ``previous_users`` holds k distinct item ids per user, whose
    smallest entry bounds the user's k-th value from below.  ``item_floor``
    lies strictly below each item's k-th value, so from the first block on
    an item reads only entries above the larger of its floor and its k-th
    score so far.
    """
    if k <= 0:
        raise ValueError(f"top-k must be positive, got {k}")
    user_parts, item_neighbors = _scan_blocks(blocks, k, previous_users, item_floor)
    # The ids outlive the refresh.  Allocated only once every block and its
    # temporaries are released, they do not split the heap space those used,
    # so later arrays below the allocator's mmap threshold (such as the score
    # blocks of a validation pass) can reuse it instead of growing the heap.
    # Without the late copy, eval-M's median peak RSS rose from 225.8 to
    # 240.9 MB over 15 paired perfbench runs (2 cores, 32 MiB threshold).
    return SemanticNeighborhood(
        user_neighbors=np.concatenate(user_parts, axis=0),
        item_neighbors=item_neighbors.copy(),
    )


def _scan_blocks(
    blocks: Iterable[np.ndarray],
    k: int,
    previous_users: np.ndarray | None,
    item_floor: np.ndarray | None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each block's user top-k, and each item's best k users over all blocks.

    A user's bound is the smallest of its block entries at its previous
    items, or else the group maxima of ``top_k_rows``.  An item's threshold is
    the larger of its floor and its k-th score so far; without a floor, the
    first blocks rank their columns whole until each item holds k users.
    """
    user_parts = []
    cand_scores = cand_users = None
    seen = 0
    for block in blocks:
        block = np.asarray(block)
        rows = block.shape[0]
        bound = None
        if previous_users is not None:
            mine = previous_users[seen : seen + rows]
            bound = np.take_along_axis(block, mine, axis=1).min(axis=1)
        user_parts.append(top_k_rows(block, k, bound))
        if cand_scores is None:
            cand_scores = np.empty((block.shape[1], 0))
            cand_users = np.empty((block.shape[1], 0), dtype=np.intp)
        if item_floor is None and cand_scores.shape[1] < k:
            best = top_k_rows(block.T, k)  # the columns, read in place
            new_scores, new_users = np.take_along_axis(block.T, best, axis=1), best + seen
        else:
            kth = cand_scores[:, -1] if cand_scores.shape[1] == k else -np.inf
            threshold = kth if item_floor is None else np.maximum(kth, item_floor)
            new_scores, new_users = _entries_above(block, threshold, seen, k)
        if cand_scores.shape[1] < k:
            cand_scores, cand_users = _merge(cand_scores, cand_users, new_scores, new_users, k)
        elif new_scores.shape[1]:
            got = np.flatnonzero(new_scores[:, 0] > -np.inf)  # items an entry entered
            cand_scores[got], cand_users[got] = _merge(
                cand_scores[got], cand_users[got], new_scores[got], new_users[got], k
            )
        seen += rows
        del block  # else it stays alive while the generator makes the next one
    if cand_users is None:
        raise ValueError("no relation rows to read neighbours from")
    return user_parts, cand_users


def _merge(scores, users, new_scores, new_users, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The best k of each row's candidates followed by its later entries.

    The rows are at most k + MAX_CANDIDATES wide and hold no NaN, so one
    stable sort of the negated scores, the order ``top_k_rows`` gives,
    ranks them whole."""
    scores = np.concatenate([scores, new_scores], axis=1)
    users = np.concatenate([users, new_users], axis=1)
    keep = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(scores, keep, axis=1), np.take_along_axis(users, keep, axis=1)


def _entries_above(
    block: np.ndarray, threshold: np.ndarray, first_user: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each column's entries strictly above its threshold as one row of
    (score, user id) per column, padded with -inf.

    A column keeps its entries in user order, or, with more than
    MAX_CANDIDATES of them (such as an all-zero column under a floor below
    zero), its top k in the block: its first k users when all its entries
    are equal.  Either way equal scores come lowest user first."""
    rows, width = block.shape
    hits = np.flatnonzero(block > threshold)
    items = hits % width
    counts = np.bincount(items, minlength=width)
    crowded = np.flatnonzero(counts > MAX_CANDIDATES)
    if crowded.size:
        columns = block.T[crowded]
        best = np.tile(np.arange(min(k, rows)), (crowded.size, 1))
        varied = np.flatnonzero(columns.min(axis=1) != columns.max(axis=1))
        if varied.size:
            best[varied] = top_k_rows(columns[varied], k)
        kept = (counts <= MAX_CANDIDATES)[items]  # the crowded columns' hits leave
        hits = np.concatenate([hits[kept], (best * width + crowded[:, None]).ravel()])
        items = np.concatenate([items[kept], np.repeat(crowded, best.shape[1])])
        counts[crowded] = best.shape[1]
    # stable, and a radix sort when the item ids fit 16 bits
    by_item = np.argsort(items.astype(np.min_scalar_type(width)), kind="stable")
    hits, items = hits[by_item], items[by_item]
    slot = np.arange(hits.size) - (np.cumsum(counts) - counts)[items]
    scores = np.full((width, counts.max(initial=0)), -np.inf)
    users = np.zeros(scores.shape, dtype=np.intp)
    scores[items, slot] = block.ravel()[hits]
    users[items, slot] = hits // width + first_user
    return scores, users


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
    e_user = ad.sparse_matmul(neigh.user_select, ids.items)
    e_item = ad.sparse_matmul(neigh.item_select, ids.users)
    return e_user, e_item


# --------------------------------------------------------------------------
# Cross-modal attention
# --------------------------------------------------------------------------


def cross_modal_attention(views: list[Tensor], attn: AttentionParams) -> list[Tensor]:
    """Blend each modality view with the others via per-head scalar attention.

    For every node and head, the query comes from the target modality and
    the keys from all modalities; softmax weights combine the *unprojected*
    head-slices of the views, and head outputs are concatenated.  With a
    single modality this is exactly the identity.  The mixing is one tape
    record (``autodiff.head_attention``).
    """
    if not views:
        raise ValueError("attention needs at least one modality view")
    return ad.head_attention(views, attn.query, attn.key)


def fuse_modalities(mixed_views: list[Tensor]) -> Tensor:
    """Mean over modalities."""
    total = None
    for v in mixed_views:
        total = v if total is None else ad.add(total, v)
    return ad.scale(total, 1.0 / len(mixed_views))


def modality_summary(views: list[Tensor], attn: AttentionParams) -> Tensor:
    """The fused modality summary that propagation injects: cross-modal
    attention, then the mean over modalities, as one tape segment,
    ``'modality_summary'``.  Only the mean reads the mixed views, and its
    vjp needs none of them, so no record keeps them: once the mean is made
    they are freed, and a non-finite value made inside names the segment."""
    return ad.segment(
        "modality_summary", lambda: fuse_modalities(cross_modal_attention(views, attn))
    )


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
    adjacency, and the output averages all layers 0..L inclusive.  The
    whole is one tape segment, ``'propagate'``: backward keeps none of the
    layers.
    """

    def propagate():
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

    return ad.segment("propagate", propagate)

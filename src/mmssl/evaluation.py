"""All-rank top-K evaluation with sparsity-bucket breakdowns."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DEFAULT_BUCKET_BOUNDARIES, ScoreRows, sparsity_buckets
from .encoder import top_k_rows

__all__ = [
    "EvalConfig",
    "RankingReport",
    "rank_items",
    "recall_at_k",
    "precision_at_k",
    "ndcg_at_k",
    "evaluate_scores",
]

# Score rows ranked at a time: about 8 MiB of float64 rows per block.
BLOCK_BYTES = 8 << 20


@dataclass
class EvalConfig:
    k: int = 20
    buckets: tuple[int, ...] = DEFAULT_BUCKET_BOUNDARIES


def rank_items(scores: np.ndarray, exclude: np.ndarray | None = None) -> np.ndarray:
    """Item ids ordered by descending score over the full catalog.

    Excluded items (a user's training interactions) are pushed to the very
    end; equal scores break toward the lower item id.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if exclude is not None and len(exclude):
        scores = scores.copy()
        scores[exclude] = -np.inf
    ids = np.arange(scores.shape[0])
    return np.lexsort((ids, -scores))


def recall_at_k(top_k: np.ndarray, relevant: set, k: int) -> float:
    if not relevant:
        raise ValueError("recall undefined for an empty relevant set")
    hits = sum(1 for i in top_k[:k] if i in relevant)
    return hits / len(relevant)


def precision_at_k(top_k: np.ndarray, relevant: set, k: int) -> float:
    hits = sum(1 for i in top_k[:k] if i in relevant)
    return hits / k


def ndcg_at_k(top_k: np.ndarray, relevant: set, k: int) -> float:
    """Binary-relevance NDCG: DCG over the ranked list divided by the DCG
    of the ideal list (all relevant items first)."""
    if not relevant:
        raise ValueError("ndcg undefined for an empty relevant set")
    dcg = 0.0
    for rank, item in enumerate(top_k[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


@dataclass
class RankingReport:
    k: int
    num_users: int
    overall: dict[str, float]
    buckets: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "num_users": self.num_users,
                "overall": self.overall,
                "buckets": self.buckets,
            },
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def from_json(cls, doc: dict) -> "RankingReport":
        """The report ``to_json`` wrote; a field that is missing or not a
        number raises ``ValueError`` naming it."""
        buckets = doc.get("buckets", {})
        if not isinstance(buckets, dict):
            raise ValueError(f"buckets is not an object: {buckets!r}")
        try:  # to_json sorts the "[low,high)" labels as strings; restore the ranges' order
            order = sorted(buckets, key=lambda label: float(label[1 : label.index(",")]))
        except ValueError:
            raise ValueError(f"bucket labels must read [low,high): {sorted(buckets)}") from None
        buckets = {label: buckets[label] for label in order}
        metrics = ("recall", "precision", "ndcg")
        values = [("k", doc.get("k")), ("num_users", doc.get("num_users"))]
        rows = [("overall", doc.get("overall"), metrics)]
        rows += [(f"buckets.{label}", row, ("users", *metrics)) for label, row in buckets.items()]
        for where, row, keys in rows:
            if not isinstance(row, dict):
                raise ValueError(f"{where} is not an object: {row!r}")
            values += [(f"{where}.{key}", row.get(key)) for key in keys]
        for where, value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where} is not a number: {value!r}")
        return cls(k=doc["k"], num_users=doc["num_users"], overall=doc["overall"], buckets=buckets)

    def to_text(self) -> str:
        lines = [
            f"users evaluated: {self.num_users}   K={self.k}",
            f"recall@{self.k}    {self.overall['recall']:.5f}",
            f"precision@{self.k} {self.overall['precision']:.5f}",
            f"ndcg@{self.k}      {self.overall['ndcg']:.5f}",
        ]
        if self.buckets:
            lines.append("")
            lines.append(f"{'bucket':>10} {'users':>7} {'recall':>9} {'precision':>10} {'ndcg':>9}")
            for label, row in self.buckets.items():
                lines.append(
                    f"{label:>10} {int(row['users']):>7} {row['recall']:>9.5f} "
                    f"{row['precision']:>10.5f} {row['ndcg']:>9.5f}"
                )
        return "\n".join(lines)


def _fill(block: np.ndarray, item_lists, users: np.ndarray, value) -> None:
    """Set ``block[r, i] = value`` for every item ``i`` listed for ``users[r]``."""
    lists = [item_lists[u] for u in users]
    rows = np.repeat(np.arange(len(lists)), np.fromiter(map(len, lists), np.intp, len(lists)))
    block[rows, np.concatenate(lists)] = value


def _means(per_user: np.ndarray) -> dict[str, float]:
    """Macro averages of (recall, precision, ndcg) rows; zeros for no rows."""
    if not len(per_user):
        return {"recall": 0.0, "precision": 0.0, "ndcg": 0.0}
    return {
        "recall": float(per_user[:, 0].mean()),
        "precision": float(per_user[:, 1].mean()),
        "ndcg": float(per_user[:, 2].mean()),
    }


def evaluate_scores(
    scores: np.ndarray | ScoreRows,
    train_items: list[np.ndarray],
    relevant: list[np.ndarray],
    k: int,
    boundaries=DEFAULT_BUCKET_BOUNDARIES,
) -> RankingReport:
    """Rank every item for every user and aggregate top-K metrics.

    ``scores`` is a (U, I) array or a ``ScoreRows``.  Users whose relevant
    set is empty are skipped.  The others are ranked in blocks of about
    ``BLOCK_BYTES`` of score rows: training items are set
    to -inf and ``encoder.top_k_rows`` reads off the top K in exactly the
    order of ``rank_items`` (descending score, ties to the lower id), so
    every per-user value equals that of ``rank_items`` and the metric
    functions bit for bit.  Bucket rows group users by *training*
    interaction count; macro averages throughout.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    num_items = scores.shape[1]
    users = np.array([u for u in range(scores.shape[0]) if len(relevant[u])], dtype=np.intp)
    width = min(k, num_items)
    discount = np.array([1.0 / math.log2(r + 1) for r in range(1, width + 1)])
    hits = np.zeros(len(users), dtype=np.int64)
    num_relevant = np.zeros(len(users), dtype=np.int64)
    dcg = np.zeros(len(users))
    step = max(1, BLOCK_BYTES // (8 * max(num_items, 1)))
    for start in range(0, len(users), step):
        block = users[start : start + step]
        rows = np.asarray(scores[block], dtype=np.float64)
        _fill(rows, train_items, block, -np.inf)
        mask = np.zeros(rows.shape, dtype=bool)
        _fill(mask, relevant, block, True)
        found = np.take_along_axis(mask, top_k_rows(rows, k), axis=1)
        hits[start : start + step] = found.sum(axis=1)
        num_relevant[start : start + step] = mask.sum(axis=1)
        # a running sum left to right, as ndcg_at_k accumulates its DCG
        dcg[start : start + step] = np.cumsum(found * discount, axis=1)[:, -1]
    # the ideal DCG summed left to right over the same discounts, as ndcg_at_k does
    cut = np.minimum(num_relevant, k)
    ideal = np.array([sum(discount[:n].tolist()) for n in range(1, cut.max(initial=0) + 1)])
    per_user = np.column_stack([hits / num_relevant, hits / k, dcg / ideal[cut - 1]])
    degrees = np.array([len(train_items[u]) for u in users], dtype=np.int64)
    buckets = {
        label: {"users": float(len(members)), **_means(per_user[members])}
        for label, members in sparsity_buckets(degrees, boundaries).items()
    }
    return RankingReport(k=k, num_users=len(users), overall=_means(per_user), buckets=buckets)

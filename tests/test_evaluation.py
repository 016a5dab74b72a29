"""Ranking metrics against a from-scratch oracle."""

import json
import math

import numpy as np
import pytest

from mmssl import evaluation
from mmssl.data import ScoreRows, sparsity_buckets
from mmssl.evaluation import (
    RankingReport,
    evaluate_scores,
    ndcg_at_k,
    precision_at_k,
    rank_items,
    recall_at_k,
)


# -- independent oracle ------------------------------------------------------


def oracle_rank(scores, exclude):
    masked = [(-math.inf if i in exclude else s) for i, s in enumerate(scores)]
    return sorted(range(len(scores)), key=lambda i: (-masked[i], i))


def oracle_metrics(scores, exclude, relevant, k):
    ranked = oracle_rank(list(scores), set(exclude))
    hits = sum(1 for i in ranked[:k] if i in relevant)
    recall = hits / len(relevant)
    precision = hits / k
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(ranked[:k], start=1)
        if item in relevant
    )
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k) + 1))
    return recall, precision, dcg / ideal


def random_case(rng):
    n = int(rng.integers(5, 60))
    k = int(rng.integers(1, n + 1))
    scores = rng.standard_normal(n)
    if rng.random() < 0.3:  # force score ties
        scores = np.round(scores, 1)
    items = rng.permutation(n)
    n_train = int(rng.integers(0, max(1, n // 3)))
    n_rel = int(rng.integers(1, max(2, n // 3)))
    train = items[:n_train]
    relevant = items[n_train : n_train + n_rel]
    return scores, train, relevant, k


def test_metrics_match_oracle_on_50_cases():
    rng = np.random.default_rng(42)
    for _ in range(50):
        scores, train, relevant, k = random_case(rng)
        ranked = rank_items(scores, exclude=train)
        rel = set(relevant.tolist())
        got = (
            recall_at_k(ranked, rel, k),
            precision_at_k(ranked, rel, k),
            ndcg_at_k(ranked, rel, k),
        )
        want = oracle_metrics(scores, train.tolist(), rel, k)
        assert got == want  # exact, both sides are the same float operations


def test_ndcg_single_relevant_at_rank_two():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    ranked = rank_items(scores)
    assert abs(ndcg_at_k(ranked, {1}, 20) - 1.0 / math.log2(3)) <= 1e-9


def test_rank_is_permutation_with_ties_toward_lower_id():
    scores = np.array([0.5, 0.9, 0.5, 0.9])
    ranked = rank_items(scores)
    assert ranked.tolist() == [1, 3, 0, 2]
    assert sorted(ranked.tolist()) == [0, 1, 2, 3]


def test_excluded_items_sink_to_the_end():
    scores = np.array([9.0, 8.0, 7.0, 1.0])
    ranked = rank_items(scores, exclude=np.array([0, 1]))
    assert ranked.tolist() == [2, 3, 0, 1]


def test_masking_train_items_never_hurts_recall():
    rng = np.random.default_rng(3)
    for _ in range(25):
        scores, train, relevant, k = random_case(rng)
        rel = set(relevant.tolist())
        plain = recall_at_k(rank_items(scores), rel, k)
        masked = recall_at_k(rank_items(scores, exclude=train), rel, k)
        assert masked >= plain


def test_item_permutation_invariance():
    rng = np.random.default_rng(4)
    scores, train, relevant, k = random_case(rng)
    rel = set(relevant.tolist())
    base = oracle_metrics(scores, train.tolist(), rel, k)
    perm = rng.permutation(len(scores))
    inv = np.argsort(perm)
    # relabel item i -> inv[i]; scores permute accordingly
    got = (
        recall_at_k(rank_items(scores[perm], exclude=inv[train]), {int(inv[i]) for i in rel}, k),
        precision_at_k(rank_items(scores[perm], exclude=inv[train]), {int(inv[i]) for i in rel}, k),
        ndcg_at_k(rank_items(scores[perm], exclude=inv[train]), {int(inv[i]) for i in rel}, k),
    )
    assert got == base


def test_empty_relevant_set_rejected():
    ranked = rank_items(np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="relevant"):
        recall_at_k(ranked, set(), 2)
    with pytest.raises(ValueError, match="relevant"):
        ndcg_at_k(ranked, set(), 2)


def test_perfect_and_worst_case_scores():
    n, k = 30, 5
    relevant = {3, 7, 11}
    scores = np.zeros(n)
    for i in relevant:
        scores[i] = 10.0 + i
    ranked = rank_items(scores)
    assert recall_at_k(ranked, relevant, k) == 1.0
    assert ndcg_at_k(ranked, relevant, k) == 1.0
    # now bury every relevant item below rank k
    ranked_worst = rank_items(-scores)
    assert recall_at_k(ranked_worst, relevant, k) == 0.0
    assert ndcg_at_k(ranked_worst, relevant, k) == 0.0


def test_random_scores_hit_expected_recall():
    # each relevant item of a random ranking lands in the top k with
    # probability k / (n - excluded); check the mean over users within 3 sigma
    rng = np.random.default_rng(7)
    n_users, n_items, k, n_train, n_rel = 400, 100, 20, 10, 5
    scores = rng.standard_normal((n_users, n_items))
    train, relevant = [], []
    for _ in range(n_users):
        items = rng.permutation(n_items)
        train.append(items[:n_train])
        relevant.append(items[n_train : n_train + n_rel])
    report = evaluate_scores(scores, train, relevant, k=k)
    p = k / (n_items - n_train)
    sigma = math.sqrt(p * (1 - p) / (n_rel * n_users))
    assert abs(report.overall["recall"] - p) <= 3 * sigma


def small_report(boundaries=(0, 2, 5)):
    scores = np.array(
        [
            [0.9, 0.8, 0.7, 0.1, 0.2],
            [0.1, 0.9, 0.2, 0.8, 0.3],
            [0.5, 0.4, 0.3, 0.2, 0.1],
            [0.2, 0.3, 0.9, 0.8, 0.7],
        ]
    )
    train = [np.array([0]), np.array([1, 3]), np.array([], dtype=int), np.array([0, 1, 2])]
    relevant = [np.array([1, 2]), np.array([0]), np.array([], dtype=int), np.array([3, 4])]
    return scores, train, relevant, evaluate_scores(
        scores, train, relevant, k=2, boundaries=boundaries
    )


def test_report_aggregation_and_buckets():
    scores, train, relevant, report = small_report()
    # user 2 has no relevant items and is skipped
    assert report.num_users == 3
    per_user = [
        oracle_metrics(scores[u], train[u].tolist(), set(relevant[u].tolist()), 2)
        for u in (0, 1, 3)
    ]
    arr = np.array(per_user)
    assert report.overall["recall"] == pytest.approx(arr[:, 0].mean(), abs=1e-12)
    assert report.overall["precision"] == pytest.approx(arr[:, 1].mean(), abs=1e-12)
    assert report.overall["ndcg"] == pytest.approx(arr[:, 2].mean(), abs=1e-12)
    # degrees 1, 2, 0, 3 against boundaries (0,2,5): users 0,2 low, 1,3 high,
    # and the skipped user 2 drops out of its bucket
    assert report.buckets["[0,2)"]["users"] == 1.0
    assert report.buckets["[0,2)"]["recall"] == pytest.approx(per_user[0][0], abs=1e-12)
    assert report.buckets["[2,5)"]["users"] == 2.0
    assert report.buckets["[2,5)"]["recall"] == pytest.approx(
        (per_user[1][0] + per_user[2][0]) / 2, abs=1e-12
    )


def test_report_serialization():
    _, _, _, report = small_report()
    doc = json.loads(report.to_json())
    assert doc["k"] == 2
    assert doc["num_users"] == 3
    assert set(doc["overall"]) == {"recall", "precision", "ndcg"}
    assert set(doc["buckets"]) == {"[0,2)", "[2,5)"}
    text = report.to_text()
    assert "recall@2" in text
    assert "[0,2)" in text and "[2,5)" in text


def test_all_users_empty_relevant_yields_zero_report():
    scores = np.ones((2, 3))
    report = evaluate_scores(
        scores,
        [np.array([], dtype=int)] * 2,
        [np.array([], dtype=int)] * 2,
        k=2,
        boundaries=(0, 5),
    )
    assert report.num_users == 0
    assert report.overall == {"recall": 0.0, "precision": 0.0, "ndcg": 0.0}


# -- block ranking against the per-user reference -----------------------------


def per_user_report(scores, train, relevant, k, boundaries):
    """The report built one user at a time from rank_items and the metric
    functions, aggregated as evaluate_scores documents."""
    per_user = {}
    for u in range(scores.shape[0]):
        if len(relevant[u]):
            ranked = rank_items(scores[u], train[u])
            rel = set(relevant[u].tolist())
            per_user[u] = (
                recall_at_k(ranked, rel, k),
                precision_at_k(ranked, rel, k),
                ndcg_at_k(ranked, rel, k),
            )

    def means(users):
        if not users:
            return {"recall": 0.0, "precision": 0.0, "ndcg": 0.0}
        arr = np.array([per_user[u] for u in users])
        return {
            "recall": float(arr[:, 0].mean()),
            "precision": float(arr[:, 1].mean()),
            "ndcg": float(arr[:, 2].mean()),
        }

    groups = sparsity_buckets(np.array([len(t) for t in train]), boundaries)
    buckets = {}
    for label, members in groups.items():
        kept = [int(u) for u in members if int(u) in per_user]
        buckets[label] = {"users": float(len(kept)), **means(kept)}
    return RankingReport(k=k, num_users=len(per_user), overall=means(sorted(per_user)), buckets=buckets)


def tie_heavy_case(seed, num_users, num_items):
    """Integer scores in a narrow range, so most top-k cuts fall inside a
    tie; some users have no held-out items, some held-out items are also
    training items, and some users have almost every item excluded."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-3, 4, size=(num_users, num_items)).astype(np.float64)
    train, relevant = [], []
    for u in range(num_users):
        items = rng.permutation(num_items)
        n_train = num_items - 2 if u % 7 == 3 else int(rng.integers(0, num_items // 2))
        train.append(np.sort(items[:n_train]))
        if u % 5 == 0:
            relevant.append(np.array([], dtype=np.int64))
        else:
            # half of them drawn across the whole catalog, training items included
            pool = items if u % 2 else items[n_train:]
            n_rel = int(rng.integers(1, max(2, min(len(pool), 6))))
            relevant.append(np.sort(pool[:n_rel]))
    return scores, train, relevant


@pytest.mark.parametrize("k", [1, 3, 20, 40])
@pytest.mark.parametrize("block_rows", [1, 4, 1000])
def test_block_ranking_equals_per_user_reference(monkeypatch, k, block_rows):
    # 25 items: k = 40 exceeds the catalog, k = 20 exceeds what is left to
    # users with almost every item excluded
    num_items = 25
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * num_items * block_rows)
    scores, train, relevant = tie_heavy_case(k * 100 + block_rows, 30, num_items)
    boundaries = (0, 3, 8, 30)
    got = evaluate_scores(scores, train, relevant, k=k, boundaries=boundaries)
    want = per_user_report(scores, train, relevant, k, boundaries)
    assert got.to_json() == want.to_json()


def test_block_ranking_equals_reference_on_float_scores(monkeypatch):
    rng = np.random.default_rng(11)
    scores = rng.standard_normal((200, 60))
    train = [np.sort(rng.choice(60, size=int(rng.integers(0, 12)), replace=False)) for _ in range(200)]
    relevant = [np.sort(rng.choice(60, size=int(rng.integers(0, 5)), replace=False)) for _ in range(200)]
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * 60 * 16)
    got = evaluate_scores(scores, train, relevant, k=20)
    want = per_user_report(scores, train, relevant, 20, evaluation.DEFAULT_BUCKET_BOUNDARIES)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("k", [1, 20])
def test_block_ranking_equals_reference_on_a_wide_catalog(monkeypatch, k):
    # 300 items, wide enough for top_k_rows to prune: integer rows tie at
    # their maximum or their k-th value, float rows do not, and users with
    # almost every item excluded keep fewer finite entries than k
    num_items = 300
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * num_items * 16)
    scores, train, relevant = tie_heavy_case(k, 60, num_items)
    scores[1::3] += np.random.default_rng(k).standard_normal((20, num_items))
    boundaries = (0, 3, 8, 300)
    got = evaluate_scores(scores, train, relevant, k=k, boundaries=boundaries)
    want = per_user_report(scores, train, relevant, k, boundaries)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("k", [0, -1])
def test_evaluate_scores_rejects_k_below_one(k):
    empty = [np.array([], dtype=int)] * 2
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        evaluate_scores(np.ones((2, 3)), empty, [np.array([1])] * 2, k=k)


@pytest.mark.parametrize("block_rows", [1, 3, 1000])
def test_score_rows_rank_exactly_like_the_full_score_matrix(monkeypatch, block_rows):
    # small integer embeddings: every product and sum is exact, so the
    # row-on-demand scores equal the full matrix whatever the gemm order,
    # and the narrow range makes most top-k cuts fall inside a tie
    rng = np.random.default_rng(block_rows)
    users = rng.integers(-2, 3, size=(40, 4)).astype(np.float64)
    items = rng.integers(-2, 3, size=(25, 4)).astype(np.float64)
    _, train, relevant = tie_heavy_case(block_rows, 40, 25)
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * 25 * block_rows)
    view = ScoreRows(users, items)
    assert view.shape == (40, 25)
    np.testing.assert_array_equal(view[[3, 0, 7]], (users @ items.T)[[3, 0, 7]])
    got = evaluate_scores(view, train, relevant, k=5)
    want = evaluate_scores(users @ items.T, train, relevant, k=5)
    assert got.to_json() == want.to_json()

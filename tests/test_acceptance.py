"""Acceptance gate: ten checks covering gradients, invariants, oracles,
learning behavior, determinism, and data fidelity.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible under
``pytest -s`` or in captured output on failure) and asserts the same
condition, so the suite doubles as a human-readable checklist.
"""

import math
import time

import numpy as np

import mmssl.adversarial as adv
import mmssl.autodiff as ad
import mmssl.encoder as enc
import mmssl.evaluation as ev
import mmssl.objectives as obj
from mmssl.data import (
    SyntheticSpec,
    build_norm_adjacency,
    generate_synthetic,
    graph_from_edges,
    load_interactions,
    split_edges,
)
from mmssl.encoder import EncoderConfig
from mmssl.evaluation import EvalConfig
from mmssl.gradcheck import run_loss_checks
from mmssl.trainer import AdvConfig, ObjectiveConfig, TrainConfig, fit


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_loss_gradients_finite_difference():
    start = time.time()
    errors = run_loss_checks()  # 12 users, 10 items, 2 modalities, d=8, H=2, L=2
    elapsed = time.time() - start
    worst = max(errors.values())
    ok = set(errors) == {"l_bpr", "l_cl", "l_g", "l_d", "l_total"}
    ok = ok and worst <= 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errors.items())
    report(1, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_2_gradient_penalty_exact_for_unit_norm_critic():
    rng = np.random.default_rng(2)
    n_items = 9
    w = rng.standard_normal((n_items, 1))
    w /= np.linalg.norm(w)
    factors = [("affine", ad.parameter(w, "lin.w"))]
    worst = 0.0
    for batch_size in (1, 4, 32):
        # a linear map's input gradient is w at every row: the batch sets the row count
        batch = rng.standard_normal((batch_size, n_items)) * rng.uniform(0.1, 10)
        norms = adv.gradient_norms(factors, len(batch))
        penalty = float(np.mean((norms.data - 1.0) ** 2))
        worst = max(worst, penalty)
    report(2, worst < 1e-10, f"max penalty {worst:.2e} over 3 batches")


def test_criterion_3_gumbel_rows_normalized_and_zero_noise_point():
    rng = np.random.default_rng(3)
    a = (rng.random((1000, 40)) < 0.1).astype(float)
    rows = adv.gumbel_real_proxy(a, rng, tau=0.2, zeta=0.0, disable=False)
    sums = rows.sum(axis=1)
    max_err = float(np.abs(sums - 1.0).max())

    class FixedRng:
        def random(self, size=None):
            return np.full(size, np.exp(-1.0))

    # u = e^-1 makes g = -log(-log u) = -log(1) exactly zero
    g = -np.log(-np.log(np.full((3, 4), np.exp(-1.0))))
    noise_exact = np.array_equal(g, np.zeros_like(g))
    a_small = np.eye(4, 6)
    got = adv.gumbel_real_proxy(a_small, FixedRng(), tau=0.5, zeta=0.0, disable=False)
    logits = a_small / 0.5
    want = np.exp(logits - logits.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    point_exact = noise_exact and np.allclose(got, want, rtol=1e-12)
    ok = max_err <= 1e-9 and point_exact
    report(3, ok, f"max row-sum error {max_err:.1e} over 1000 rows, zero-noise point exact")


def test_criterion_4_hard_negative_gradient_profile():
    rng = np.random.default_rng(11)
    n, d = 201, 16
    results = []
    for tau in (0.02, 0.1, 0.5):
        h = rng.standard_normal((n, d))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        view = rng.standard_normal((n, d))
        norms = obj.negative_gradient_norms(h, view, anchor=0, tau=tau)
        q_v = view / np.linalg.norm(view, axis=1, keepdims=True)
        x = np.delete(h @ q_v[0], 0)
        phi = obj.hard_negative_profile(np.clip(x, -1.0, 1.0), tau)
        results.append(float(np.corrcoef(norms, phi)[0, 1]))
    ok = all(r >= 0.99 for r in results)
    detail = ", ".join(
        f"tau'={t} r={r:.5f}" for t, r in zip((0.02, 0.1, 0.5), results)
    )
    report(4, ok, detail)


def test_criterion_5_blockwise_and_propagation_oracles():
    rng = np.random.default_rng(5)
    f_u = ad.constant(rng.standard_normal((7, 6)))
    f_i = ad.constant(rng.standard_normal((9, 6)))
    dense = adv.generate_relations(f_u, f_i, block_rows=0).data
    block_err = 0.0
    for block in (1, 3, 7):
        blocked = adv.generate_relations(f_u, f_i, block_rows=block).data
        block_err = max(block_err, float(np.abs(blocked - dense).max()))

    edges = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 2), (5, 4)]
    g = graph_from_edges(6, 5, edges)
    adj = build_norm_adjacency(g)
    e_u = rng.standard_normal((6, 4))
    e_i = rng.standard_normal((5, 4))
    s_u = rng.standard_normal((6, 4))
    s_i = rng.standard_normal((5, 4))
    out_u, out_i = enc.propagate_high_order(
        adj, ad.Tensor(e_u), ad.Tensor(e_i), ad.Tensor(s_u), ad.Tensor(s_i), layers=2, eta=0.5
    )
    a_u = adj.user_from_item.toarray()
    a_i = adj.item_from_user.toarray()

    def inject(base, summary):
        sq = (summary**2).sum(axis=1, keepdims=True)
        return base + 0.5 * np.where(sq > 0, summary / np.where(sq > 0, sq, 1.0), 0.0)

    cur_u, cur_i = inject(e_u, s_u), inject(e_i, s_i)
    acc_u, acc_i = cur_u.copy(), cur_i.copy()
    for _ in range(2):
        cur_u, cur_i = a_u @ cur_i, a_i @ cur_u
        acc_u += cur_u
        acc_i += cur_i
    prop_err = max(
        float(np.abs(out_u.data - acc_u / 3).max()),
        float(np.abs(out_i.data - acc_i / 3).max()),
    )
    ok = block_err <= 1e-12 and prop_err <= 1e-12
    report(5, ok, f"block error {block_err:.1e}, propagation error {prop_err:.1e}")


def test_criterion_6_metric_oracle_equivalence():
    def oracle(scores, exclude, relevant, k):
        masked = [(-math.inf if i in exclude else s) for i, s in enumerate(scores)]
        ranked = sorted(range(len(scores)), key=lambda i: (-masked[i], i))
        hits = sum(1 for i in ranked[:k] if i in relevant)
        dcg = sum(
            1.0 / math.log2(r + 1)
            for r, item in enumerate(ranked[:k], start=1)
            if item in relevant
        )
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k) + 1))
        return hits / len(relevant), hits / k, dcg / ideal

    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, n + 1))
        scores = rng.standard_normal(n)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)
        items = rng.permutation(n)
        train = items[: int(rng.integers(0, max(1, n // 3)))]
        relevant = set(
            items[len(train) : len(train) + int(rng.integers(1, max(2, n // 3)))].tolist()
        )
        ranked = ev.rank_items(scores, exclude=train)
        got = (
            ev.recall_at_k(ranked, relevant, k),
            ev.precision_at_k(ranked, relevant, k),
            ev.ndcg_at_k(ranked, relevant, k),
        )
        if got != oracle(scores, set(train.tolist()), relevant, k):
            mismatches += 1

    ranked = ev.rank_items(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    ndcg_err = abs(ev.ndcg_at_k(ranked, {1}, 20) - 1.0 / math.log2(3))
    ok = mismatches == 0 and ndcg_err <= 1e-9
    report(6, ok, f"{mismatches}/50 mismatches, rank-2 ndcg error {ndcg_err:.1e}")


def test_criterion_7_ablation_ordering_on_planted_data():
    variants = {
        "full": (False, False),
        "no_asl": (True, False),
        "no_cl": (False, True),
        "none": (True, True),
    }
    start = time.time()
    finals = {v: [] for v in variants}
    for seed in range(5):
        graph, features, _ = generate_synthetic(SyntheticSpec(seed=seed))
        split = split_edges(graph, (0.8, 0.1, 0.1), seed=seed)
        for name, (no_asl, no_cl) in variants.items():
            cfg = TrainConfig(
                seed=seed,
                epochs=30,
                batch_size=32,
                steps_per_epoch=20,
                lr_gen=2e-3,
                embed_dim=32,
                disc_hidden=16,
                patience=30,
                disable_asl=no_asl,
                disable_cl=no_cl,
            )
            obj_cfg = ObjectiveConfig(lambda2=0.5, lambda3=0.01, omega=0.1)
            res = fit(
                cfg,
                EncoderConfig(top_k=5),
                AdvConfig(),
                obj_cfg,
                EvalConfig(),
                graph,
                features,
                split,
            )
            finals[name].append(res.log[-1]["recall"])
    elapsed = time.time() - start
    means = {v: float(np.mean(r)) for v, r in finals.items()}
    rel_gain = (means["full"] - means["none"]) / means["none"]
    ok = (
        rel_gain >= 0.10
        and means["full"] >= means["no_asl"]
        and means["full"] >= means["no_cl"]
        and elapsed < 300.0
    )
    detail = (
        f"full={means['full']:.3f} no_asl={means['no_asl']:.3f} "
        f"no_cl={means['no_cl']:.3f} none={means['none']:.3f} "
        f"rel={rel_gain:+.1%}, {elapsed:.0f}s"
    )
    report(7, ok, detail)


def test_criterion_8_determinism_and_checkpoint_fidelity(tmp_path):
    spec = SyntheticSpec(
        num_users=12,
        num_items=10,
        modality_dims=(6, 5),
        latent_dim=3,
        interactions_per_user=3,
        noise=0.3,
        seed=0,
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=0)

    def run(epochs, checkpoint=None, resume=None):
        cfg = TrainConfig(
            seed=1,
            epochs=epochs,
            batch_size=8,
            steps_per_epoch=2,
            embed_dim=8,
            disc_hidden=8,
            patience=100,
        )
        return fit(
            cfg,
            EncoderConfig(top_k=3),
            AdvConfig(),
            ObjectiveConfig(lambda2=0.1, lambda3=0.01),
            EvalConfig(),
            graph,
            features,
            split,
            checkpoint_path=checkpoint,
            resume_from=resume,
        )

    twice = [run(3), run(3)]
    identical = all(ra == rb for ra, rb in zip(twice[0].log, twice[1].log))

    straight = run(6)
    ckpt = tmp_path / "mid.ckpt"
    run(3, checkpoint=str(ckpt))
    resumed = run(6, resume=str(ckpt))
    resume_match = resumed.log == straight.log[3:]
    ok = identical and resume_match
    report(8, ok, f"3-epoch traces identical: {identical}, resumed epochs 4-6 match: {resume_match}")


def test_criterion_9_reported_sparsity_matches_table(tmp_path):
    users, items, count = 9319, 6710, 59541
    rng = np.random.default_rng(0)
    seen = set()
    while len(seen) < count:
        draw = rng.integers(0, users * items, size=count - len(seen))
        seen.update(draw.tolist())
    pairs = sorted((code // items, code % items) for code in seen)
    lines = [f"# users={users} items={items}"] + [f"{u}\t{i}" for u, i in pairs]
    path = tmp_path / "interactions.txt"
    path.write_text("\n".join(lines) + "\n")
    graph = load_interactions(path)
    got = graph.sparsity() * 100.0
    ok = abs(got - 99.904) <= 1e-3 and graph.num_edges == count
    report(9, ok, f"{users}x{items}, {count} edges -> sparsity {got:.5f}%")


def test_criterion_10_single_modality_attention_identity():
    rng = np.random.default_rng(10)
    attn = enc.AttentionParams.create(dim=8, heads=2, rng=rng)
    worst = 0.0
    for _ in range(5):
        view = ad.constant(rng.standard_normal((6, 8)))
        (out,) = enc.cross_modal_attention([view], attn)
        worst = max(worst, float(np.abs(out.data - view.data).max()))
    report(10, worst <= 1e-12, f"max deviation {worst:.1e} over 5 random inputs")

"""Loss values against closed forms, gradient profiles against theory."""

import numpy as np
import pytest

from mmssl import autodiff as ad
from mmssl import objectives as obj


def test_bpr_matches_softplus_closed_form():
    rng = np.random.default_rng(0)
    pos = rng.standard_normal(32)
    neg = rng.standard_normal(32)
    loss = obj.bpr_loss(ad.constant(pos), ad.constant(neg))
    expected = np.mean(np.logaddexp(0.0, neg - pos))
    np.testing.assert_allclose(loss.data, expected, rtol=1e-12)


def test_bpr_decreases_with_margin():
    neg = ad.constant(np.zeros(8))
    losses = [
        obj.bpr_loss(ad.constant(np.full(8, m)), neg).data.item()
        for m in (-1.0, 0.0, 1.0, 3.0)
    ]
    assert losses == sorted(losses, reverse=True)
    # perfectly ranked pairs still pay softplus(-margin) > 0
    assert losses[-1] > 0


def test_bpr_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        obj.bpr_loss(ad.constant(np.zeros(3)), ad.constant(np.zeros(4)))


def test_bpr_extreme_scores_stay_finite():
    pos = ad.constant(np.array([-500.0, 500.0]))
    neg = ad.constant(np.array([500.0, -500.0]))
    loss = obj.bpr_loss(pos, neg)
    assert np.isfinite(loss.data).all()


def test_infonce_single_user_self_view_is_log2():
    # one user whose view equals its embedding: the positive cancels the
    # matching denominator term and the view-view term doubles it
    h = np.array([[0.3, -1.2, 0.5]])
    loss = obj.infonce_loss(ad.constant(h), [ad.constant(h.copy())], tau=0.085, paper_sign=False)
    np.testing.assert_allclose(loss.data, np.log(2.0), rtol=1e-12)


def test_infonce_row_rescaling_invariance():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((6, 5))
    v = rng.standard_normal((6, 5))
    base = obj.infonce_loss(ad.constant(h), [ad.constant(v)], tau=0.2, paper_sign=False).data
    s_h = rng.uniform(0.2, 3.0, size=(6, 1))
    s_v = rng.uniform(0.2, 3.0, size=(6, 1))
    scaled = obj.infonce_loss(
        ad.constant(h * s_h), [ad.constant(v * s_v)], tau=0.2, paper_sign=False
    ).data
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_infonce_positive_and_sign_switch():
    rng = np.random.default_rng(6)
    h = ad.constant(rng.standard_normal((7, 4)))
    views = [ad.constant(rng.standard_normal((7, 4))) for _ in range(2)]
    loss = obj.infonce_loss(h, views, tau=0.1, paper_sign=False)
    flipped = obj.infonce_loss(h, views, tau=0.1, paper_sign=True)
    # denominator strictly exceeds exp(positive), so -log ratio > 0
    assert loss.data.item() > 0
    np.testing.assert_allclose(flipped.data, -loss.data, rtol=1e-12)


def test_infonce_brute_force_oracle():
    rng = np.random.default_rng(7)
    n, d = 5, 3
    h = rng.standard_normal((n, d))
    views = [rng.standard_normal((n, d)) for _ in range(2)]
    loss = obj.infonce_loss(ad.constant(h), [ad.constant(v) for v in views], tau=0.3, paper_sign=False)

    def unit(a):
        return a / np.linalg.norm(a)

    terms = []
    for v in views:
        for u in range(n):
            pos = unit(h[u]) @ unit(v[u]) / 0.3
            denom = sum(np.exp(unit(h[w]) @ unit(v[u]) / 0.3) for w in range(n))
            denom += sum(np.exp(unit(v[w]) @ unit(v[u]) / 0.3) for w in range(n))
            terms.append(np.log(denom) - pos)
    np.testing.assert_allclose(loss.data, np.mean(terms), rtol=1e-10)


def composed_infonce_terms(q_h, view, tau):
    """The per-user InfoNCE terms composed of elementary tape ops: the
    bitwise reference of ``ad.infonce_terms``."""
    q_v = ad.l2_normalize_rows(view)
    sim_hv = ad.scale(ad.matmul(q_h, ad.transpose(q_v)), 1.0 / tau)  # [u', u]
    sim_vv = ad.scale(ad.matmul(q_v, ad.transpose(q_v)), 1.0 / tau)  # [u', u]
    n = q_h.shape[0]
    pos = ad.gather_rows(ad.reshape(sim_hv, (n * n,)), np.arange(n) * (n + 1))
    denom = ad.reduce_sum(ad.add(ad.exp(sim_hv), ad.exp(sim_vv)), axis=0)
    return ad.sub(ad.log(denom), pos)


def _assert_fused_infonce_equals_composed(monkeypatch, n, paper_sign):
    rng = np.random.default_rng(n)
    h = ad.parameter(rng.standard_normal((n, 16)), "h")
    views = [ad.parameter(rng.standard_normal((n, 16)), f"view{m}") for m in range(2)]
    views[0].data[n // 2] = 0.0  # a zero view row
    if n > 1:  # duplicated rows tie in every similarity
        h.data[-1] = h.data[0]
        views[1].data[-1] = views[1].data[0]

    def loss_and_grads():
        with ad.Tape() as tape:
            loss = obj.infonce_loss(h, views, tau=0.085, paper_sign=paper_sign)
        grads = tape.backward(loss, params=[h, *views])
        return [loss.data] + [grads.get(p) for p in (h, *views)]

    fused = loss_and_grads()
    monkeypatch.setattr(obj, "_infonce_terms", composed_infonce_terms)
    composed = loss_and_grads()
    for name, a, b in zip(("loss", "h", "view0", "view1"), fused, composed):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("paper_sign", [False, True])
@pytest.mark.parametrize("n", [1, 7, 300, 1000])
def test_infonce_bitwise_equals_composed_tape(monkeypatch, n, paper_sign):
    # with 256 KiB row blocks, 1 and 7 users fit in one block, 300 are
    # blocks of 109, 109 and 82 rows, and 1000 are 31 of 32 and one of 8
    _assert_fused_infonce_equals_composed(monkeypatch, n, paper_sign)


@pytest.mark.parametrize("rows", [1, 7, 8, 40, 41])
def test_infonce_row_block_size_moves_no_bit(monkeypatch, rows):
    # 40 users in blocks of one row, of 7 (a partial last block), of 8,
    # in one block, and in a block larger than the users
    monkeypatch.setattr(ad, "INFONCE_BLOCK_BYTES", rows * 8 * 40)
    _assert_fused_infonce_equals_composed(monkeypatch, 40, paper_sign=False)


def test_infonce_validation():
    h = ad.constant(np.ones((2, 2)))
    with pytest.raises(ValueError, match="temperature"):
        obj.infonce_loss(h, [h], tau=0.0, paper_sign=False)
    with pytest.raises(ValueError, match="modality"):
        obj.infonce_loss(h, [], tau=0.085, paper_sign=False)


def test_hard_negative_profile_values_and_validation():
    x = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(
        obj.hard_negative_profile(x, tau=0.5),
        [0.0, 1.0, 0.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        obj.hard_negative_profile(0.6, tau=0.1),
        np.sqrt(1 - 0.36) * np.exp(6.0),
        rtol=1e-12,
    )
    with pytest.raises(ValueError, match="similarity"):
        obj.hard_negative_profile(1.5, tau=0.1)
    with pytest.raises(ValueError, match="temperature"):
        obj.hard_negative_profile(0.5, tau=-1.0)


@pytest.mark.parametrize("tau", [0.02, 0.1, 0.5])
def test_negative_gradient_norms_track_profile(tau):
    # 200 negatives on the unit sphere: measured gradient norms must be an
    # exact positive multiple of sqrt(1-x^2)*exp(x/tau)
    rng = np.random.default_rng(11)
    n, d = 201, 16
    h = rng.standard_normal((n, d))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    view = rng.standard_normal((n, d))
    norms = obj.negative_gradient_norms(h, view, anchor=0, tau=tau)
    assert norms.shape == (200,)
    q_v = view / np.linalg.norm(view, axis=1, keepdims=True)
    x = np.delete(h @ q_v[0], 0)
    phi = obj.hard_negative_profile(np.clip(x, -1.0, 1.0), tau)
    pearson = np.corrcoef(norms, phi)[0, 1]
    assert pearson >= 0.99


def test_negative_gradient_norms_closed_form():
    # unit-norm h: the anchor term pulls negative u' with norm
    # exp(x/tau) * sqrt(1 - x^2) / (tau * denominator), x = cos(h_u', e_a)
    rng = np.random.default_rng(14)
    n, d, tau, anchor = 40, 6, 0.2, 5
    h = rng.standard_normal((n, d))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    view = rng.standard_normal((n, d))
    q_v = view / np.linalg.norm(view, axis=1, keepdims=True)
    x = h @ q_v[anchor]
    denom = np.exp(x / tau).sum() + np.exp(q_v @ q_v[anchor] / tau).sum()
    want = np.exp(x / tau) * np.sqrt(1.0 - x * x) / (tau * denom)
    got = obj.negative_gradient_norms(h, view, anchor=anchor, tau=tau)
    np.testing.assert_allclose(got, np.delete(want, anchor), rtol=1e-9)


def test_negative_gradient_peak_location():
    # the pull peaks where phi does, at x* where tau = sqrt(1-x^2)/x ... i.e.
    # hard-but-not-identical negatives dominate easy ones
    rng = np.random.default_rng(12)
    n, d = 101, 8
    h = rng.standard_normal((n, d))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    view = rng.standard_normal((n, d))
    tau = 0.1
    norms = obj.negative_gradient_norms(h, view, anchor=3, tau=tau)
    q_v = view / np.linalg.norm(view, axis=1, keepdims=True)
    x = np.delete(h @ q_v[3], 3)
    hardest = np.argmax(x)
    easiest = np.argmin(x)
    assert norms[hardest] > norms[easiest]


def test_fuse_final_closed_form():
    rng = np.random.default_rng(13)
    prop = rng.standard_normal((4, 3))
    p1 = rng.standard_normal((4, 3))
    p2 = np.vstack([rng.standard_normal((3, 3)), np.zeros(3)])  # zero row
    fused = obj.fuse_final(
        ad.constant(prop), [ad.constant(p1), ad.constant(p2)], omega=0.4
    )

    def norm_rows(a):
        out = np.zeros_like(a)
        lens = np.linalg.norm(a, axis=1)
        nz = lens > 0
        out[nz] = a[nz] / lens[nz, None]
        return out

    expected = prop + 0.4 * norm_rows(p1) + 0.4 * norm_rows(p2)
    np.testing.assert_allclose(fused.data, expected, rtol=1e-12)
    assert np.isfinite(fused.data).all()


def test_predict_is_pairwise_dot():
    rng = np.random.default_rng(14)
    hu = rng.standard_normal((3, 4))
    hi = rng.standard_normal((5, 4))
    scores = obj.predict(ad.constant(hu), ad.constant(hi))
    np.testing.assert_allclose(scores.data, hu @ hi.T, rtol=1e-12)


def test_l2_penalty_value_and_empty():
    a = ad.constant(np.array([[1.0, -2.0]]))
    b = ad.constant(np.array([3.0]))
    np.testing.assert_allclose(obj.l2_penalty([a, b]).data, 14.0, rtol=1e-12)
    np.testing.assert_allclose(obj.l2_penalty([]).data, 0.0)


def test_total_loss_weighted_sum_and_ablation():
    bpr = ad.constant(0.7)
    cl = ad.constant(0.3)
    gen = ad.constant(-1.1)
    params = [ad.constant(np.array([2.0]))]
    full = obj.total_loss(bpr, cl, gen, params, lam2=0.5, lam3=0.2, lam4=0.01)
    np.testing.assert_allclose(
        full.data, 0.7 + 0.5 * 0.3 + 0.2 * -1.1 + 0.01 * 4.0, rtol=1e-12
    )
    # disabled terms contribute exactly nothing
    ablated = obj.total_loss(bpr, None, None, params, lam2=0.03, lam3=0.01, lam4=0.0)
    assert ablated.data.item() == 0.7


def test_total_loss_gradients_flow_to_all_terms():
    rng = np.random.default_rng(15)
    with ad.Tape() as tape:
        p = ad.parameter(rng.standard_normal((4, 3)), "emb")
        pos = ad.reduce_sum(ad.mul(p, p), axis=1)
        neg = ad.scale(pos, 0.5)
        bpr = obj.bpr_loss(pos, neg)
        cl = obj.infonce_loss(p, [ad.constant(rng.standard_normal((4, 3)))], tau=0.085, paper_sign=False)
        loss = obj.total_loss(bpr, cl, None, [p], lam2=1.0, lam3=0.01, lam4=0.1)
    grads = tape.backward(loss, params=[p])
    g = grads.get(p)
    assert g is not None and np.isfinite(g).all() and np.any(g != 0)

"""Training loop: determinism, checkpoints, optimizer math, side effects."""

import errno
import json
from pathlib import Path

import numpy as np
import pytest

from mmssl import model as mdl
from mmssl.data import SyntheticSpec, generate_synthetic, split_edges
from mmssl.encoder import EncoderConfig
from mmssl.evaluation import EvalConfig
from mmssl.objectives import LossWeights
from mmssl.trainer import (
    AdamOptimizer,
    AdvConfig,
    ObjectiveConfig,
    TrainConfig,
    Trainer,
    fit,
    load_checkpoint,
    save_checkpoint,
)


def tiny_problem(seed=0):
    spec = SyntheticSpec(
        num_users=12,
        num_items=10,
        modality_dims=(6, 5),
        latent_dim=3,
        interactions_per_user=3,
        noise=0.3,
        seed=seed,
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=seed)
    return graph, features, split


def tiny_configs(epochs=3, **overrides):
    cfg = TrainConfig(
        seed=1,
        epochs=epochs,
        batch_size=8,
        steps_per_epoch=2,
        embed_dim=8,
        disc_hidden=8,
        patience=100,
        **overrides,
    )
    return (
        cfg,
        EncoderConfig(top_k=3),
        AdvConfig(),
        ObjectiveConfig(weights=LossWeights(lam2=0.1, lam3=0.01)),
        EvalConfig(),
    )


def run_tiny(epochs=3, checkpoint=None, log_path=None, resume=None, config_flat=None, **ov):
    graph, features, split = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs(epochs=epochs, **ov)
    return fit(
        cfg, enc, adv, objc, evc, graph, features, split,
        checkpoint_path=checkpoint, log_path=log_path,
        resume_from=resume, config_flat=config_flat,
    )


def test_same_seed_bitwise_identical():
    a = run_tiny()
    b = run_tiny()
    assert len(a.log) == len(b.log) == 3
    for ra, rb in zip(a.log, b.log):
        assert ra == rb  # exact float equality, not approximate
    for name in ("id.users", "id.items"):
        np.testing.assert_array_equal(a.best_arrays[name], b.best_arrays[name])


def test_resume_matches_uninterrupted(tmp_path):
    straight = run_tiny(epochs=6)
    ckpt = tmp_path / "mid.ckpt"
    first = run_tiny(epochs=3, checkpoint=str(ckpt))
    resumed = run_tiny(epochs=6, resume=str(ckpt))
    assert [r["epoch"] for r in resumed.log] == [3, 4, 5]
    for ra, rb in zip(straight.log[3:], resumed.log):
        assert ra == rb
    assert first.log == straight.log[:3]
    assert resumed.best_recall == straight.best_recall
    assert resumed.best_epoch == straight.best_epoch


def build_trainer(**overrides):
    graph, features, split = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs(**overrides)
    trainer = Trainer(cfg, enc, adv, objc, evc, graph, features, split)
    trainer.neighborhoods = mdl.refresh_neighborhoods(
        trainer.state, trainer.adj, trainer.features, enc.top_k, adv.block_rows
    )
    return trainer


def snapshot(params):
    return {p.name: p.data.copy() for p in params}


def changed(before, params):
    return {p.name for p in params if not np.array_equal(before[p.name], p.data)}


def test_step_parameter_partition():
    trainer = build_trainer()
    gen_params = trainer.state.generator_parameters()
    disc_params = trainer.state.discriminator_parameters()
    gen_names = {p.name for p in gen_params}
    disc_names = {p.name for p in disc_params}
    assert not gen_names & disc_names
    assert gen_names | disc_names == set(trainer.state.named_parameters())

    gen_before = snapshot(gen_params)
    disc_before = snapshot(disc_params)
    trainer.d_step()
    assert changed(gen_before, gen_params) == set()
    assert changed(disc_before, disc_params)  # critic actually moved

    disc_before = snapshot(disc_params)
    gen_before = snapshot(gen_params)
    trainer.g_step()
    assert changed(disc_before, disc_params) == set()
    moved = changed(gen_before, gen_params)
    assert "id.users" in moved and "id.items" in moved


def test_disabled_adversarial_leaves_critic_untouched():
    trainer = build_trainer(disable_asl=True)
    disc_before = snapshot(trainer.state.discriminator_parameters())
    bn_before = trainer.state.disc.bn1.mean.copy()
    result = trainer.run()
    assert changed(disc_before, trainer.state.discriminator_parameters()) == set()
    np.testing.assert_array_equal(bn_before, trainer.state.disc.bn1.mean)
    assert all(r["l_d"] == 0.0 and r["l_g"] == 0.0 for r in result.log)


def test_losses_logged_and_finite():
    res = run_tiny()
    keys = {"epoch", "l_bpr", "l_cl", "l_g", "l_d", "recall", "ndcg", "precision"}
    for record in res.log:
        assert keys <= set(record)
        values = [v for k, v in record.items() if k != "epoch"]
        assert np.isfinite(values).all()
        assert record["l_bpr"] > 0


def test_ndjson_log_mirrors_result(tmp_path):
    log_file = tmp_path / "train.ndjson"
    res = run_tiny(log_path=str(log_file))
    lines = log_file.read_text().strip().splitlines()
    assert len(lines) == len(res.log)
    for line, record in zip(lines, res.log):
        assert json.loads(line) == record


def test_lr_schedule_decays_per_epoch():
    graph, features, split = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs(epochs=4)
    trainer = Trainer(cfg, enc, adv, objc, evc, graph, features, split)
    trainer.run()
    assert trainer.opt_gen.lr == cfg.lr_gen * cfg.lr_decay**3
    assert trainer.opt_disc.lr == cfg.lr_disc * cfg.lr_decay**3


def test_feature_graph_mismatch_rejected():
    from mmssl.data import ModalityFeatureTable

    graph, features, split = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs()
    bad = [ModalityFeatureTable(features[0].name, features[0].values[:5])] + features[1:]
    with pytest.raises(ValueError, match="covers"):
        Trainer(cfg, enc, adv, objc, evc, graph, bad, split)


# -- optimizer math ---------------------------------------------------------


def make_param(values, name):
    import mmssl.autodiff as ad

    return ad.parameter(np.array(values, dtype=np.float64), name)


class FixedGrads:
    """Stands in for a GradientMap with a preset gradient per parameter."""

    def __init__(self, pairs):
        self._by_id = {id(p): g for p, g in pairs}

    def get(self, t):
        return self._by_id[id(t)]


def manual_adam(p0, grads, lr, wd=0.0, decoupled=False, betas=(0.9, 0.999), eps=1e-8):
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        if decoupled and wd:
            p = p - lr * wd * p
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        m_hat = m / (1 - betas[0] ** t)
        v_hat = v / (1 - betas[1] ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_adam_matches_hand_computation():
    p = make_param([1.0, -2.0, 0.5], "w")
    opt = AdamOptimizer([p], lr=0.1)
    grads_seq = [np.array([0.3, -0.1, 2.0]), np.array([-1.0, 0.4, 0.0])]
    for g in grads_seq:
        opt.step(FixedGrads([(p, g.copy())]))
    expected = manual_adam([1.0, -2.0, 0.5], grads_seq, lr=0.1)
    np.testing.assert_allclose(p.data, expected, rtol=1e-15)


def test_adamw_decoupled_decay():
    p = make_param([4.0, -4.0], "w")
    opt = AdamOptimizer([p], lr=0.1, weight_decay=0.5, decoupled=True)
    grads_seq = [np.array([1.0, 1.0]), np.array([-0.5, 2.0])]
    for g in grads_seq:
        opt.step(FixedGrads([(p, g.copy())]))
    expected = manual_adam([4.0, -4.0], grads_seq, lr=0.1, wd=0.5, decoupled=True)
    np.testing.assert_allclose(p.data, expected, rtol=1e-15)
    # decay shrinks toward zero beyond the pure-Adam trajectory
    plain = manual_adam([4.0, -4.0], grads_seq, lr=0.1)
    assert np.all(np.abs(p.data) < np.abs(plain))


def test_coupled_optimizer_ignores_decay_flag():
    p1 = make_param([2.0], "a")
    p2 = make_param([2.0], "a")
    opt1 = AdamOptimizer([p1], lr=0.1, weight_decay=0.7, decoupled=False)
    opt2 = AdamOptimizer([p2], lr=0.1)
    g = np.array([0.25])
    opt1.step(FixedGrads([(p1, g.copy())]))
    opt2.step(FixedGrads([(p2, g.copy())]))
    np.testing.assert_array_equal(p1.data, p2.data)


# -- checkpoint container ---------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "matrix": rng.standard_normal((3, 4)),
        "vector": rng.standard_normal(5),
        "scalar": np.array(3.25),
    }
    meta = {"epoch": 7, "note": "midway", "nested": {"a": [1, 2]}}
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, arrays, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].shape == arr.shape


class _FullDisk:
    """Write handle on a disk that fills up after the first few bytes."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(bytes(data)[:5])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {"epoch": 1})
    real_open = Path.open

    def open_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_full_disk)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, {"w": np.zeros(4)}, {"epoch": 2})
    monkeypatch.undo()
    arrays, meta = load_checkpoint(path)
    assert meta == {"epoch": 1}
    np.testing.assert_array_equal(arrays["w"], np.arange(4.0))
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)}, {})
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, {"w": np.arange(64.0)}, {"epoch": 1})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 30])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(path)


def test_resume_rejects_config_change(tmp_path):
    ckpt = tmp_path / "guard.ckpt"
    run_tiny(epochs=2, checkpoint=str(ckpt), config_flat={"train.lr_gen": 0.001})
    with pytest.raises(ValueError, match="configuration"):
        run_tiny(epochs=4, resume=str(ckpt), config_flat={"train.lr_gen": 0.002})


def test_resume_allows_extended_stopping_criteria(tmp_path):
    # epochs and patience only decide when to stop, so a resumed run may
    # raise them without tripping the configuration guard
    ckpt = tmp_path / "extend.ckpt"
    flat = {"train.lr_gen": 0.001, "train.epochs": 2}
    run_tiny(epochs=2, checkpoint=str(ckpt), config_flat=flat)
    res = run_tiny(
        epochs=4,
        resume=str(ckpt),
        config_flat={"train.lr_gen": 0.001, "train.epochs": 4, "train.patience": 50},
    )
    assert [rec["epoch"] for rec in res.log] == [2, 3]

"""Training loop: determinism, checkpoints, optimizer math, side effects."""

import errno
import functools
import json
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmssl import adversarial, encoder
from mmssl import autodiff as ad
from mmssl import model as mdl
from mmssl.autodiff import NumericError, Tape
from mmssl.data import SyntheticSpec, generate_synthetic, split_edges
from mmssl.encoder import EncoderConfig
from mmssl.evaluation import EvalConfig
from mmssl.trainer import (
    AdamOptimizer,
    AdvConfig,
    ObjectiveConfig,
    TrainConfig,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Trainer,
    _checkpoint_shapes,
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
        ObjectiveConfig(lambda2=0.1, lambda3=0.01),
        EvalConfig(),
    )


def run_tiny(epochs=3, checkpoint=None, log_path=None, resume=None, config_flat=None, **ov):
    graph, features, split = tiny_problem()
    trainer = Trainer(*tiny_configs(epochs=epochs, **ov), graph, features, split, config_flat=config_flat)
    if resume is not None:
        trainer.restore(resume)
    return trainer.run(checkpoint_path=checkpoint, log_path=log_path)


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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    disable_asl=st.booleans(),
    disable_cl=st.booleans(),
    disable_gumbel=st.booleans(),
    d_steps=st.integers(1, 2),
    negate_critic=st.booleans(),
    refresh_every=st.integers(1, 3),
    layers=st.integers(1, 2),
    gen_dropout=st.sampled_from([0.0, 0.3]),
    disc_dropout=st.sampled_from([0.0, 0.3]),
    lr_decay=st.sampled_from([1.0, 0.5]),
    patience=st.integers(1, 3),
    split_at=st.integers(1, 3),
)
def test_resume_equals_an_uninterrupted_run_across_the_config_space(
    tmp_path_factory, negate_critic, refresh_every, layers, split_at, **train
):
    spec = SyntheticSpec(num_users=40, num_items=30, modality_dims=(6, 5), latent_dim=3, seed=2)
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=2)
    root = tmp_path_factory.mktemp("resume")

    def trainer(epochs):
        cfg = TrainConfig(
            seed=1, epochs=epochs, batch_size=16, steps_per_epoch=2, embed_dim=8, disc_hidden=8, **train
        )
        enc = EncoderConfig(top_k=3, layers=layers, refresh_every=refresh_every)
        adv = AdvConfig(negate_critic=negate_critic)
        return Trainer(cfg, enc, adv, ObjectiveConfig(), EvalConfig(), graph, features, split)

    straight = trainer(4).run(checkpoint_path=root / "straight.ckpt")
    # a run stopped early by patience continues when resumed: split before its end
    split_at = min(split_at, len(straight.log) - 1)
    trainer(split_at).run(checkpoint_path=root / "first.ckpt")
    second = trainer(4)
    second.restore(root / "first.ckpt")
    resumed = second.run(checkpoint_path=root / "resumed.ckpt")
    assert resumed.log == straight.log[split_at:]
    # parameters, moments, neighbour ids, best snapshot, RNG states and counters
    assert (root / "resumed.ckpt").read_bytes() == (root / "straight.ckpt").read_bytes()


def test_a_stored_bad_epoch_count_is_ignored_on_resume(tmp_path):
    # patience reads epoch - 1 - best_epoch; an older checkpoint's count,
    # even a wrong one, must not stop the resumed run early
    straight = run_tiny(epochs=4)
    ckpt = tmp_path / "mid.ckpt"
    run_tiny(epochs=2, checkpoint=str(ckpt))
    arrays, meta = load_checkpoint(ckpt)
    assert "bad_epochs" not in meta
    save_checkpoint(ckpt, arrays, {**meta, "bad_epochs": 99})
    assert run_tiny(epochs=4, resume=str(ckpt)).log == straight.log[2:]


def test_restore_then_save_reproduces_the_checkpoint(tmp_path):
    ckpt, again = tmp_path / "final.ckpt", tmp_path / "again.ckpt"
    run_tiny(epochs=2, checkpoint=str(ckpt))
    trainer = build_trainer()
    trainer.restore(ckpt)
    trainer.save(again)
    assert again.read_bytes() == ckpt.read_bytes()


def build_trainer(**overrides):
    graph, features, split = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs(**overrides)
    trainer = Trainer(cfg, enc, adv, objc, evc, graph, features, split)
    trainer.neighborhoods = mdl.refresh_neighborhoods(
        trainer.state, trainer.adj, trainer.features, enc.top_k
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
    trainer.d_step(trainer._record_chain())
    assert changed(gen_before, gen_params) == set()
    assert changed(disc_before, disc_params)  # critic actually moved

    disc_before = snapshot(disc_params)
    gen_before = snapshot(gen_params)
    trainer.g_step(trainer._record_chain())
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


def test_run_returns_the_trainer_as_the_record_of_every_run_so_far():
    trainer = build_trainer(epochs=2)
    assert trainer.run() is trainer and not trainer.aborted
    trainer.cfg.epochs = 4
    trainer.run()
    assert [r["epoch"] for r in trainer.log] == [0, 1, 2, 3]
    best = max(range(4), key=lambda epoch: (trainer.log[epoch]["recall"], -epoch))  # the first best
    assert (trainer.best_epoch, trainer.best_recall) == (best, trainer.log[best]["recall"])
    held = trainer._held()
    assert trainer.best_arrays.keys() == held["live"].keys()
    # after a validated epoch every group holds every name of the layout
    layout = _checkpoint_shapes(trainer.state, trainer.graph, len(trainer.features), trainer.enc_cfg.top_k)
    assert {group: names.keys() for group, names in held.items()} == {
        group: shapes.keys() for group, shapes in layout.items()
    }


def test_aborted_describes_the_last_run(monkeypatch):
    trainer = build_trainer(epochs=1)

    def non_finite():
        raise NumericError("non-finite loss")

    monkeypatch.setattr(trainer, "train_step", non_finite)
    assert trainer.run().aborted
    assert isinstance(trainer.aborted, NumericError)
    assert str(trainer.aborted) == "non-finite loss in epoch 0, step 0"
    assert trainer.log == [] and trainer.best_epoch == -1 and not trainer.best_arrays
    monkeypatch.undo()
    assert not trainer.run().aborted and len(trainer.log) == 1 and trainer.best_epoch == 0
    assert trainer.aborted is None


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


def test_split_of_another_graph_rejected():
    graph, features, _ = tiny_problem()
    cfg, enc, adv, objc, evc = tiny_configs()
    wider = generate_synthetic(SyntheticSpec(num_users=12, num_items=11, modality_dims=(6, 5)))[0]
    fewer = generate_synthetic(SyntheticSpec(num_users=11, num_items=10, modality_dims=(6, 5)))[0]
    for other in (wider, fewer):
        with pytest.raises(ValueError, match=r"split.train is not of the graph.s shape"):
            Trainer(cfg, enc, adv, objc, evc, graph, features, split_edges(other, (0.8, 0.1, 0.1), seed=0))


@pytest.mark.parametrize("num_users", [5, 40])
def test_evaluate_rejects_held_out_graph_of_another_shape(num_users):
    # fewer users used to end in an IndexError, more were silently dropped
    graph, features, split = tiny_problem()
    trainer = Trainer(*tiny_configs(), graph, features, split)
    other = generate_synthetic(SyntheticSpec(num_users=num_users, num_items=10))[0]
    with pytest.raises(ValueError, match=rf"\({num_users}, 10\), the model \(12, 10\)"):
        trainer.evaluate(other, 5)


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


def manual_adam(p0, grads, lr, wd=0.0, betas=(0.9, 0.999), eps=1e-8):
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        if wd:
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
    opt = AdamOptimizer([p], lr=0.1, weight_decay=0.5)
    grads_seq = [np.array([1.0, 1.0]), np.array([-0.5, 2.0])]
    for g in grads_seq:
        opt.step(FixedGrads([(p, g.copy())]))
    expected = manual_adam([4.0, -4.0], grads_seq, lr=0.1, wd=0.5)
    np.testing.assert_allclose(p.data, expected, rtol=1e-15)
    # decay shrinks toward zero beyond the pure-Adam trajectory
    plain = manual_adam([4.0, -4.0], grads_seq, lr=0.1)
    assert np.all(np.abs(p.data) < np.abs(plain))


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


@pytest.mark.parametrize("size", [4, 8, 11])
def test_checkpoint_rejects_truncated_header(tmp_path, size):
    path = tmp_path / "head.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)}, {})
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match="truncated checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, {"w": np.arange(64.0)}, {"epoch": 1})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 30])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(path)


def write_table(path, entries, tail=b""):
    """A checkpoint listing ``entries``, (name, shape, values) triples, in
    the order given, then the metadata ``{}`` and the bytes ``tail``."""
    table = b"".join(
        struct.pack("<H", len(name)) + name.encode() + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        + np.asarray(values, dtype="<f8").tobytes()
        for name, shape, values in entries
    )
    head = CHECKPOINT_MAGIC + struct.pack("<2I", CHECKPOINT_VERSION, len(entries))
    path.write_bytes(head + table + struct.pack("<I", 2) + b"{}" + tail)


@pytest.mark.parametrize(
    "entries, tail, message",
    [
        pytest.param([("a", (2,), [1, 2]), ("a", (2,), [3, 4])], b"", "array a follows a", id="repeated"),
        pytest.param([("b", (2,), [1, 2]), ("a", (2,), [3, 4])], b"", "array a follows b", id="descending"),
        pytest.param([("a", (2,), [1, 2])], b"\x00" * 7, "7 bytes after the metadata", id="trailing"),
    ],
)
def test_checkpoint_rejects_an_unordered_table_and_bytes_after_the_metadata(tmp_path, entries, tail, message):
    # an ascending table with nothing after it is what save_checkpoint writes
    write_table(tmp_path / "fine.ckpt", [("a", (2,), [1, 2]), ("b", (1,), [5])])
    save_checkpoint(tmp_path / "saved.ckpt", {"a": np.array([1.0, 2.0]), "b": np.array([5.0])}, {})
    assert (tmp_path / "fine.ckpt").read_bytes() == (tmp_path / "saved.ckpt").read_bytes()
    path = tmp_path / "odd.ckpt"
    write_table(path, entries, tail)
    with pytest.raises(ValueError, match=f"odd.ckpt: corrupt checkpoint payload: {message}"):
        load_checkpoint(path)


def test_checkpoint_refuses_metadata_nested_deeper_than_the_decoder_recurses(tmp_path):
    path = tmp_path / "deep.ckpt"
    blob = b"[" * 100_000
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<3I", CHECKPOINT_VERSION, 0, len(blob)) + blob)
    with pytest.raises(ValueError, match="deep.ckpt: corrupt checkpoint payload: maximum recursion depth"):
        load_checkpoint(path)

def test_checkpoint_refuses_a_shape_past_the_end_of_the_file_before_allocating(tmp_path, peak_above_held):
    path = tmp_path / "short.ckpt"
    declared = (1 << 20, 1 << 7)  # 1 GiB of float64, in a file of 16 value bytes
    write_table(path, [("a", (2,), [1, 2])])
    blob = path.read_bytes()
    path.write_bytes(blob[:15] + struct.pack("<B2I", 2, *declared) + blob[20:])

    def refused():
        with pytest.raises(ValueError, match="short.ckpt: corrupt checkpoint payload: 1073741824 bytes wanted"):
            load_checkpoint(path)

    _, peak = peak_above_held(refused)
    assert peak < 1 << 20


def test_a_checkpoint_load_holds_the_file_once(tmp_path, peak_above_held):
    # each array is read into its own buffer; no copy of the whole file is held
    rng = np.random.default_rng(0)
    arrays = {f"w{i}": rng.standard_normal((256, 128)) for i in range(8)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, arrays, {"epoch": 1})
    (loaded, _), peak = peak_above_held(load_checkpoint, path)
    assert all(np.array_equal(loaded[name], arr) for name, arr in arrays.items())
    assert peak < 1.25 * path.stat().st_size


def test_resume_between_refreshes_matches_uninterrupted(tmp_path):
    # epoch 1 trains on the neighbours refreshed at epoch 0, so the
    # checkpoint written after epoch 0 must carry them
    spec = SyntheticSpec(num_users=60, num_items=40, modality_dims=(6, 5), seed=4)
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=4)

    def run(epochs, checkpoint, resume=None):
        cfg = TrainConfig(
            seed=1, epochs=epochs, batch_size=8, steps_per_epoch=20, lr_gen=5e-2,
            embed_dim=8, disc_hidden=8, patience=100,
        )
        trainer = Trainer(
            cfg, EncoderConfig(top_k=3, refresh_every=2), AdvConfig(), ObjectiveConfig(),
            EvalConfig(), graph, features, split,
        )
        if resume is not None:
            trainer.restore(resume)
        return trainer.run(checkpoint_path=checkpoint)

    straight = run(3, tmp_path / "straight.ckpt")
    run(1, tmp_path / "mid.ckpt")
    resumed = run(3, tmp_path / "resumed.ckpt", resume=tmp_path / "mid.ckpt")
    assert resumed.log == straight.log[1:]
    want, _ = load_checkpoint(tmp_path / "straight.ckpt")
    got, _ = load_checkpoint(tmp_path / "resumed.ckpt")
    assert sorted(got) == sorted(want) and "nbr.1.items" in got
    assert [n for n in want if not np.array_equal(want[n], got[n])] == []


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


def _fused_and_composed_runs(tmp_path, monkeypatch, module, name, composed, **overrides):
    """Checkpoint, metadata and log lines of a 2-epoch full-model run, with
    the fused record and with ``module.name`` replaced by its composed
    reference."""
    runs = []
    for label in ("fused", "composed"):
        if label == "composed":
            monkeypatch.setattr(module, name, composed)
        ckpt, log = tmp_path / f"{label}.ckpt", tmp_path / f"{label}.ndjson"
        run_tiny(epochs=2, checkpoint=str(ckpt), log_path=str(log), **overrides)
        runs.append((*load_checkpoint(ckpt), log.read_text().splitlines()))
    return runs


def _assert_runs_equal(want, got):
    (want_arrays, want_meta, want_log), (got_arrays, got_meta, got_log) = want, got
    assert got_log == want_log and got_meta == want_meta
    assert sorted(got_arrays) == sorted(want_arrays)
    assert [n for n in want_arrays if not np.array_equal(want_arrays[n], got_arrays[n])] == []


def test_training_is_bitwise_equal_with_composed_infonce(tmp_path, monkeypatch):
    # the fused InfoNCE record must not move any trained value: a rewrite
    # that is exact only to rounding fails here
    from test_objectives import composed_infonce_terms

    fused, composed = _fused_and_composed_runs(
        tmp_path, monkeypatch, ad, "infonce_terms", composed_infonce_terms
    )
    assert all(json.loads(line)["l_cl"] > 0 for line in fused[2])  # InfoNCE was on
    _assert_runs_equal(fused, composed)


def test_training_is_bitwise_equal_with_composed_attention(tmp_path, monkeypatch):
    # the one-record attention must not move any trained value either
    from test_encoder import composed_cross_modal_attention

    fused, composed = _fused_and_composed_runs(
        tmp_path, monkeypatch, encoder, "cross_modal_attention", composed_cross_modal_attention
    )
    assert all(json.loads(line)["l_cl"] > 0 and json.loads(line)["l_g"] != 0 for line in fused[2])
    _assert_runs_equal(fused, composed)


@pytest.mark.parametrize("d_steps", [1, 2])
def test_training_is_bitwise_equal_with_segments_as_plain_calls(tmp_path, monkeypatch, d_steps):
    # a segment only renames records and drops their unreturned outputs:
    # with every segment's records left on the tape as they are, no trained
    # value may move
    fused, composed = _fused_and_composed_runs(
        tmp_path, monkeypatch, ad, "segment", lambda op, fn, *args: fn(*args), d_steps=d_steps
    )
    assert all(json.loads(line)["l_cl"] > 0 and json.loads(line)["l_g"] != 0 for line in fused[2])
    _assert_runs_equal(fused, composed)


def test_evaluate_peak_memory_below_half_a_user_by_item_array(peak_above_held):
    # validation and `mmssl eval` rank score rows block by block; the
    # (U, I) score matrix is never built
    spec = SyntheticSpec(
        num_users=4000, num_items=3000, modality_dims=(8, 4), interactions_per_user=3, seed=5
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=5)
    trainer = Trainer(
        TrainConfig(seed=1), EncoderConfig(), AdvConfig(), ObjectiveConfig(), EvalConfig(),
        graph, features, split,
    )
    trainer.neighborhoods = mdl.refresh_neighborhoods(
        trainer.state, trainer.adj, trainer.features, trainer.enc_cfg.top_k
    )
    _, peak = peak_above_held(trainer.evaluate, split.val, 20)
    user_by_item = 4000 * 3000 * 8
    assert peak < user_by_item / 2, f"evaluate peaked at {peak / user_by_item:.2f} (U, I) arrays"


def _g_step_peak(peak_above_held, modality_dims=(16, 8), **overrides):
    """Traced peak allocation of one ``g_step`` at U = 1500, I = 1000, d = 64."""
    spec = SyntheticSpec(
        num_users=1500, num_items=1000, modality_dims=modality_dims, interactions_per_user=3, seed=5
    )
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=5)
    trainer = Trainer(
        TrainConfig(seed=1, batch_size=256, **overrides), EncoderConfig(), AdvConfig(),
        ObjectiveConfig(), EvalConfig(), graph, features, split,
    )
    trainer.neighborhoods = mdl.refresh_neighborhoods(
        trainer.state, trainer.adj, trainer.features, trainer.enc_cfg.top_k
    )
    return peak_above_held(lambda: trainer.g_step(trainer._record_chain()))[1]


@pytest.mark.parametrize("modalities, bound", [(1, 3.3), (2, 3.75), (3, 4.2)], ids=["1", "2", "3"])
def test_g_step_peak_memory_grows_under_half_a_user_by_user_array_per_modality(
    peak_above_held, modalities, bound
):
    # the full model (InfoNCE, adversarial, Gumbel): the InfoNCE record
    # builds two (U, U) exponentials per view and no other (U, U) array.  It
    # keeps only the last view's for its vjp, which runs that view first and
    # overwrites them with their partials, then rebuilds each earlier view's
    # one at a time.  Backward frees each record's arrays once its vjp
    # ran, copies no first partial and adds into a first partial that only
    # the sum holds; the propagation, modality-summary and relation-scoring
    # segments keep only their outputs, and add, sub and the routing ops
    # keep shapes, not inputs.  The peak is near 2.95 / 3.40 / 3.86 (U, U)
    # arrays for 1 / 2 / 3 modalities; every view keeping its two
    # exponentials made it 2.95 / 5.40 / 7.86, keeping the relation rows and
    # the mixed attention views until the backward made the two-modality
    # peak 5.78, and a second partial always going into a new array 6.31
    user_by_user = 1500 * 1500 * 8
    peak = _g_step_peak(peak_above_held, (16, 8, 4)[:modalities])
    assert peak < bound * user_by_user, f"g_step peaked at {peak / user_by_user:.2f} (U, U) arrays"


def test_g_step_peak_memory_without_infonce_below_47_user_by_dim_arrays(peak_above_held):
    # with InfoNCE off no (U, U) array exists; the tape's (n, d) arrays set
    # the peak, near 27.7 (U, d) arrays.  Keeping the relation rows and the
    # mixed attention views until the backward made it 36.4, keeping every
    # record's output 80, and the attention record returning all its
    # partials at once and keeping its projections 54
    user_by_dim = 1500 * 64 * 8
    peak = _g_step_peak(peak_above_held, disable_cl=True)
    assert peak < 47 * user_by_dim, f"g_step peaked at {peak / user_by_dim:.1f} (U, d) arrays"


def test_training_without_infonce_peaks_below_half_a_user_by_item_array_per_call(monkeypatch, peak_above_held):
    # the north star's memory contract with InfoNCE off (its (U, U) arrays
    # are the one exception left): no refresh, training step or validation
    # builds a dense (U, I) array.  The size must not shrink: a refresh
    # scores one block of model.REFRESH_BLOCK_BYTES (32 MiB) at a time, so a
    # cold one peaks near 70 MiB at any size past one block, and the bound
    # means something only where U * I exceeds about 18 million (at
    # 3000 x 2500 a cold refresh reads 2.3 times it).  Measured: refreshes
    # 68.9 (cold) and 52.5 MiB, train_step at most 29.8, validation at most 22.7
    spec = SyntheticSpec(num_users=5000, num_items=4000, modality_dims=(32, 16), seed=5)
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=5)
    cfg = TrainConfig(
        seed=1, epochs=2, steps_per_epoch=2, batch_size=64, embed_dim=16, disc_hidden=16, disable_cl=True
    )
    trainer = Trainer(cfg, EncoderConfig(), AdvConfig(), ObjectiveConfig(), EvalConfig(), graph, features, split)
    peaks = []

    def traced(kind, fn):
        def call(*args, **kwargs):
            out, peak = peak_above_held(fn, *args, **kwargs)
            peaks.append((kind, peak))
            return out

        return call

    monkeypatch.setattr(mdl, "refresh_neighborhoods", traced("refresh", mdl.refresh_neighborhoods))
    monkeypatch.setattr(trainer, "train_step", traced("train_step", trainer.train_step))
    monkeypatch.setattr(trainer, "_validate", traced("validate", trainer._validate))
    peak_above_held(trainer.run)
    assert [kind for kind, _ in peaks] == ["refresh", "train_step", "train_step", "validate"] * 2
    half = 5000 * 4000 * 8 / 2
    over = [(kind, round(peak / 2**20, 1)) for kind, peak in peaks if peak >= half]
    assert not over, f"calls peaking at or above {half / 2**20:.1f} MiB: {over}"


def test_sparse_train_rows_equal_dense_rows():
    trainer = build_trainer()
    users = np.array([0, 5, 5, 11, 0, 3, 3, 3])  # repeated users, as d_step draws them
    dense = trainer.split.train.dense_matrix()[users]
    gathered = trainer.split.train.matrix[users].toarray()
    assert gathered.dtype == dense.dtype and gathered.shape == dense.shape
    assert gathered.tobytes() == dense.tobytes()


def held_arrays(trainer):
    """Copies of the trainer's parameters, BN statistics and optimizer moments."""
    held = trainer._held()
    return {name: buf.copy() for group in ("live", "optg", "optd") for name, buf in held[group].items()}


def _without(prefix):
    return lambda arrays, meta: (
        {n: a for n, a in arrays.items() if not n.startswith(prefix)},
        meta,
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without("optg."), "missing array optg."),
        (_without("optd.v."), "missing array optd.v."),
        (_without("id.users"), "missing array id.users"),
        (_without("nbr.1."), "missing array nbr.1."),
        (
            lambda arrays, meta: ({**arrays, "id.users": arrays["id.users"][:-1]}, meta),
            "id.users has shape",
        ),
        (
            lambda arrays, meta: (arrays, {k: v for k, v in meta.items() if k != "opt_gen_t"}),
            "metadata is missing opt_gen_t",
        ),
        (
            lambda arrays, meta: (arrays, {**meta, "rng_adv": {"bit_generator": "PCG64", "state": {}}}),
            "metadata rng_adv is not a generator state",
        ),
        (_without("best."), "missing array best."),
        (
            lambda arrays, meta: (arrays, {**meta, "best_epoch": -1, "best_recall": -1}),
            "metadata best_epoch is -1, yet the checkpoint holds array best.",
        ),
    ],
)
def test_restore_of_a_bad_checkpoint_changes_nothing(tmp_path, edit, message):
    ckpt = tmp_path / "full.ckpt"
    run_tiny(epochs=2, checkpoint=str(ckpt))
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, *edit(*load_checkpoint(ckpt)))
    trainer = build_trainer()
    before, neighborhoods, rng = held_arrays(trainer), trainer.neighborhoods, trainer.rng
    with pytest.raises(ValueError, match=message):
        trainer.restore(broken)
    after = held_arrays(trainer)
    assert all(np.array_equal(before[n], after[n]) for n in before)
    assert trainer.neighborhoods is neighborhoods and trainer.rng is rng and not trainer.best_arrays
    assert trainer.epoch == 0 and trainer.opt_gen.t == 0


def test_a_restore_replaces_the_best_snapshot(tmp_path):
    # a trainer that has validated restores a checkpoint with no best epoch:
    # it keeps no snapshot of its own, so its next save restores
    graph, features, _ = tiny_problem()
    unvalidated = tmp_path / "unvalidated.ckpt"
    no_val = split_edges(graph, (0.9, 0.0, 0.1), seed=0)
    Trainer(*tiny_configs(epochs=1), graph, features, no_val).run(checkpoint_path=unvalidated)
    trainer = run_tiny(epochs=1)
    assert trainer.best_epoch == 0 and trainer.best_arrays
    trainer.restore(unvalidated)
    assert trainer.best_epoch == -1 and not trainer.best_arrays
    trainer.save(tmp_path / "again.ckpt")
    trainer.restore(tmp_path / "again.ckpt")
    assert trainer.best_epoch == -1 and not trainer.best_arrays
    validated = tmp_path / "validated.ckpt"
    run_tiny(epochs=2, checkpoint=validated)
    trainer.restore(validated)
    arrays, meta = load_checkpoint(validated)
    assert trainer.best_epoch == meta["best_epoch"] >= 0
    assert trainer.best_arrays.keys() == {name[len("best.") :] for name in arrays if name.startswith("best.")}
    assert all(np.array_equal(buf, arrays[f"best.{name}"]) for name, buf in trainer.best_arrays.items())


# -- one semantic chain per training step -------------------------------------


def count_chains(monkeypatch):
    """Count the semantic chains trainers build from here on."""
    calls = []
    build = mdl.semantic_embeddings

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(mdl, "semantic_embeddings", counted)
    return calls


def train_step_losses(trainer, steps):
    losses = []
    for _ in range(steps):
        d_losses, g_losses = trainer.train_step()
        losses.extend(d_losses + list(g_losses.values()))
    return losses


def tapes_held(trainer):
    """Trainer attributes that hold a tape, alone or in a tuple or list."""
    return [
        name
        for name, value in vars(trainer).items()
        if isinstance(value, Tape)
        or isinstance(value, (tuple, list)) and any(isinstance(v, Tape) for v in value)
    ]


def test_step_losses_match_the_values_pinned_before_the_chain_was_shared(monkeypatch):
    # d, d, then (l_bpr, l_cl, l_g) of three steps, printed at the commit
    # that computed the chain twice per step; rel 1e-12 leaves room for
    # another BLAS build's rounding, a stale or misplaced chain moves far more
    pinned = [
        0.7147628477017578, 0.8003010680657326,
        0.23643154023144114, 3.9570947018490754, -0.7503929249157522,
        0.8638684838864921, 0.967459631992079,
        0.34500441697596695, 4.029260227796659, -0.6277407141307394,
        0.9354192892677626, 0.8445184652030161,
        0.42638665601096337, 3.983123742062702, -0.5483857060434666,
    ]
    calls = count_chains(monkeypatch)
    trainer = build_trainer(d_steps=2)
    assert trainer.cfg.disable_cl is False and trainer.cfg.disable_gumbel is False
    assert train_step_losses(trainer, 3) == pytest.approx(pinned, rel=1e-12, abs=0)
    assert len(calls) == 3  # one chain per step: both critic steps and the g_step share it


@pytest.mark.parametrize(
    "setting, pinned",
    [
        (
            "disable_gumbel",
            [
                0.6526063987458883, 0.41148244699889486,
                0.23643154023144114, 3.9570947018490754, -0.9539924627629072,
                1.1756309294360863, 0.6185843853423817,
                0.34500921227247416, 4.029222286921767, -0.9973393751425328,
                0.7219397663776932, 0.2643780191145102,
                0.42638839721325905, 3.9830985826556606, -0.8695911490527553,
            ],
        ),
        (
            "zeta=0",
            [
                3.3601049008037727, 0.032069208867389704,
                0.23643154023144114, 3.9570947018490754, -0.9531451684812047,
                0.4030933654167852, 0.23740383693891604,
                0.34500921238725246, 4.029222285789133, -1.0316625599198748,
                0.1083786804801368, 0.6086700562279732,
                0.4263887634701323, 3.9830998103210797, -0.9581495937828484,
            ],
        ),
    ],
)
def test_step_losses_without_the_gumbel_augmentation_match_pinned_values(setting, pinned):
    # d, d, then (l_bpr, l_cl, l_g) of three train_steps, printed at the commit
    # whose critic step took its fake rows from a second modality pass when
    # the augmentation was off; the critic now reads the step's one forward
    if setting == "disable_gumbel":
        trainer = build_trainer(d_steps=2, disable_gumbel=True)
    else:
        trainer = build_trainer(d_steps=2)
        trainer.adv_cfg.zeta = 0.0
    assert train_step_losses(trainer, 3) == pytest.approx(pinned, rel=1e-12, abs=0)


def test_epoch_log_matches_the_values_pinned_before_train_step():
    # per-epoch (l_d, l_bpr, l_cl, l_g) of a two-epoch d_steps=2 run, printed
    # at the commit before train_step; l_d adds the critic losses one at a time
    pinned = [
        [0.8365980079115154, 0.2907179786037041, 3.993177464822867, -0.6890668195232458],
        [0.9162077118530564, 0.40152683506632286, 4.0085420861542325, -0.5343720906549199],
    ]
    log = run_tiny(epochs=2, d_steps=2).log
    got = [[record[k] for k in ("l_d", "l_bpr", "l_cl", "l_g")] for record in log]
    assert got == [pytest.approx(row, rel=1e-12, abs=0) for row in pinned]


def test_no_trainer_attribute_holds_a_tape_after_a_step(monkeypatch):
    trainer = build_trainer(d_steps=2)
    trainer.train_step()
    assert tapes_held(trainer) == []

    def fail(*args, **kwargs):
        raise RuntimeError("critic loss failed")

    with monkeypatch.context() as patch:
        patch.setattr(adversarial, "loss_d", fail)
        with pytest.raises(RuntimeError, match="critic loss failed"):
            trainer.train_step()
    assert tapes_held(trainer) == []


def dead_records(tape, loss):
    """Ops of the tape's records whose outputs do not reach ``loss``."""
    live, dead = {loss.key}, []
    for rec in reversed(tape._records):
        if any(key in live for key in rec.keys):
            live.update(rec.inputs)
        else:
            dead.append(rec.op)
    return dead


@pytest.mark.parametrize("disable_cl", [False, True])
def test_every_record_of_both_step_tapes_reaches_the_loss(monkeypatch, disable_cl):
    seen = []
    backward = Tape.backward

    def spy(tape, loss, params):
        seen.append(dead_records(tape, loss))
        return backward(tape, loss, params)

    monkeypatch.setattr(Tape, "backward", spy)
    trainer = build_trainer(d_steps=2, disable_cl=disable_cl)
    trainer.train_step()
    assert seen == [[], [], []]  # two critic tapes, then the generator's


def list_backward(tape, loss, params):
    """A reverse pass written apart from ``Tape.backward``: each tensor's
    partials wait in a list, a deferred one is called, None is skipped, and
    the list is summed left to right with ``np.add``, never in place."""
    partials = {loss.key: [np.ones_like(loss.data)]}
    for rec in reversed(tape._records):
        g_out = tuple(functools.reduce(np.add, partials.pop(key, [None])) for key in rec.keys)
        vjp, rec.vjp = rec.vjp, None
        if any(g is not None for g in g_out):
            for key, g in zip(rec.inputs, vjp(g_out)):
                g = g() if callable(g) else g
                if g is not None:
                    partials.setdefault(key, []).append(g)
    return FixedGrads((p, functools.reduce(np.add, partials.get(p.key, [np.zeros_like(p.data)]))) for p in params)


def test_a_step_is_bitwise_equal_under_an_independent_reverse_pass(monkeypatch):
    # the gradient map adds into the partials it owns and only those; a
    # reverse pass that never adds in place must give the same bits
    def step(backward):
        spec = SyntheticSpec(num_users=40, num_items=30, modality_dims=(6, 5), seed=3)
        graph, features, _ = generate_synthetic(spec)
        trainer = Trainer(*tiny_configs(d_steps=2), graph, features, split_edges(graph, (0.8, 0.1, 0.1), seed=3))
        trainer.neighborhoods = mdl.refresh_neighborhoods(trainer.state, trainer.adj, trainer.features, 3)
        with monkeypatch.context() as m:
            m.setattr(Tape, "backward", backward)
            losses = trainer.train_step()
        return losses, held_arrays(trainer)

    (want_losses, want), (got_losses, got) = step(Tape.backward), step(list_backward)
    assert got_losses == want_losses and want_losses[1]["l_cl"] > 0  # InfoNCE was on
    assert sorted(got) == sorted(want)
    assert [n for n in want if want[n].tobytes() != got[n].tobytes()] == []


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no python block under '## Library use'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    first, last, best_epoch = capsys.readouterr().out.split()
    assert 0.0 <= float(first) < float(last) <= 1.0 and int(best_epoch) >= 0  # the run learns


def test_non_finite_id_row_names_the_op_in_both_steps():
    # the critic step's chain is taped, so its ops skip their own checks;
    # the step checks what it reads and names the op, as an untaped forward did
    trainer = build_trainer()
    trainer.state.ids.users.data[3] = np.nan
    with pytest.raises(NumericError, match="non-finite value produced by 'sparse_matmul'"):
        trainer.d_step(trainer._record_chain())
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite value produced by 'sparse_matmul'"):
            trainer.g_step(trainer._record_chain())


def test_an_inf_made_inside_propagation_names_the_segment():
    # the views are finite; the two adjacency products overflow inside the
    # segment, which keeps no inner output, so the segment is named
    trainer = build_trainer()
    trainer.adj.user_from_item.data *= 1e200
    trainer.adj.item_from_user.data *= 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite value produced by 'propagate'"):
            trainer.d_step(trainer._record_chain())  # checks the chain it reads with Tape.require_finite
        tape, chain = trainer._record_chain()
        with tape:
            loss = ad.reduce_sum(ad.add(chain.prop_users, ad.reduce_sum(chain.prop_items)))
        with pytest.raises(NumericError, match="non-finite value produced by 'propagate'"):
            tape.backward(loss, params=trainer.state.generator_parameters())


def test_a_nan_made_inside_the_attention_names_the_modality_summary_in_both_steps():
    trainer = build_trainer()
    trainer.state.attn.query[0].data[:] = np.nan
    with np.errstate(invalid="ignore"):
        for step in (trainer.d_step, trainer.g_step):
            with pytest.raises(NumericError, match="^non-finite value produced by 'modality_summary'$"):
                step(trainer._record_chain())


@pytest.mark.parametrize(
    "where, named",
    [("gen.w0", "modality_collab_embeddings"), ("disc.w1", "relation_scores")],
)
def test_a_nan_in_the_generator_steps_adversarial_scoring_names_its_stage(where, named):
    # a non-finite prior is named by the stage that made it; one made while
    # the critic scores the relation rows, by that segment.  An eval-mode
    # batch norm leaves a taped call to backward's check, which replays
    trainer = build_trainer()
    trainer.state.named_parameters()[where].data[0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=f"^non-finite value produced by '{named}'$"):
            trainer.g_step(trainer._record_chain())


def test_the_chain_keeps_no_mixed_view_and_a_step_keeps_its_bits(monkeypatch):
    # the mean is the one reader of the attention's mixed views, and the
    # segment over both keeps only the mean: once the chain is recorded no
    # mixed view is alive.  Against the step with every record keeping its
    # outputs, every product both operands and the critic's weights as
    # parameters, no loss or trained value moves
    mixed = []
    attend = ad.head_attention

    def spy(*args):
        outs = attend(*args)
        mixed.extend(weakref.ref(t.data) for t in outs)
        return outs

    def step(trainer):
        return trainer.train_step(), held_arrays(trainer)

    with monkeypatch.context() as patch:
        patch.setattr(ad, "head_attention", spy)
        trainer = build_trainer(d_steps=2)
        taped = trainer._record_chain()
        assert len(mixed) == 4 and all(ref() is None for ref in mixed)  # two modalities, two sides
        del taped
        got = step(trainer)
    with monkeypatch.context() as patch:
        patch.setattr(ad, "segment", lambda op, fn, *args: fn(*args))
        patch.setattr(ad, "_may_be_requested", lambda t: True)
        patch.setattr(adversarial.DiscriminatorParams, "as_constants", lambda disc: disc)
        want = step(build_trainer(d_steps=2))
    assert got[0] == want[0] and want[0][1]["l_cl"] > 0 and want[0][1]["l_g"] != 0
    assert sorted(got[1]) == sorted(want[1])
    assert [n for n in want[1] if want[1][n].tobytes() != got[1][n].tobytes()] == []


@pytest.mark.parametrize("call", ["train_step", "evaluate"])
def test_steps_before_any_refresh_say_how_to_get_neighborhoods(call):
    graph, features, split = tiny_problem()
    trainer = Trainer(*tiny_configs(), graph, features, split)
    args = (split.val, 5) if call == "evaluate" else ()
    with pytest.raises(ValueError, match=r"trainer\.neighborhoods via model\.refresh_neighborhoods"):
        getattr(trainer, call)(*args)


# -- the previous neighbourhood bounds each refresh -----------------------------


def _refresh_spy(monkeypatch, withhold: bool) -> list:
    """Record whether each refresh got a previous neighbourhood; with
    ``withhold``, every refresh runs cold."""
    got = []
    refresh = mdl.refresh_neighborhoods

    def spy(state, adj, features, top_k, previous=None):
        got.append(previous is not None)
        return refresh(state, adj, features, top_k, None if withhold else previous)

    monkeypatch.setattr(mdl, "refresh_neighborhoods", spy)
    return got


@pytest.mark.parametrize("refresh_every", [1, 2])
@pytest.mark.parametrize("resume", [False, True])
def test_training_is_bitwise_equal_with_and_without_the_previous_neighbourhood(
    tmp_path, monkeypatch, refresh_every, resume
):
    spec = SyntheticSpec(num_users=60, num_items=40, modality_dims=(6, 5), seed=4)
    graph, features, _ = generate_synthetic(spec)
    split = split_edges(graph, (0.8, 0.1, 0.1), seed=4)

    def run(label, epochs, resume_from=None):
        cfg = TrainConfig(
            seed=1, epochs=epochs, batch_size=8, steps_per_epoch=5, lr_gen=5e-2,
            embed_dim=8, disc_hidden=8, patience=100,
        )
        ckpt, log = tmp_path / f"{label}.ckpt", tmp_path / f"{label}.ndjson"
        trainer = Trainer(
            cfg, EncoderConfig(top_k=3, refresh_every=refresh_every), AdvConfig(),
            ObjectiveConfig(), EvalConfig(), graph, features, split,
        )
        if resume_from is not None:
            trainer.restore(resume_from)
        trainer.run(checkpoint_path=ckpt, log_path=log)
        return (*load_checkpoint(ckpt), log.read_text().splitlines())

    runs = []
    for withhold in (True, False):
        with monkeypatch.context() as m:
            warm = _refresh_spy(m, withhold)
            label = "cold" if withhold else "warm"
            if resume:  # one epoch, then two more from its checkpoint
                run(f"{label}-mid", 1)
                runs.append(run(label, 3, resume_from=tmp_path / f"{label}-mid.ckpt"))
            else:
                runs.append(run(label, 3))
        assert warm == [False] + [True] * (len(warm) - 1) and len(warm) == (3 if refresh_every == 1 else 2)
    _assert_runs_equal(*runs)


@pytest.mark.parametrize(
    "value, message",
    [
        (1e9, r"nbr\.0\.users holds an id that is not a whole number in \[0, 10\)"),
        (-3, r"nbr\.0\.users holds an id that is not a whole number"),
        (np.nan, r"nbr\.0\.users holds an id that is not a whole number"),
        (2.5, r"nbr\.0\.users holds an id that is not a whole number"),
        ("repeat", r"nbr\.0\.users repeats an id within a row"),
    ],
)
def test_restore_refuses_bad_neighbour_ids_and_changes_nothing(tmp_path, value, message):
    ckpt = tmp_path / "full.ckpt"
    run_tiny(epochs=2, checkpoint=str(ckpt))
    arrays, meta = load_checkpoint(ckpt)
    ids = arrays["nbr.0.users"].copy()
    ids[0, 0] = ids[0, 1] if value == "repeat" else value
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, {**arrays, "nbr.0.users": ids}, meta)
    trainer = build_trainer()
    before, neighborhoods = held_arrays(trainer), trainer.neighborhoods
    with pytest.raises(ValueError, match=message):
        trainer.restore(broken)
    after = held_arrays(trainer)
    assert all(np.array_equal(before[n], after[n]) for n in before)
    assert trainer.neighborhoods is neighborhoods and trainer.epoch == 0


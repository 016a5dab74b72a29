"""End-to-end command-line workflows on a throwaway dataset."""

import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmssl import model as mdl, trainer
from mmssl.cli import _build_trainer, main
from mmssl.config import apply_env, load_config, resolve_settings
from mmssl.data import load_modality_features, write_modality_features
from mmssl.trainer import _config_fingerprint, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "data"
    spec = {
        "num_users": 12,
        "num_items": 10,
        "modality_dims": [6, 5],
        "latent_dim": 3,
        "interactions_per_user": 3,
        "noise": 0.3,
        "seed": 5,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--out", str(out), "--spec", str(spec_path)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "train.epochs": 2,
                "train.batch_size": 8,
                "train.steps_per_epoch": 2,
                "train.embed_dim": 8,
                "train.disc_hidden": 8,
                "enc.top_k": 3,
            }
        )
    )
    out = root / "out"
    code = main(
        ["train", "--data", str(data_dir), "--out", str(out), "--config", str(config)]
    )
    assert code == 0
    return out


def test_synth_writes_expected_files(data_dir, capsys):
    assert (data_dir / "interactions.txt").is_file()
    assert sorted(p.name for p in data_dir.glob("*.mmf")) == [
        "modality0.mmf",
        "modality1.mmf",
    ]
    assert (data_dir / "spec.json").is_file()
    doc = json.loads((data_dir / "spec.json").read_text())
    assert doc["num_users"] == 12


def test_train_produces_artifacts(train_dir, capsys):
    assert (train_dir / "final.ckpt").is_file()
    assert (train_dir / "best.ckpt").is_file()
    assert (train_dir / "config.json").is_file()
    lines = (train_dir / "metrics.ndjson").read_text().strip().splitlines()
    assert len(lines) == 2
    assert {"epoch", "recall", "l_bpr"} <= set(json.loads(lines[0]))


def test_eval_prints_json_report(data_dir, train_dir, capsys):
    code = main(
        [
            "eval",
            "--checkpoint",
            str(train_dir / "best.ckpt"),
            "--data",
            str(data_dir),
            "--split",
            "val",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 20
    assert set(doc["overall"]) == {"recall", "precision", "ndcg"}


def test_eval_k_override(data_dir, train_dir, capsys):
    code = main(
        [
            "eval",
            "--checkpoint",
            str(train_dir / "final.ckpt"),
            "--data",
            str(data_dir),
            "--k",
            "5",
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["k"] == 5


@pytest.mark.parametrize("k", ["0", "-1"])
def test_eval_rejects_k_below_one(data_dir, train_dir, capsys, k):
    code = main(
        ["eval", "--checkpoint", str(train_dir / "final.ckpt"), "--data", str(data_dir), "--k", k]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--k must be at least 1" in err
    assert "Traceback" not in err


def test_eval_text_report(data_dir, train_dir, capsys):
    code = main(
        [
            "eval",
            "--checkpoint",
            str(train_dir / "best.ckpt"),
            "--data",
            str(data_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recall@20" in out


def test_report_text_and_json(train_dir, capsys):
    log = str(train_dir / "metrics.ndjson")
    assert main(["report", "--log", log]) == 0
    text = capsys.readouterr().out
    assert "epoch" in text and "recall" in text
    assert main(["report", "--log", log, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list) and len(doc) == 2


def test_report_missing_and_corrupt_files(tmp_path, capsys):
    assert main(["report", "--log", str(tmp_path / "nope.ndjson")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"epoch": 0}\nnot json\n')
    assert main(["report", "--log", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_gradcheck_substrate_passes(capsys, unchecked_primitives):
    assert main(["gradcheck", "--module", "substrate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"substrate/\w+: max_rel_err=\S+ ok", line) for line in lines)
    cases = [line.split(":")[0].removeprefix("substrate/") for line in lines]
    assert "row_sq_norms" in cases and unchecked_primitives(cases) == []


def test_gradcheck_losses_prints_the_five_losses_in_order(capsys):
    assert main(["gradcheck", "--module", "losses"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"losses/{name}" for name in ("l_bpr", "l_cl", "l_g", "l_d", "l_total")
    ]
    assert all(re.fullmatch(r"losses/\w+: max_rel_err=\S+ ok", line) for line in lines)


def test_gradcheck_impossible_tolerance_fails(capsys):
    assert main(["gradcheck", "--module", "substrate", "--tolerance", "0"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "above tolerance" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf"])
def test_gradcheck_rejects_a_bad_tolerance_before_any_check(capsys, tolerance):
    assert main(["gradcheck", f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no check ran
    assert "--tolerance must be a finite number of at least 0" in captured.err


def test_usage_errors_exit_one(capsys):
    assert main(["eval", "--data", "/tmp"]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["train", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1


def test_train_rejects_missing_data(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "interactions.txt" in capsys.readouterr().err


def test_train_rejects_short_feature_table(data_dir, tmp_path, capsys):
    short = tmp_path / "data"
    shutil.copytree(data_dir, short)
    table = load_modality_features(short / "modality1.mmf")
    write_modality_features(short / "modality1.mmf", table.values[:-1])
    code = main(["train", "--data", str(short), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "modality1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("header", ["# users=1000000000000 items=2", "# users=4 items=-1"])
def test_train_rejects_impossible_header_counts(data_dir, tmp_path, header, capsys):
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    (bad / "interactions.txt").write_text("\n".join([header, "0\t0", "1\t1"]) + "\n")
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert header[2:] in err and "Traceback" not in err


def test_train_rejects_unknown_config_key(data_dir, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train.womp": 1}))
    code = main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(config)]
    )
    assert code == 1
    assert "train.womp" in capsys.readouterr().err


def test_eval_rejects_missing_checkpoint(data_dir, capsys):
    code = main(
        ["eval", "--checkpoint", "/nonexistent.ckpt", "--data", str(data_dir)]
    )
    assert code == 1


def test_eval_rejects_checkpoint_missing_arrays(data_dir, train_dir, tmp_path, capsys):
    arrays, meta = load_checkpoint(train_dir / "best.ckpt")
    kept = {name: arr for name, arr in arrays.items() if not name.startswith("bn.disc.")}
    broken = tmp_path / "no_bn.ckpt"
    save_checkpoint(broken, kept, meta)
    code = main(["eval", "--checkpoint", str(broken), "--data", str(data_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bn.disc.bn1.mean" in err
    assert "Traceback" not in err


def test_train_rejects_out_of_range_config(data_dir, tmp_path, capsys):
    config = tmp_path / "zero_batch.json"
    config.write_text(json.dumps({"train.batch_size": 0}))
    code = main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "out"), "--config", str(config)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "train.batch_size" in err
    assert "Traceback" not in err


def test_train_rejects_zero_heads_without_traceback(data_dir, tmp_path, capsys):
    config = tmp_path / "zero_heads.json"
    config.write_text(json.dumps({"enc.heads": 0}))
    code = main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "out"), "--config", str(config)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "enc.heads" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("buckets", [[5, 3], [0, 4, 4, 9], [7]])
def test_train_rejects_bad_buckets_before_any_epoch(data_dir, tmp_path, capsys, buckets):
    config = tmp_path / "buckets.json"
    config.write_text(json.dumps({"eval.buckets": buckets}))
    out = tmp_path / "out"
    code = main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert "eval.buckets" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("train.disable_cl", "false"), ("train.epochs", 2.9)])
def test_train_rejects_wrongly_typed_config(data_dir, tmp_path, capsys, key, value):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({key: value}))
    code = main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "out"), "--config", str(config)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def _edited(arrays, drop=None, put=()):
    """``arrays`` without the names that start with ``drop``, and with zeros
    of the given shape under each name of ``put``."""
    kept = {name: arr for name, arr in arrays.items() if drop is None or not name.startswith(drop)}
    return {**kept, **{name: np.zeros(shape) for name, shape in dict(put).items()}}


@pytest.mark.parametrize(
    "drop, put, message, commands",
    [
        # eval reads no optimizer state, so only a resume needs it
        pytest.param("optg.", (), "missing array optg.", ("resume",), id="optg-absent"),
        pytest.param("id.users", (), "missing array id.users", ("resume", "eval"), id="live-missing"),
        pytest.param(None, {"id.users": (3, 3)}, "array id.users has shape (3, 3)", ("resume", "eval"), id="live-shape"),
        pytest.param("optg.v.gen.w0", (), "missing array optg.v.gen.w0", ("resume", "eval"), id="optg-missing"),
        pytest.param(
            None, {"optg.m.gen.w0": (3, 3)}, "array optg.m.gen.w0 has shape (3, 3)", ("resume", "eval"), id="optg-shape"
        ),
        pytest.param("nbr.1.items", (), "missing array nbr.1.items", ("resume", "eval"), id="nbr-missing"),
        pytest.param(
            None, {"nbr.0.users": (3, 3)}, "array nbr.0.users has shape (3, 3)", ("resume", "eval"), id="nbr-shape"
        ),
        pytest.param("best.id.users", (), "missing array best.id.users", ("resume", "eval"), id="best-missing"),
        pytest.param(
            None, {"best.gen.w0": (3, 3)}, "array best.gen.w0 has shape (3, 3)", ("resume", "eval"), id="best-shape"
        ),
        # the metadata names a best epoch, so a resume needs its snapshot;
        # eval reads no best state
        pytest.param("best.", (), "missing array best.", ("resume",), id="best-absent"),
    ],
)
def test_resume_rejects_checkpoint_without_optimizer_state(
    data_dir, train_dir, tmp_path, capsys, drop, put, message, commands
):
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, _edited(arrays, drop, put), meta)
    argv = {
        "resume": [
            "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
            "--config", str(train_dir / "config.json"), "--resume", str(broken),
        ],
        "eval": ["eval", "--checkpoint", str(broken), "--data", str(data_dir)],
    }
    for command in commands:
        capsys.readouterr()
        assert main(argv[command]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, value, fault",
    [
        # eval never runs the critic, so its weights and statistics were read unchecked
        ("disc.w1", np.nan, "non-finite"),
        ("id.users", np.nan, "non-finite"),
        ("gen.w0", -np.inf, "non-finite"),
        ("bn.disc.bn1.var", -1.0, "negative"),
        ("best.bn.disc.bn2.var", -1.0, "negative"),
        ("optg.v.id.users", -1.0, "negative"),
    ],
)
def test_a_checkpoint_value_no_run_makes_exits_1_on_eval_and_resume_naming_the_array(
    data_dir, train_dir, tmp_path, capsys, name, value, fault
):
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    bad = arrays[name].copy()
    bad.flat[0] = value
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, {**arrays, name: bad}, meta)
    resume = [
        "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
        "--config", str(train_dir / "config.json"), "--resume", str(broken),
    ]
    for argv in (["eval", "--checkpoint", str(broken), "--data", str(data_dir)], resume):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint array {name} holds a {fault} value\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "drop, edit, message",
    [
        pytest.param(
            None, {"best_epoch": -1, "best_recall": -1},
            "checkpoint metadata best_epoch is -1, yet the checkpoint holds array best.", id="snapshot-without-epoch",
        ),
        pytest.param(
            "best.", {"best_epoch": -1},
            "checkpoint metadata best_recall is not -1 under best_epoch -1", id="recall-without-epoch",
        ),
        pytest.param(
            None, {"best_recall": -1},
            "checkpoint metadata best_recall is not a number in [0, 1] under best_epoch", id="epoch-without-recall",
        ),
    ],
)
def test_resume_refuses_a_best_state_that_disagrees_naming_the_key(
    data_dir, train_dir, tmp_path, capsys, drop, edit, message
):
    # best_epoch -1, best_recall -1 and no best. group go together
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    assert meta["best_epoch"] >= 0
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, _edited(arrays, drop), {**meta, **edit})
    code = main(
        [
            "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
            "--config", str(train_dir / "config.json"), "--resume", str(broken),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_resume_from_best_ckpt_is_refused_for_its_missing_optimizer_moments(data_dir, train_dir, tmp_path, capsys):
    code = main(
        [
            "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
            "--config", str(train_dir / "config.json"), "--resume", str(train_dir / "best.ckpt"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint is missing array optg.m.attn.k0\n"
    assert not (tmp_path / "out").exists()


def test_train_that_finishes_no_epoch_says_no_validation_ran(data_dir, tmp_path, capsys):
    config = tmp_path / "none.json"
    config.write_text(json.dumps({"train.epochs": 0}))
    out = tmp_path / "out"
    assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(config)]) == 0
    assert capsys.readouterr().out == "trained 0 epochs; no validation ran, so no best epoch\n"
    assert not (out / "best.ckpt").exists() and not (out / "final.ckpt").exists()


def test_a_diverging_run_exits_2_naming_the_op_epoch_and_step(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_users": 60, "num_items": 40}))
    assert main(["synth", "--out", str(tmp_path / "data"), "--spec", str(spec)]) == 0
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train.lr_gen": 1e200, "train.epochs": 3, "train.batch_size": 16}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "data"), "--out", str(out), "--config", str(config)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numeric failure: non-finite value produced by '")
    assert re.search(r"' in epoch 0, step \d+$", line), line
    assert not (out / "best.ckpt").exists()


def test_train_without_validation_edges_runs_every_epoch_and_writes_no_best(data_dir, tmp_path, capsys):
    # round(0.0 x edges) is 0: no epoch is validated, so none is best and
    # patience (10 by default) never stops the run
    config = tmp_path / "no_val.json"
    config.write_text(json.dumps({
        "train.split": [0.9, 0.0, 0.1], "train.epochs": 15, "train.steps_per_epoch": 1,
        "train.batch_size": 8, "train.embed_dim": 8, "train.disc_hidden": 8, "enc.top_k": 3,
    }))
    out = tmp_path / "out"
    assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("trained 15 epochs; no validation ran, so no best epoch\n")
    records = [json.loads(line) for line in (out / "metrics.ndjson").read_text().splitlines()]
    assert [r["epoch"] for r in records] == list(range(15))
    assert all(set(r) == {"epoch", "l_bpr", "l_cl", "l_g", "l_d"} for r in records)
    assert (out / "final.ckpt").is_file() and not (out / "best.ckpt").exists()
    assert main(["report", "--log", str(out / "metrics.ndjson")]) == 0  # the metric cells are blank


def test_a_negative_seed_exits_one_naming_its_key(data_dir, tmp_path, capsys, monkeypatch):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"train.seed": -1}))
    out = tmp_path / "out"
    assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: train.seed must be at least 0, got -1\n"
    monkeypatch.setenv("MMSSL_SEED", "-5")
    assert main(["train", "--data", str(data_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: train.seed must be at least 0, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["report", "train"])
def test_a_closed_stdout_exits_141_silently_and_keeps_what_was_written(
    data_dir, train_dir, tmp_path, command, unbuffered
):
    # a reader that has gone (`mmssl train ... | head -1`): a buffered stdout
    # fails in the exit flush, an unbuffered one in the first print
    config = tmp_path / "two_steps.json"
    config.write_text(json.dumps({"train.epochs": 1, "train.steps_per_epoch": 2, "train.batch_size": 8,
                                  "train.embed_dim": 8, "train.disc_hidden": 8, "enc.top_k": 3}))
    argv = {
        "report": ["report", "--log", str(train_dir / "metrics.ndjson")],
        "train": ["train", "--data", str(data_dir), "--out", str(tmp_path / "out"), "--config", str(config)],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mmssl.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
    if command == "train":
        assert (tmp_path / "out" / "final.ckpt").is_file() and (tmp_path / "out" / "best.ckpt").is_file()


def test_checkpoints_survive_a_load_and_a_save_byte_for_byte(train_dir, tmp_path):
    for name in ("final.ckpt", "best.ckpt"):
        save_checkpoint(tmp_path / name, *load_checkpoint(train_dir / name))
        assert (tmp_path / name).read_bytes() == (train_dir / name).read_bytes()


def _retired_key_evaluates_but_cannot_resume(data_dir, train_dir, tmp_path, capsys, key, value):
    arrays, meta = load_checkpoint(train_dir / "best.ckpt")
    config = {**meta["config"], key: value}
    old_meta = dict(meta, config=config, config_hash=_config_fingerprint(config))
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, arrays, old_meta)
    args = ["--data", str(data_dir), "--split", "val", "--format", "json"]
    assert main(["eval", "--checkpoint", str(train_dir / "best.ckpt"), *args]) == 0
    current = capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(old), *args]) == 0
    assert capsys.readouterr().out == current
    # resuming it is refused: its stored config hashes differently
    code = main(
        [
            "train",
            "--data",
            str(data_dir),
            "--out",
            str(tmp_path / "out"),
            "--config",
            str(train_dir / "config.json"),
            "--resume",
            str(old),
        ]
    )
    assert code == 1
    assert "different configuration" in capsys.readouterr().err


def test_eval_reads_checkpoint_with_retired_threads_key(data_dir, train_dir, tmp_path, capsys):
    # checkpoints written while evaluation had a thread pool store eval.threads
    _retired_key_evaluates_but_cannot_resume(
        data_dir, train_dir, tmp_path, capsys, "eval.threads", 2
    )


def test_eval_reads_checkpoint_with_retired_block_rows_key(data_dir, train_dir, tmp_path, capsys):
    # checkpoints written while the refresh block size was a knob store adv.block_rows
    _retired_key_evaluates_but_cannot_resume(
        data_dir, train_dir, tmp_path, capsys, "adv.block_rows", 0
    )


def test_refused_resume_keeps_config_json(data_dir, train_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(train_dir, run)
    before = (run / "config.json").read_bytes()
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**json.loads(before), "train.lr_gen": 0.01}))
    code = main(
        [
            "train", "--data", str(data_dir), "--out", str(run),
            "--config", str(changed), "--resume", str(run / "final.ckpt"),
        ]
    )
    assert code == 1
    assert "different configuration" in capsys.readouterr().err
    assert (run / "config.json").read_bytes() == before


@pytest.mark.parametrize("flag", ["--config", "--resume", "--checkpoint", "--spec"])
def test_directory_given_as_file_exits_one(data_dir, train_dir, tmp_path, capsys, flag):
    folder = str(tmp_path)
    out = str(tmp_path / "out")
    argv = {
        "--config": ["train", "--data", str(data_dir), "--out", out, "--config", folder],
        "--resume": [
            "train", "--data", str(data_dir), "--out", out,
            "--config", str(train_dir / "config.json"), "--resume", folder,
        ],
        "--checkpoint": ["eval", "--checkpoint", folder, "--data", str(data_dir)],
        "--spec": ["synth", "--out", out, "--spec", folder],
    }[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_rejects_truncated_checkpoint_header(data_dir, tmp_path, capsys):
    short = tmp_path / "short.ckpt"
    short.write_bytes(b"MMCK\x01\x00\x00")
    assert main(["eval", "--checkpoint", str(short), "--data", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert "truncated checkpoint header" in err and "Traceback" not in err


def test_non_object_checkpoint_metadata_exits_one_naming_the_file(data_dir, train_dir, tmp_path, capsys):
    arrays, _ = load_checkpoint(train_dir / "final.ckpt")
    broken = tmp_path / "listed.ckpt"
    save_checkpoint(broken, arrays, [1, 2])
    resume = [
        "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
        "--config", str(train_dir / "config.json"), "--resume", str(broken),
    ]
    for argv in (["eval", "--checkpoint", str(broken), "--data", str(data_dir)], resume):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "listed.ckpt: checkpoint metadata is not a JSON object" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("epoch", "1"),
        ("rng", {"bit_generator": "PCG64", "state": {}}),
        ("opt_gen_t", "2"),
        ("best_recall", "x"),
        ("best_epoch", 7),
        ("best_epoch", True),
        ("epoch", -3),
        ("opt_disc_t", -1),
        ("best_recall", float("nan")),
        ("best_recall", float("inf")),
        ("best_recall", 1.5),
        ("best_recall", -0.5),
    ],
)
def test_resume_rejects_malformed_metadata_naming_the_key(data_dir, train_dir, tmp_path, capsys, key, value):
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    broken = tmp_path / "malformed.ckpt"
    save_checkpoint(broken, arrays, {**meta, key: value})
    code = main(
        [
            "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
            "--config", str(train_dir / "config.json"), "--resume", str(broken),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"checkpoint metadata {key} is not" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_a_checkpoint_config_that_is_not_an_object(data_dir, train_dir, tmp_path, capsys):
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    broken = tmp_path / "listed.ckpt"
    save_checkpoint(broken, arrays, {**meta, "config": [1, 2]})
    assert main(["eval", "--checkpoint", str(broken), "--data", str(data_dir)]) == 1
    assert "listed.ckpt: checkpoint config is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{}, None], ids=["empty", "absent"])
def test_eval_rejects_a_checkpoint_that_records_no_config(data_dir, train_dir, tmp_path, capsys, config):
    # a Trainer built without config_flat stores {}; the default config
    # would rebuild another model from it and report that model's numbers
    arrays, meta = load_checkpoint(train_dir / "final.ckpt")
    meta.pop("config")
    broken = tmp_path / "bare.ckpt"
    save_checkpoint(broken, arrays, meta if config is None else {**meta, "config": config})
    assert main(["eval", "--checkpoint", str(broken), "--data", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert "bare.ckpt: checkpoint records no config" in err and "Traceback" not in err


def test_report_reads_eval_json_output(data_dir, train_dir, tmp_path, capsys):
    args = ["--checkpoint", str(train_dir / "best.ckpt"), "--data", str(data_dir)]
    assert main(["eval", *args, "--format", "json"]) == 0
    written = capsys.readouterr().out
    assert "\n" in written.strip()  # pretty-printed over many lines
    report_path = tmp_path / "report.json"
    report_path.write_text(written)
    assert main(["report", "--log", str(report_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(written)
    # the text form is the table `mmssl eval --format text` prints
    assert main(["eval", *args, "--format", "text"]) == 0
    table = capsys.readouterr().out
    assert "bucket" in table
    assert main(["report", "--log", str(report_path), "--format", "text"]) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"epoch": 0}\n[1, 2]\n', "line 2: not a JSON object"),
        ('"done"\n', "line 1: not a JSON object"),
        ('{"epoch": 0, "recall": "high"}\n', "line 1: recall is not a number"),
        ('{"k": 5, "num_users": 3, "overall": {"recall": "x", "precision": 0.1, "ndcg": 0.2}}',
         "overall.recall is not a number"),
        ('{"k": 5, "num_users": 3, "overall": [0.1]}', "overall is not an object"),
        ('{"k": 5, "num_users": 3, "overall": {"recall": 0.1, "precision": 0.1, "ndcg": 0.2},'
         ' "buckets": {"[0,4)": {"users": 2, "recall": 0.1, "precision": null, "ndcg": 0.2}}}',
         "buckets.[0,4).precision is not a number"),
        ('{"k": 5, "num_users": 3, "overall": {"recall": 0.1, "precision": 0.1, "ndcg": 0.2},'
         ' "buckets": {"sparse": {}}}',
         "bucket labels must read [low,high)"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_rejects_json_that_is_not_a_record(tmp_path, capsys, text, message, fmt):
    log = tmp_path / "log.ndjson"
    log.write_text(text)
    assert main(["report", "--log", str(log), "--format", fmt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log.ndjson") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("noise", "x", "noise must be a number"),
        ("noise", -0.5, "noise must be a finite non-negative number"),
        ("num_users", 2.5, "num_users must be a whole number"),
        ("num_items", True, "num_items must be a whole number"),
        ("seed", "3", "seed must be a whole number"),
        ("interactions_per_user", -1, "interactions_per_user must lie in 0..num_items=40"),
        ("interactions_per_user", 41, "interactions_per_user must lie in 0..num_items=40"),
        ("modality_dims", [8, 0], "modality_dims must be positive"),
        ("modality_dims", [8, 2.0], "modality_dims must be a whole number"),
        ("modality_dims", 8, "modality_dims must be a list"),
        ("latent_dim", 0, "latent_dim must be positive"),
        ("modality_dims", [], "modality_dims must name at least one modality"),
    ],
)
def test_synth_rejects_bad_spec_fields(tmp_path, capsys, field, value, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({field: value}))
    assert main(["synth", "--out", str(tmp_path / "out"), "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_too_large_to_allocate_exits_one(tmp_path, capsys):
    # 2**40 users: the first array alone is 48 TiB, refused at once
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_users": 2**40}))
    assert main(["synth", "--out", str(tmp_path / "out"), "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 48.0 TiB")
    assert "(1099511627776, 6)" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_too_large_to_allocate_exits_one(data_dir, tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"train.embed_dim": 10**12}))
    code = main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "out"), "--config", str(config)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and "TiB" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_report_renders_one_epoch_log_as_table(train_dir, tmp_path, capsys):
    first = (train_dir / "metrics.ndjson").read_text().splitlines()[0]
    log = tmp_path / "metrics.ndjson"
    log.write_text(first + "\n")
    assert main(["report", "--log", str(log)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["epoch", "l_bpr", "l_cl", "l_g", "l_d", "recall", "ndcg", "precision"]
    assert len(lines) == 2 and lines[1].split()[0] == "0"
    assert main(["report", "--log", str(log), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [json.loads(first)]


@pytest.fixture(scope="module")
def between_refreshes(tmp_path_factory):
    """A one-epoch run that refreshes every second epoch, so a resume trains
    on the ids its checkpoint stores."""
    root = tmp_path_factory.mktemp("between")
    spec = {
        "num_users": 120,
        "num_items": 90,
        "modality_dims": [8, 6],
        "latent_dim": 4,
        "interactions_per_user": 5,
        "seed": 3,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--out", str(root / "data"), "--spec", str(root / "spec.json")]) == 0
    config = {
        "train.epochs": 1,
        "enc.refresh_every": 2,
        "train.steps_per_epoch": 2,
        "train.batch_size": 32,
    }
    (root / "config.json").write_text(json.dumps(config))
    (root / "config2.json").write_text(json.dumps({**config, "train.epochs": 2}))
    args = ["--data", str(root / "data"), "--config", str(root / "config.json")]
    assert main(["train", "--out", str(root / "out"), *args]) == 0
    return root


@pytest.mark.parametrize(
    "value, message",
    [
        (1e9, "nbr.0.users holds an id that is not a whole number in [0, 90)"),
        (-3, "nbr.0.users holds an id that is not a whole number"),
        (float("nan"), "nbr.0.users holds an id that is not a whole number"),
        (2.5, "nbr.0.users holds an id that is not a whole number"),
        ("repeat", "nbr.0.users repeats an id within a row"),
    ],
)
def test_bad_neighbour_ids_exit_1_on_resume_and_eval(between_refreshes, tmp_path, capsys, value, message):
    root = between_refreshes
    arrays, meta = load_checkpoint(root / "out" / "final.ckpt")
    ids = arrays["nbr.0.users"].copy()
    ids[0, 0] = ids[0, 1] if value == "repeat" else value
    broken = tmp_path / "broken.ckpt"
    save_checkpoint(broken, {**arrays, "nbr.0.users": ids}, meta)
    data = ["--data", str(root / "data")]
    resume = ["train", "--out", str(tmp_path / "out"), "--config", str(root / "config2.json")]
    for argv in (resume + data + ["--resume", str(broken)], ["eval", "--checkpoint", str(broken)] + data):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_reads_stored_ids_as_a_bound_only(between_refreshes, tmp_path, capsys, monkeypatch):
    from mmssl import model as mdl

    root = between_refreshes
    refresh, bounded = mdl.refresh_neighborhoods, []

    def spy(state, adj, features, top_k, previous=None):
        bounded.append(previous is not None)
        return refresh(state, adj, features, top_k, previous)

    monkeypatch.setattr(mdl, "refresh_neighborhoods", spy)
    arrays, meta = load_checkpoint(root / "out" / "final.ckpt")
    without = tmp_path / "no_ids.ckpt"
    save_checkpoint(without, {n: a for n, a in arrays.items() if not n.startswith("nbr.")}, meta)
    args = ["--data", str(root / "data"), "--split", "val", "--format", "json"]
    reports = []
    for ckpt in (root / "out" / "final.ckpt", without, root / "out" / "best.ckpt"):
        assert main(["eval", "--checkpoint", str(ckpt), *args]) == 0
        reports.append(capsys.readouterr().out)
    assert bounded == [True, False, False]  # best.ckpt stores no ids: a cold scan, as before
    assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def three_modalities(tmp_path_factory):
    """A 2-epoch run on three 16-wide modalities, and its data directory
    without ``modality1.mmf``."""
    root = tmp_path_factory.mktemp("three")
    spec = {"num_users": 120, "num_items": 90, "modality_dims": [16, 16, 16], "seed": 2}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--out", str(root / "data"), "--spec", str(root / "spec.json")]) == 0
    (root / "config.json").write_text(json.dumps({"train.epochs": 2, "train.steps_per_epoch": 3}))
    args = ["--data", str(root / "data"), "--config", str(root / "config.json")]
    assert main(["train", "--out", str(root / "out"), *args]) == 0
    shutil.copytree(root / "data", root / "two")
    (root / "two" / "modality1.mmf").unlink()
    return root


@pytest.mark.parametrize(
    "command, put, message",
    [
        pytest.param("eval", (), "gen.b2", id="eval"),
        pytest.param("resume", (), "gen.b2", id="resume"),
        *(
            pytest.param(command, {name: (2,)}, name, id=f"{command}-{name}")
            for name in ("gen.bogus", "optg.m.bogus", "nbr.3.users", "best.bogus")
            for command in ("eval", "resume")
        ),
        # a best snapshot that is both misshapen and foreign
        *(
            pytest.param(command, {"best.gen.w0": (3, 3), "best.bogus": (2,)}, "best.bogus", id=f"{command}-best")
            for command in ("eval", "resume")
        ),
    ],
)
def test_checkpoint_with_more_modalities_than_the_data_exits_1(three_modalities, tmp_path, capsys, command, put, message):
    """Without ``put``, the three-modality checkpoint on the data directory
    of two; with it, the checkpoint plus those arrays on its own data."""
    root = three_modalities
    ckpt = str(root / "out" / "final.ckpt")
    data = ["--data", str(root / ("data" if put else "two"))]
    if put:
        arrays, meta = load_checkpoint(ckpt)
        ckpt = str(tmp_path / "extra.ckpt")
        save_checkpoint(ckpt, _edited(arrays, put=put), meta)
    if command == "eval":
        argv = ["eval", "--checkpoint", ckpt, "--split", "val", *data]
    else:
        config = str(root / "config.json")
        argv = ["train", "--out", str(tmp_path / "out"), "--config", config, "--resume", ckpt, *data]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"checkpoint holds array {message}," in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _first_array_twice(blob: bytes) -> bytes:
    """A checkpoint's bytes with its first array listed a second time, right after the first."""
    (count,) = struct.unpack_from("<I", blob, 8)
    (name_len,) = struct.unpack_from("<H", blob, 12)
    ndim = blob[14 + name_len]
    shape = struct.unpack_from(f"<{ndim}I", blob, 15 + name_len)
    end = 15 + name_len + 4 * ndim + 8 * math.prod(shape)
    return blob[:8] + struct.pack("<I", count + 1) + blob[12:end] + blob[12:end] + blob[end:]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_first_array_twice, "array attn.k0 follows attn.k0", id="repeated-name"),
        pytest.param(lambda blob: blob + b"\x00" * 7, "7 bytes after the metadata", id="trailing-bytes"),
    ],
)
def test_a_corrupt_checkpoint_table_exits_1_on_eval_and_resume(data_dir, train_dir, tmp_path, capsys, edit, message):
    broken = tmp_path / "odd.ckpt"
    broken.write_bytes(edit((train_dir / "final.ckpt").read_bytes()))
    resume = [
        "train", "--data", str(data_dir), "--out", str(tmp_path / "out"),
        "--config", str(train_dir / "config.json"), "--resume", str(broken),
    ]
    for argv in (["eval", "--checkpoint", str(broken), "--data", str(data_dir)], resume):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"odd.ckpt: corrupt checkpoint payload: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_builds_no_optimizer(data_dir, train_dir, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mmssl eval built an optimizer")

    monkeypatch.setattr(trainer, "AdamOptimizer", refuse)
    for name in ("final.ckpt", "best.ckpt"):
        assert main(["eval", "--checkpoint", str(train_dir / name), "--data", str(data_dir)]) == 0
        assert "recall" in capsys.readouterr().out


def test_eval_equals_trainer_evaluate_after_the_same_warm_refresh(between_refreshes, capsys):
    # the stored ids bound both refreshes; both ranking passes are evaluate_model
    root = between_refreshes
    settings = resolve_settings(apply_env(load_config(root / "config.json")))
    run = _build_trainer(settings, root / "data")
    run.restore(root / "out" / "final.ckpt")
    assert run.neighborhoods is not None
    run.neighborhoods = mdl.refresh_neighborhoods(run.state, run.adj, run.features, settings.enc.top_k, run.neighborhoods)
    for name in ("val", "test"):
        want = run.evaluate(getattr(run.split, name), settings.eval.k).to_json()
        argv = ["eval", "--checkpoint", str(root / "out" / "final.ckpt"), "--data", str(root / "data")]
        assert main([*argv, "--split", name, "--format", "json"]) == 0
        assert capsys.readouterr().out == want + "\n"


@pytest.fixture(scope="module")
def refresh_sized(tmp_path_factory):
    """A one-epoch run on 1500 users by 1000 items at perfbench's feature
    widths, where one refresh block (here all U x I relations) outweighs
    the model, and the model's checkpoint."""
    root = tmp_path_factory.mktemp("refresh_sized")
    spec = {
        "num_users": 1500,
        "num_items": 1000,
        "modality_dims": [128, 64],
        "latent_dim": 16,
        "interactions_per_user": 8,
        "seed": 1,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--out", str(root / "data"), "--spec", str(root / "spec.json")]) == 0
    config = {"train.epochs": 1, "train.steps_per_epoch": 2, "train.batch_size": 256, "train.disable_cl": True}
    (root / "config.json").write_text(json.dumps(config))
    args = ["--data", str(root / "data"), "--config", str(root / "config.json")]
    assert main(["train", "--out", str(root / "out"), *args]) == 0
    return root, spec


def test_an_eval_pass_peaks_below_one_and_a_half_refresh_blocks_plus_the_checkpoint(
    refresh_sized, capsys, peak_above_held
):
    # the pass holds the model, the data and the ids across the refresh, not
    # the checkpoint's optimizer moments and best snapshot, so the refresh's
    # own block sets its peak
    root, spec = refresh_sized
    users, items = spec["num_users"], spec["num_items"]
    block = min(users, mdl.REFRESH_BLOCK_BYTES // (8 * items)) * items * 8
    ckpt = root / "out" / "final.ckpt"
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(root / "data"), "--split", "val"]
    assert main(argv) == 0  # lazy imports and first-use caches are not the pass's
    code, peak = peak_above_held(main, argv)
    assert code == 0 and "recall" in capsys.readouterr().out
    assert peak < 1.5 * block + ckpt.stat().st_size

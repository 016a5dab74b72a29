"""End-to-end command-line workflows on a throwaway dataset."""

import json

import pytest

from mmssl.cli import main
from mmssl.trainer import load_checkpoint, save_checkpoint


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


def test_gradcheck_substrate_passes(capsys):
    assert main(["gradcheck", "--module", "substrate"]) == 0
    out = capsys.readouterr().out
    assert "substrate/" in out and "FAIL" not in out


def test_gradcheck_impossible_tolerance_fails(capsys):
    assert main(["gradcheck", "--module", "substrate", "--tolerance", "0"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "above tolerance" in captured.err


def test_usage_errors_exit_one(capsys):
    assert main(["eval", "--data", "/tmp"]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["train", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1


def test_train_rejects_missing_data(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "interactions.txt" in capsys.readouterr().err


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

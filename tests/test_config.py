"""Configuration loading, env overrides, and validation."""

import inspect
import json
from dataclasses import fields, is_dataclass

import pytest

from mmssl import adversarial, autodiff, data, evaluation, model, objectives
from mmssl.config import DEFAULTS, ConfigError, apply_env, load_config, resolve_settings
from mmssl.encoder import EncoderConfig
from mmssl.evaluation import EvalConfig
from mmssl.trainer import AdvConfig, ObjectiveConfig, TrainConfig, _config_fingerprint

SECTIONS = ("train", "enc", "adv", "objective", "eval")


def leaf_values(config, path):
    """Field path -> value of every leaf field of a config dataclass."""
    if not is_dataclass(config):
        return {path: config}
    out = {}
    for f in fields(config):
        out.update(leaf_values(getattr(config, f.name), f"{path}.{f.name}"))
    return out


def settings_leaves(settings):
    out = {}
    for name in SECTIONS:
        out.update(leaf_values(getattr(settings, name), name))
    return out


def test_defaults_resolve_to_dataclass_defaults():
    settings = resolve_settings(dict(DEFAULTS))
    assert settings.train.epochs == 50
    assert settings.train.lr_gen == 5e-4
    assert settings.train.split == (0.8, 0.1, 0.1)
    assert settings.enc.top_k == 10
    assert settings.adv.zeta == 100.0
    assert settings.objective.lambda2 == 0.03
    assert settings.objective.tau_prime == 0.085
    assert settings.eval.k == 20
    assert settings.eval.buckets == (0, 4, 6, 9, 13, 100)
    assert settings.flat == DEFAULTS
    empty = resolve_settings({})
    assert empty.train == TrainConfig() and empty.enc == EncoderConfig()
    assert empty.adv == AdvConfig() and empty.objective == ObjectiveConfig()
    assert empty.eval == EvalConfig() and empty.flat == DEFAULTS


# every key with its value and JSON type, in DEFAULTS' order
PINNED_DEFAULTS = [
    ("train.seed", 0),
    ("train.epochs", 50),
    ("train.batch_size", 128),
    ("train.steps_per_epoch", 0),
    ("train.d_steps", 1),
    ("train.lr_gen", 0.0005),
    ("train.lr_disc", 0.0003),
    ("train.weight_decay", 0.014),
    ("train.lr_decay", 0.98),
    ("train.patience", 10),
    ("train.embed_dim", 64),
    ("train.disc_hidden", 64),
    ("train.gen_dropout", 0.1),
    ("train.disc_dropout", 0.1),
    ("train.split", [0.8, 0.1, 0.1]),
    ("train.disable_asl", False),
    ("train.disable_cl", False),
    ("train.disable_gumbel", False),
    ("enc.top_k", 10),
    ("enc.heads", 2),
    ("enc.layers", 2),
    ("enc.eta", 0.5),
    ("enc.refresh_every", 1),
    ("adv.tau", 0.2),
    ("adv.zeta", 100.0),
    ("adv.lam1", 1.0),
    ("adv.negate_critic", False),
    ("loss.lambda2", 0.03),
    ("loss.lambda3", 0.01),
    ("loss.lambda4", 0.0),
    ("loss.tau_prime", 0.085),
    ("loss.omega", 0.2),
    ("loss.paper_sign", False),
    ("eval.k", 20),
    ("eval.buckets", [0, 4, 6, 9, 13, 100]),
]


def test_defaults_are_pinned():
    assert json.dumps(DEFAULTS) == json.dumps(dict(PINNED_DEFAULTS))


# library parameters whose values come from a config field (or, for the
# leaky slope, the critic's one constant)
CONFIG_BACKED = [
    (objectives.infonce_loss, ("tau", "paper_sign")),
    (objectives.fuse_final, ("omega",)),
    (objectives.total_loss, ("lam2", "lam3", "lam4")),
    (adversarial.gumbel_real_proxy, ("tau", "zeta", "disable")),
    (adversarial.loss_d, ("lam1", "negate_critic")),
    (evaluation.evaluate_scores, ("k",)),
    (data.sparsity_buckets, ("boundaries",)),
    (data.bucket_labels, ("boundaries",)),
    (data.split_edges, ("ratios", "seed")),
    (model.init_model, ("gen_dropout", "disc_dropout")),
    (adversarial.GeneratorParams, ("dropout_rate",)),
    (adversarial.GeneratorParams.create, ("dropout_rate",)),
    (adversarial.DiscriminatorParams, ("dropout_rate",)),
    (adversarial.DiscriminatorParams.create, ("dropout_rate",)),
    (autodiff.leaky_relu, ("slope",)),
]


@pytest.mark.parametrize("fn, names", CONFIG_BACKED, ids=[fn.__qualname__ for fn, _ in CONFIG_BACKED])
def test_config_backed_parameters_declare_no_default(fn, names):
    # the config dataclass field is the only default; a second one could drift from it
    params = inspect.signature(fn).parameters
    assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []


def test_default_fingerprint_is_pinned():
    # every key, value and JSON type as earlier versions wrote them, less the
    # retired adv.block_rows, so old run directories keep their meaning
    assert (
        _config_fingerprint(DEFAULTS)
        == "4ef6c53eb286e2f60820b38a94133f05ecd04400d85b94901f65bfcb66c9d2b6"
    )


def changed_value(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, list):  # element-wise, so eval.buckets stays ascending
        return [changed_value(x) for x in value]
    return value + (2 if isinstance(value, int) else 0.25)


def test_every_field_is_set_by_exactly_one_key():
    base = settings_leaves(resolve_settings({}))
    reached = []
    for key, value in DEFAULTS.items():
        moved = settings_leaves(resolve_settings({key: changed_value(value)}))
        changed = [path for path in base if moved[path] != base[path]]
        assert len(changed) == 1, (key, changed)
        reached += changed
    assert sorted(reached) == sorted(base)
    assert len(reached) == len(DEFAULTS) == 35


def test_load_config_without_file_is_defaults():
    assert load_config() == DEFAULTS


def test_load_config_merges_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train.epochs": 7, "enc.top_k": 3}))
    flat = load_config(path)
    assert flat["train.epochs"] == 7
    assert flat["enc.top_k"] == 3
    assert flat["adv.tau"] == DEFAULTS["adv.tau"]


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"train.epocs": 5}))
    with pytest.raises(ConfigError, match="train.epocs"):
        load_config(path)
    with pytest.raises(ConfigError, match="unknown"):
        resolve_settings({"nope.key": 1})


def test_env_seed_override():
    flat = apply_env(dict(DEFAULTS), env={"MMSSL_SEED": "123"})
    assert flat["train.seed"] == 123
    with pytest.raises(ConfigError, match="MMSSL_SEED"):
        apply_env(dict(DEFAULTS), env={"MMSSL_SEED": "abc"})


def test_env_ignored_when_unset():
    assert apply_env(dict(DEFAULTS), env={}) == DEFAULTS


def test_split_needs_three_ratios():
    with pytest.raises(ConfigError, match="three ratios"):
        resolve_settings({"train.split": [0.9, 0.1]})


def test_head_divisibility_checked():
    with pytest.raises(ConfigError, match="divisible"):
        resolve_settings({"train.embed_dim": 10, "enc.heads": 4})


def test_eval_k_positive():
    with pytest.raises(ConfigError, match="eval.k"):
        resolve_settings({"eval.k": 0})


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.batch_size", 0),
        ("train.d_steps", 0),
        ("enc.refresh_every", 0),
        ("train.steps_per_epoch", -1),
        ("train.epochs", -1),
        ("train.patience", 0),
        ("train.lr_gen", 0.0),
        ("train.lr_gen", -1.0),
        ("train.lr_disc", 0.0),
        ("adv.tau", -1.0),
        ("adv.tau", float("nan")),
        ("enc.heads", 0),
        ("enc.layers", -1),
        ("train.embed_dim", 0),
        ("train.disc_hidden", 0),
        ("train.lr_decay", -1.0),
        ("loss.tau_prime", 0.0),
        ("enc.top_k", 0),
        ("train.gen_dropout", 1.0),
        ("train.disc_dropout", -0.1),
        ("train.epochs", None),
        ("train.split", 5),
        ("eval.buckets", [5, 3]),
        ("eval.buckets", [0, 4, 4, 9]),
        ("eval.buckets", [7]),
        ("eval.buckets", []),
    ],
)
def test_out_of_range_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_settings({key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.disable_cl", "false"),
        ("train.disable_cl", 0),
        ("adv.negate_critic", None),
        ("train.epochs", 2.9),
        ("train.epochs", 2.0),
        ("train.epochs", True),
        ("train.epochs", "3"),
        ("train.lr_gen", True),
        ("train.lr_gen", "0.1"),
        ("eval.buckets", [0, 4.5, 100]),
        ("train.split", [0.8, False, 0.2]),
        ("train.split", "0.8"),
    ],
)
def test_wrongly_typed_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_settings({key: value})


def test_numbers_convert_only_upwards():
    settings = resolve_settings(
        {"train.lr_gen": 1, "train.split": [1, 0, 0], "train.disable_cl": True, "eval.k": 5}
    )
    assert settings.train.lr_gen == 1.0 and isinstance(settings.train.lr_gen, float)
    assert settings.train.split == (1.0, 0.0, 0.0)
    assert all(isinstance(x, float) for x in settings.train.split)
    assert settings.train.disable_cl is True and settings.eval.k == 5


def test_range_limits_themselves_accepted():
    settings = resolve_settings(
        {
            "train.steps_per_epoch": 0,
            "train.epochs": 0,
            "train.batch_size": 1,
            "adv.tau": 1e-6,
            "enc.layers": 0,
            "train.gen_dropout": 0.0,
            "train.patience": 1,
        }
    )
    assert settings.train.epochs == 0 and settings.train.batch_size == 1


def test_partial_overrides_resolve():
    settings = resolve_settings({"train.epochs": 3, "loss.omega": 0.05})
    assert settings.train.epochs == 3
    assert settings.objective.omega == 0.05
    # untouched keys keep defaults
    assert settings.train.batch_size == 128
    assert settings.flat["train.epochs"] == 3

"""Flat namespaced configuration with JSON loading and env overrides.

Config files are JSON objects whose keys are dotted names such as
``train.epochs`` or ``adv.zeta``.  ``MMSSL_SEED`` overrides the training
seed.  Every key, its default and its type come from a field of the
config dataclasses: ``<prefix>.<field>``, with the prefixes of
``_PREFIXES``.  Those fields are the only defaults: the library functions
the trainer calls take every configured value from their caller.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import check_bucket_boundaries
from .encoder import EncoderConfig
from .evaluation import EvalConfig
from .trainer import AdvConfig, ObjectiveConfig, TrainConfig

__all__ = ["ConfigError", "Settings", "DEFAULTS", "load_config", "resolve_settings"]


class ConfigError(ValueError):
    """Unknown key, malformed file or out-of-range value."""


@dataclass
class Settings:
    train: TrainConfig = field(default_factory=TrainConfig)
    enc: EncoderConfig = field(default_factory=EncoderConfig)
    adv: AdvConfig = field(default_factory=AdvConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    flat: dict = field(default_factory=dict)


# Settings attribute -> key prefix
_PREFIXES = {"train": "train", "enc": "enc", "adv": "adv", "objective": "loss", "eval": "eval"}
# key -> (Settings attribute, field name, default)
_FIELDS = {
    f"{prefix}.{f.name}": (attr, f.name, f.default)
    for attr, prefix in _PREFIXES.items()
    for f in fields(getattr(Settings(), attr))
}
# the JSON form: tuples become lists
DEFAULTS: dict = {
    key: list(default) if isinstance(default, tuple) else default
    for key, (_, _, default) in _FIELDS.items()
}

# key -> smallest allowed value
_AT_LEAST = {
    "train.batch_size": 1,
    "train.d_steps": 1,
    "train.steps_per_epoch": 0,
    "train.epochs": 0,
    "train.patience": 1,
    "train.embed_dim": 1,
    "train.disc_hidden": 1,
    "enc.top_k": 1,
    "enc.heads": 1,
    "enc.layers": 0,
    "enc.refresh_every": 1,
    "eval.k": 1,
}
_POSITIVE = ("train.lr_gen", "train.lr_disc", "train.lr_decay", "adv.tau", "loss.tau_prime")
_DROPOUT = ("train.gen_dropout", "train.disc_dropout")  # in [0, 1)


def load_config(path=None) -> dict:
    """Defaults merged with an optional JSON file of dotted keys."""
    flat = dict(DEFAULTS)
    if path is not None:
        try:
            with Path(path).open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object of dotted keys")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        flat.update(doc)
    return flat


def apply_env(flat: dict, env=os.environ) -> dict:
    out = dict(flat)
    seed = env.get("MMSSL_SEED")
    if seed is not None:
        try:
            out["train.seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"MMSSL_SEED must be an integer, got {seed!r}") from None
    return out


def _coerce(key: str, default, value):
    """``value`` as the type of ``default``; tuples element-wise as the
    type of their first default element.  A bool key takes only true or
    false, an int key only whole numbers and a float key any number; a
    bool is never a number."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_coerce(key, default[0], x) for x in value)
    kind = type(default)
    wanted = bool if kind is bool else numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, wanted):
        raise ConfigError(f"{key} cannot be read as {kind.__name__}: {value!r}")
    return kind(value)


def _check_ranges(values: dict) -> None:
    for key, low in _AT_LEAST.items():
        if values[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {values[key]}")
    for key in _POSITIVE:
        if not values[key] > 0:
            raise ConfigError(f"{key} must be positive, got {values[key]}")
    for key in _DROPOUT:
        if not 0 <= values[key] < 1:
            raise ConfigError(f"{key} must be in [0, 1), got {values[key]}")
    try:
        check_bucket_boundaries(values["eval.buckets"])
    except ValueError as e:
        raise ConfigError(f"eval.buckets: {e}") from None
    if len(values["train.split"]) != 3:
        raise ConfigError(f"train.split needs three ratios, got {list(values['train.split'])}")
    if values["train.embed_dim"] % values["enc.heads"] != 0:
        raise ConfigError(
            f"train.embed_dim={values['train.embed_dim']} must be divisible by "
            f"enc.heads={values['enc.heads']}"
        )


def resolve_settings(flat: dict) -> Settings:
    """Build the typed per-module configs from a flat dotted-key dict."""
    unknown = set(flat) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULTS, **flat}
    values = {key: _coerce(key, default, merged[key]) for key, (_, _, default) in _FIELDS.items()}
    _check_ranges(values)
    settings = Settings(flat=merged)
    for key, (attr, name, _) in _FIELDS.items():
        setattr(getattr(settings, attr), name, values[key])
    return settings

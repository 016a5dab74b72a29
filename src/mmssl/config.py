"""Flat namespaced configuration with JSON loading and env overrides.

Config files are JSON objects whose keys are dotted names such as
``train.epochs`` or ``adv.zeta``.  ``MMSSL_SEED`` overrides the training
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import EncoderConfig
from .evaluation import EvalConfig
from .objectives import LossWeights
from .trainer import AdvConfig, ObjectiveConfig, TrainConfig

__all__ = ["ConfigError", "Settings", "DEFAULTS", "load_config", "resolve_settings"]


class ConfigError(ValueError):
    """Unknown key, malformed file or out-of-range value."""


DEFAULTS: dict = {
    "train.seed": 0,
    "train.epochs": 50,
    "train.batch_size": 128,
    "train.steps_per_epoch": 0,
    "train.d_steps": 1,
    "train.lr_gen": 5e-4,
    "train.lr_disc": 3e-4,
    "train.weight_decay": 1.4e-2,
    "train.lr_decay": 0.98,
    "train.patience": 10,
    "train.embed_dim": 64,
    "train.disc_hidden": 64,
    "train.gen_dropout": 0.1,
    "train.disc_dropout": 0.1,
    "train.split": [0.8, 0.1, 0.1],
    "train.disable_asl": False,
    "train.disable_cl": False,
    "train.disable_gumbel": False,
    "adv.tau": 0.2,
    "adv.zeta": 100.0,
    "adv.lam1": 1.0,
    "adv.negate_critic": False,
    "adv.block_rows": 0,
    "enc.top_k": 10,
    "enc.heads": 2,
    "enc.layers": 2,
    "enc.eta": 0.5,
    "enc.refresh_every": 1,
    "loss.lambda2": 0.03,
    "loss.lambda3": 0.01,
    "loss.lambda4": 0.0,
    "loss.tau_prime": 0.085,
    "loss.omega": 0.2,
    "loss.paper_sign": False,
    "eval.k": 20,
    "eval.buckets": [0, 4, 6, 9, 13, 100],
}


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


@dataclass
class Settings:
    train: TrainConfig = field(default_factory=TrainConfig)
    enc: EncoderConfig = field(default_factory=EncoderConfig)
    adv: AdvConfig = field(default_factory=AdvConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    flat: dict = field(default_factory=dict)


def resolve_settings(flat: dict) -> Settings:
    """Build the typed per-module configs from a flat dotted-key dict."""
    unknown = set(flat) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(flat)
    split = tuple(float(x) for x in merged["train.split"])
    if len(split) != 3:
        raise ConfigError(f"train.split needs three ratios, got {merged['train.split']}")
    train = TrainConfig(
        seed=int(merged["train.seed"]),
        epochs=int(merged["train.epochs"]),
        batch_size=int(merged["train.batch_size"]),
        steps_per_epoch=int(merged["train.steps_per_epoch"]),
        d_steps=int(merged["train.d_steps"]),
        lr_gen=float(merged["train.lr_gen"]),
        lr_disc=float(merged["train.lr_disc"]),
        weight_decay=float(merged["train.weight_decay"]),
        lr_decay=float(merged["train.lr_decay"]),
        patience=int(merged["train.patience"]),
        embed_dim=int(merged["train.embed_dim"]),
        disc_hidden=int(merged["train.disc_hidden"]),
        gen_dropout=float(merged["train.gen_dropout"]),
        disc_dropout=float(merged["train.disc_dropout"]),
        split=split,
        disable_asl=bool(merged["train.disable_asl"]),
        disable_cl=bool(merged["train.disable_cl"]),
        disable_gumbel=bool(merged["train.disable_gumbel"]),
    )
    enc = EncoderConfig(
        top_k=int(merged["enc.top_k"]),
        heads=int(merged["enc.heads"]),
        layers=int(merged["enc.layers"]),
        eta=float(merged["enc.eta"]),
        refresh_every=int(merged["enc.refresh_every"]),
    )
    adv = AdvConfig(
        tau=float(merged["adv.tau"]),
        zeta=float(merged["adv.zeta"]),
        lam1=float(merged["adv.lam1"]),
        negate_critic=bool(merged["adv.negate_critic"]),
        block_rows=int(merged["adv.block_rows"]),
    )
    objective = ObjectiveConfig(
        weights=LossWeights(
            lam2=float(merged["loss.lambda2"]),
            lam3=float(merged["loss.lambda3"]),
            lam4=float(merged["loss.lambda4"]),
        ),
        tau_prime=float(merged["loss.tau_prime"]),
        omega=float(merged["loss.omega"]),
        paper_sign=bool(merged["loss.paper_sign"]),
    )
    eval_cfg = EvalConfig(
        k=int(merged["eval.k"]),
        buckets=tuple(int(b) for b in merged["eval.buckets"]),
    )
    if train.embed_dim % enc.heads != 0:
        raise ConfigError(
            f"train.embed_dim={train.embed_dim} must be divisible by enc.heads={enc.heads}"
        )
    for key, low in (
        ("train.batch_size", 1),
        ("train.d_steps", 1),
        ("train.steps_per_epoch", 0),
        ("train.epochs", 0),
        ("enc.refresh_every", 1),
        ("eval.k", 1),
    ):
        if int(merged[key]) < low:
            raise ConfigError(f"{key} must be at least {low}, got {merged[key]}")
    for key in ("train.lr_gen", "train.lr_disc", "adv.tau"):
        if not float(merged[key]) > 0:
            raise ConfigError(f"{key} must be positive, got {merged[key]}")
    return Settings(train=train, enc=enc, adv=adv, objective=objective, eval=eval_cfg, flat=merged)

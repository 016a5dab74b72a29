"""Alternating adversarial/recommendation training loop.

Each step records the semantic chain once, runs the configured number of
critic updates on it, then one generator-side update covering every
non-critic parameter.  The two sides use strictly disjoint parameter sets
and separate adaptive-moment optimizers: the generator side decays weights
decoupled from the moment update, the critic side applies no decay.  A
multiplicative learning-rate schedule advances at every epoch boundary and
early stopping watches validation recall.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversarial, autodiff as ad, model as mdl, objectives as obj
from .autodiff import GradientMap, NumericError, Tensor
from .data import (
    DataSplit,
    InteractionGraph,
    ModalityFeatureTable,
    NormalizedAdjacency,
    ScoreRows,
    build_norm_adjacency,
    sample_bpr_triplets,
)
from .encoder import EncoderConfig, SemanticNeighborhood
from .evaluation import EvalConfig, RankingReport, evaluate_scores

__all__ = [
    "TrainConfig",
    "AdvConfig",
    "ObjectiveConfig",
    "AdamOptimizer",
    "Trainer",
    "save_checkpoint",
    "load_checkpoint",
    "check_inputs",
    "load_model",
    "evaluate_model",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 50
    batch_size: int = 128
    steps_per_epoch: int = 0  # 0 -> ceil(train edges / batch size)
    d_steps: int = 1
    lr_gen: float = 5e-4
    lr_disc: float = 3e-4
    weight_decay: float = 1.4e-2
    lr_decay: float = 0.98
    patience: int = 10
    embed_dim: int = 64
    disc_hidden: int = 64
    gen_dropout: float = 0.1
    disc_dropout: float = 0.1
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    disable_asl: bool = False
    disable_cl: bool = False
    disable_gumbel: bool = False


@dataclass
class AdvConfig:
    tau: float = 0.2
    zeta: float = 100.0
    lam1: float = 1.0
    negate_critic: bool = False


@dataclass
class ObjectiveConfig:
    lambda2: float = 0.03  # contrastive
    lambda3: float = 0.01  # generator adversarial
    lambda4: float = 0.0  # explicit L2 (decoupled decay lives in the optimizer)
    tau_prime: float = 0.085
    omega: float = 0.2
    paper_sign: bool = False


class AdamOptimizer:
    """Adaptive-moment update with weight decay decoupled from the moments,
    at betas (0.9, 0.999) and eps 1e-8."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads: GradientMap) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p in self.params:
            g = grads.get(p)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


# --------------------------------------------------------------------------
# Checkpoint container
# --------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Binary checkpoint: magic, version, length-prefixed array table
    (name, shape, 64-bit LE values), then a JSON metadata blob.

    The bytes go to a sibling temporary file that replaces ``path`` only
    once complete and on disk, so a failed save keeps the previous one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                # asarray, not ascontiguousarray: the latter promotes 0-d to (1,)
                arr = np.asarray(arrays[name], dtype="<f8")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)) + encoded)
                fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                fh.write(arr.tobytes(order="C"))
            blob = json.dumps(meta, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)) + blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and metadata ``save_checkpoint`` wrote to ``path``.

    Each array is read straight into its own buffer, so a load holds the
    file's bytes once.  A length that runs past the end of the file (checked
    before its buffer is allocated), a name table out of strictly ascending
    order (a repeated name is one) and bytes after the metadata are refused
    as corrupt."""
    path = Path(path)
    with path.open("rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path.name}: bad checkpoint magic {head[:4]!r}")
        if len(head) < 12:
            raise ValueError(f"{path.name}: truncated checkpoint header")
        version, count = struct.unpack("<2I", head[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path.name}: unsupported checkpoint version {version}")

        def room(size: int) -> int:
            left = end - fh.tell()
            if size > left:
                raise ValueError(f"{size} bytes wanted at byte {fh.tell()}, {left} left in the file")
            return size

        arrays: dict[str, np.ndarray] = {}
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(room(2)))
                name = fh.read(room(name_len)).decode("utf-8")
                if arrays and name <= last:
                    raise ValueError(f"array {name} follows {last}; names must be strictly ascending")
                last = name
                (ndim,) = struct.unpack("<B", fh.read(room(1)))
                shape = struct.unpack(f"<{ndim}I", fh.read(room(4 * ndim)))
                arr = np.empty(room(8 * math.prod(shape)) // 8, dtype="<f8")
                if fh.readinto(arr) != arr.nbytes:
                    raise ValueError(f"file ended inside array {name}")
                arrays[name] = arr.reshape(shape)
            (meta_len,) = struct.unpack("<I", fh.read(room(4)))
            meta = json.loads(fh.read(room(meta_len)).decode("utf-8"))
            if end > fh.tell():
                raise ValueError(f"{end - fh.tell()} bytes after the metadata")
        except (struct.error, RecursionError, ValueError) as e:
            # JSON and UTF-8 decoding errors are ValueErrors; metadata nested
            # deeper than the JSON decoder recurses raises RecursionError
            raise ValueError(f"{path.name}: corrupt checkpoint payload: {e}") from e
    if not isinstance(meta, dict):
        raise ValueError(f"{path.name}: checkpoint metadata is not a JSON object")
    return arrays, meta


def _restore_rng(meta: dict, key: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = meta[key]
    except (KeyError, OverflowError, TypeError, ValueError) as e:
        raise ValueError(f"checkpoint metadata {key} is not a generator state: {e!r}") from e
    return rng


# stopping criteria may change between a run and its resumption (extending a
# finished run is the point of --resume); everything else must match
_FINGERPRINT_EXEMPT = ("train.epochs", "train.patience")


def _config_fingerprint(flat: dict) -> str:
    import hashlib

    kept = {k: v for k, v in flat.items() if k not in _FINGERPRINT_EXEMPT}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# The model: its inputs, its checkpoint layout and its evaluation
# --------------------------------------------------------------------------


def check_inputs(graph: InteractionGraph, features: list[ModalityFeatureTable], split: DataSplit) -> None:
    """Refuse feature tables or a split that do not cover ``graph``."""
    for table in features:
        if table.num_items != graph.num_items:
            raise ValueError(
                f"feature table '{table.name}' covers {table.num_items} items, "
                f"graph has {graph.num_items}"
            )
    for name in ("train", "val", "test"):
        if getattr(split, name).matrix.shape != graph.matrix.shape:
            raise ValueError(f"split.{name} is not of the graph's shape {graph.matrix.shape}")


def _init_state(
    cfg: TrainConfig, enc_cfg: EncoderConfig, graph: InteractionGraph, features: list[ModalityFeatureTable]
) -> mdl.ModelState:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    return mdl.init_model(
        graph.num_users,
        graph.num_items,
        [t.dim for t in features],
        cfg.embed_dim,
        enc_cfg.heads,
        cfg.disc_hidden,
        rng,
        gen_dropout=cfg.gen_dropout,
        disc_dropout=cfg.disc_dropout,
    )


def _live_arrays(state: mdl.ModelState) -> dict[str, np.ndarray]:
    """Every parameter and BN statistic of ``state``, by checkpoint name."""
    live = {name: p.data for name, p in state.named_parameters().items()}
    for layer in ("bn1", "bn2"):
        stats = getattr(state.disc, layer)
        live[f"bn.disc.{layer}.mean"] = stats.mean
        live[f"bn.disc.{layer}.var"] = stats.var
    return live


def _checkpoint_shapes(
    state: mdl.ModelState, graph: InteractionGraph, modalities: int, top_k: int
) -> dict[str, dict[str, tuple[int, ...]]]:
    """The checkpoint layout, read off the model: array group -> checkpoint
    name -> shape.

    ``live`` is every parameter and BN statistic, all that ``best.ckpt``
    holds; ``optg`` and ``optd`` are the two optimizers' moments, each shaped
    like its parameter; ``nbr`` is the semantic neighbour ids, held from the
    first refresh on (exact in float64: a resume between refreshes must
    train on the same neighbours); ``best`` is the snapshot of ``live`` at
    the best validation, held from the first one on.
    """
    live = {name: buf.shape for name, buf in _live_arrays(state).items()}
    shapes = {"live": live}
    for prefix, params in (("optg", state.generator_parameters()), ("optd", state.discriminator_parameters())):
        shapes[prefix] = {f"{prefix}.{moment}.{p.name}": p.data.shape for moment in ("m", "v") for p in params}
    users, items = graph.num_users, graph.num_items
    shapes["nbr"] = {}
    for m in range(modalities):
        shapes["nbr"][f"nbr.{m}.users"] = (users, min(top_k, items))
        shapes["nbr"][f"nbr.{m}.items"] = (items, min(top_k, users))
    shapes["best"] = {f"best.{name}": shape for name, shape in live.items()}
    return shapes


def _check_arrays(
    arrays: dict[str, np.ndarray],
    state: mdl.ModelState,
    graph: InteractionGraph,
    modalities: int,
    top_k: int,
    need: tuple[str, ...],
) -> list[SemanticNeighborhood] | None:
    """The neighbour ids that ``arrays`` (a checkpoint's) store, None
    without them, after one check: each array belongs to a group of this
    model (not one from a run with more modalities), each group in ``need``
    is held, each held group is complete and shaped as the layout says, and
    each neighbour id is a whole number in range that no other id of its
    row repeats (the ids index the relation matrices, and a refresh reads a
    row's ids as k distinct entries).  Every other held array is finite, and
    a BN running variance or Adam second moment not negative.  Anything else
    is a ``ValueError`` naming the array."""
    layout = _checkpoint_shapes(state, graph, modalities, top_k)
    # a name belongs to the group its first part names, else to live
    group_of = {name: name.split(".")[0] if name.split(".")[0] in layout else "live" for name in arrays}
    held = {group for group, slots in layout.items() if group in need or slots.keys() & arrays.keys()}
    for group, slots in layout.items():
        extra = sorted(name for name in arrays if group_of[name] == group and name not in slots)
        if extra:
            raise ValueError(f"checkpoint holds array {extra[0]}, which this model does not have")
        if group not in held:
            continue
        for name, shape in sorted(slots.items()):
            if name not in arrays:
                raise ValueError(f"checkpoint is missing array {name}")
            if arrays[name].shape != shape:
                raise ValueError(f"checkpoint array {name} has shape {arrays[name].shape}")
            if group == "nbr":  # _stored_ids checks the ids' values
                continue
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"checkpoint array {name} holds a non-finite value")
            non_negative = name.endswith(".var") or name.startswith(("optg.v.", "optd.v."))
            if non_negative and (arrays[name] < 0).any():
                raise ValueError(f"checkpoint array {name} holds a negative value")
    ids = [
        _stored_ids(name, arrays[name], graph.num_items if name.endswith("users") else graph.num_users)
        for name in layout["nbr"]
        if name in arrays
    ]
    return [SemanticNeighborhood(*ids[i : i + 2]) for i in range(0, len(ids), 2)] or None


def load_model(
    arrays: dict[str, np.ndarray],
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    graph: InteractionGraph,
    features: list[ModalityFeatureTable],
) -> tuple[mdl.ModelState, list[SemanticNeighborhood] | None]:
    """The model that ``arrays`` (a checkpoint's) hold, under ``cfg`` and
    ``enc_cfg`` on this data, and the neighbour ids they store.

    The check is ``Trainer.restore``'s with only the live group needed:
    the optimizer moments and the best snapshot are checked by shape where
    held, and never copied.  No optimizer or training random stream is
    built."""
    state = _init_state(cfg, enc_cfg, graph, features)
    neighborhoods = _check_arrays(arrays, state, graph, len(features), enc_cfg.top_k, ("live",))
    for name, buf in _live_arrays(state).items():
        buf[:] = arrays[name]
    return state, neighborhoods


def evaluate_model(
    state: mdl.ModelState,
    adj: NormalizedAdjacency,
    features: list[ModalityFeatureTable],
    neighborhoods: list[SemanticNeighborhood] | None,
    enc_cfg: EncoderConfig,
    omega: float,
    train_graph: InteractionGraph,
    held_out: InteractionGraph,
    k: int,
    boundaries: tuple[int, ...],
) -> RankingReport:
    """Rank every item for each user (eval mode, ``train_graph``'s items
    excluded) and score the top ``k`` against the ``held_out`` edges."""
    if held_out.matrix.shape != train_graph.matrix.shape:
        raise ValueError(
            f"held-out graph has shape {held_out.matrix.shape}, "
            f"the model {train_graph.matrix.shape}"
        )
    # the chain is a temporary, so its (U, d) and (I, d) arrays are freed
    # when the forward returns, before the ranking
    fwd = mdl.forward_embeddings(
        state, adj, features, mdl.semantic_embeddings(state, adj, neighborhoods, enc_cfg), omega
    )
    return evaluate_scores(
        ScoreRows(fwd.h_users.data, fwd.h_items.data),
        train_items=train_graph.user_items,
        relevant=held_out.user_items,
        k=k,
        boundaries=boundaries,
    )


# --------------------------------------------------------------------------
# Trainer
# --------------------------------------------------------------------------


class Trainer:
    def __init__(
        self,
        cfg: TrainConfig,
        enc_cfg: EncoderConfig,
        adv_cfg: AdvConfig,
        obj_cfg: ObjectiveConfig,
        eval_cfg: EvalConfig,
        graph: InteractionGraph,
        features: list[ModalityFeatureTable],
        split: DataSplit,
        config_flat: dict | None = None,
    ):
        check_inputs(graph, features, split)
        self.cfg = cfg
        self.enc_cfg = enc_cfg
        self.adv_cfg = adv_cfg
        self.obj_cfg = obj_cfg
        self.eval_cfg = eval_cfg
        self.graph = graph
        self.features = features
        self.split = split
        self.config_flat = dict(config_flat or {})
        self.adj = build_norm_adjacency(split.train)
        self.state = _init_state(cfg, enc_cfg, graph, features)
        self.rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
        # separate stream: toggling the adversarial task must not shift
        # triplet sampling or dropout draws on the main path
        self.rng_adv = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
        self.opt_gen = AdamOptimizer(
            self.state.generator_parameters(), lr=cfg.lr_gen, weight_decay=cfg.weight_decay
        )
        self.opt_disc = AdamOptimizer(self.state.discriminator_parameters(), lr=cfg.lr_disc)
        self.neighborhoods = None
        self.epoch = 0
        self.best_epoch = -1
        self.best_recall = -1.0
        self.best_arrays: dict[str, np.ndarray] = {}
        self.log: list[dict] = []
        self.aborted = False  # whether the last run() stopped on a non-finite loss

    # -- single steps -----------------------------------------------------

    def _record_chain(self) -> tuple[ad.Tape, mdl.SemanticChain]:
        """The generator's semantic chain, recorded on a fresh tape."""
        tape = ad.Tape()
        with tape:
            chain = mdl.semantic_embeddings(self.state, self.adj, self.neighborhoods, self.enc_cfg)
        return tape, chain

    def train_step(self) -> tuple[list[float], dict[str, float]]:
        """The critic updates (none with the adversarial task off), then the
        generator update, on one taped semantic chain; returns their losses.
        No critic update moves a parameter the chain reads."""
        taped = self._record_chain()
        d_steps = 0 if self.cfg.disable_asl else self.cfg.d_steps
        return [self.d_step(taped) for _ in range(d_steps)], self.g_step(taped)

    def d_step(self, taped: tuple[ad.Tape, mdl.SemanticChain]) -> float:
        """One critic update on frozen generator outputs: the eval-mode
        forward of the step's ``(tape, chain)`` pair ``taped``."""
        cfg = self.cfg
        batch_users = self.rng_adv.integers(0, self.graph.num_users, size=cfg.batch_size)
        chain_tape, chain = taped
        # taped ops skip their own finiteness checks; check what is read
        for t in (chain.prop_users, chain.prop_items):
            chain_tape.require_finite(t, "non-finite semantic embeddings")
        fwd = mdl.forward_embeddings(self.state, self.adj, self.features, chain, self.obj_cfg.omega)
        real = adversarial.gumbel_real_proxy(
            self.split.train.matrix[batch_users].toarray(), self.rng_adv,
            self.adv_cfg.tau, self.adv_cfg.zeta, cfg.disable_gumbel,
            fwd.h_users.data[batch_users], fwd.h_items.data,
        )
        fake = np.empty((len(batch_users), self.graph.num_items))
        assignment = self.rng_adv.integers(0, len(self.features), size=len(batch_users))
        for m, (f_u, f_i) in enumerate(zip(fwd.prior_users, fwd.prior_items)):
            rows = np.flatnonzero(assignment == m)
            if rows.size:
                fake[rows] = adversarial.user_relation_rows(f_u, f_i, batch_users[rows]).data
        del fwd  # the critic's tape needs none of the forward's arrays
        gp_rows = adversarial.interpolate_rows(real, fake, self.rng_adv)
        with ad.Tape() as tape:
            loss = adversarial.loss_d(
                real, fake, gp_rows, self.state.disc, lam1=self.adv_cfg.lam1,
                negate_critic=self.adv_cfg.negate_critic, train=True, rng=self.rng_adv,
            )
        grads = tape.backward(loss, params=self.state.discriminator_parameters())
        self.opt_disc.step(grads)
        return loss.item()

    def g_step(self, taped: tuple[ad.Tape, mdl.SemanticChain]) -> dict[str, float]:
        """One generator-side update over every non-critic parameter, which
        differentiates the step's ``(tape, chain)`` pair ``taped``."""
        cfg = self.cfg
        triplets = sample_bpr_triplets(self.split, self.graph, cfg.batch_size, self.rng)
        adv_users = None
        if not cfg.disable_asl:
            adv_users = self.rng_adv.integers(0, self.graph.num_users, size=cfg.batch_size)
        tape, chain = taped
        with tape:
            fwd = mdl.forward_embeddings(
                self.state, self.adj, self.features, chain, self.obj_cfg.omega, train=True, rng=self.rng
            )
            l_bpr, l_cl, l_g = mdl.generator_losses(
                fwd,
                self.state.disc,
                triplets,
                adv_users,
                self.obj_cfg.tau_prime,
                self.obj_cfg.paper_sign,
                contrastive=not cfg.disable_cl,
            )
            loss = obj.total_loss(
                l_bpr, l_cl, l_g, self.state.generator_parameters(),
                self.obj_cfg.lambda2, self.obj_cfg.lambda3, self.obj_cfg.lambda4,
            )
        grads = tape.backward(loss, params=self.state.generator_parameters())
        self.opt_gen.step(grads)
        return {
            "l_bpr": l_bpr.item(),
            "l_cl": l_cl.item() if l_cl is not None else 0.0,
            "l_g": l_g.item() if l_g is not None else 0.0,
        }

    # -- evaluation and state management -----------------------------------

    def evaluate(self, held_out: InteractionGraph, k: int) -> RankingReport:
        """``evaluate_model`` on this trainer's model and training edges."""
        return evaluate_model(
            self.state, self.adj, self.features, self.neighborhoods, self.enc_cfg, self.obj_cfg.omega,
            self.split.train, held_out, k, self.eval_cfg.buckets,
        )

    def _validate(self) -> dict[str, float]:
        report = self.evaluate(self.split.val, self.eval_cfg.k)
        return {key: report.overall[key] for key in ("recall", "ndcg", "precision")}

    def _held(self) -> dict[str, dict[str, np.ndarray]]:
        """The buffer this trainer holds under each checkpoint name, by
        array group of ``_checkpoint_shapes``: ``nbr`` is empty before the
        first refresh, ``best`` before the first validation."""
        held = {"live": _live_arrays(self.state)}
        for prefix, opt in (("optg", self.opt_gen), ("optd", self.opt_disc)):
            held[prefix] = {
                f"{prefix}.{moment}.{name}": buf for moment in ("m", "v") for name, buf in getattr(opt, moment).items()
            }
        held["nbr"] = {
            f"nbr.{m}.{side}": ids
            for m, n in enumerate(self.neighborhoods or ())
            for side, ids in (("users", n.user_neighbors), ("items", n.item_neighbors))
        }
        held["best"] = {f"best.{name}": buf for name, buf in self.best_arrays.items()}
        return held

    def checkpoint_meta(self) -> dict:
        return {
            "epoch": self.epoch,
            "rng": self.rng.bit_generator.state,
            "rng_adv": self.rng_adv.bit_generator.state,
            "opt_gen_t": self.opt_gen.t,
            "opt_disc_t": self.opt_disc.t,
            "best_epoch": self.best_epoch,
            "best_recall": self.best_recall,
            "config": self.config_flat,
            "config_hash": _config_fingerprint(self.config_flat),
        }

    def save(self, path) -> None:
        """Write every array this trainer holds, from the live buffers."""
        arrays = {name: buf for group in self._held().values() for name, buf in group.items()}
        save_checkpoint(path, arrays, self.checkpoint_meta())

    def save_best(self, path) -> None:
        """Write ``best.ckpt``: the ``best`` snapshot under its ``live`` names,
        stamped with the best epoch."""
        save_checkpoint(path, self.best_arrays, {**self.checkpoint_meta(), "epoch": self.best_epoch})

    def restore(self, path) -> None:
        """Continue from the checkpoint at ``path``.  After the metadata
        checks and ``_check_arrays``, and only then, the live, optg and optd
        groups are copied into the buffers of ``_held``; the best snapshot
        becomes the checkpoint's alone, none when it names no best epoch."""
        arrays, meta = load_checkpoint(path)
        if self.config_flat and meta.get("config_hash") != _config_fingerprint(self.config_flat):
            raise ValueError("checkpoint was produced under a different configuration")
        missing = sorted(set(self.checkpoint_meta()) - set(meta))
        if missing:
            raise ValueError(f"checkpoint metadata is missing {missing[0]}")
        # a bool is an int, but not a count; best_epoch is -1 until a validation
        counters = {"epoch": 0, "best_epoch": -1, "opt_gen_t": 0, "opt_disc_t": 0}
        for key, least in counters.items():
            value = meta[key]
            if type(value) is not int or value < least:
                raise ValueError(f"checkpoint metadata {key} is not an integer >= {least}: {value!r}")
        # best.ckpt stamps epoch with the best epoch; final.ckpt's best epoch is earlier
        best_epoch, recall = meta["best_epoch"], meta["best_recall"]
        if best_epoch > meta["epoch"]:
            raise ValueError(f"checkpoint metadata best_epoch is not at most epoch {meta['epoch']}: {best_epoch!r}")
        # the best epoch, its recall and the best snapshot are one fact: all
        # -1 or absent until a validation, all held after; NaN fails every comparison
        if type(recall) not in (int, float) or not (0 <= recall <= 1 if best_epoch >= 0 else recall == -1):
            want = "a number in [0, 1]" if best_epoch >= 0 else "-1"
            raise ValueError(f"checkpoint metadata best_recall is not {want} under best_epoch {best_epoch}: {recall!r}")
        snapshot = sorted(name for name in arrays if name.startswith("best."))
        if best_epoch == -1 and snapshot:
            raise ValueError(f"checkpoint metadata best_epoch is -1, yet the checkpoint holds array {snapshot[0]}")
        rng, rng_adv = _restore_rng(meta, "rng"), _restore_rng(meta, "rng_adv")
        neighborhoods = _check_arrays(
            arrays, self.state, self.graph, len(self.features), self.enc_cfg.top_k,
            ("live", "optg", "optd", "nbr") + (("best",) if best_epoch >= 0 else ()),
        )
        held = self._held()
        for group in ("live", "optg", "optd"):
            for name, buf in held[group].items():
                buf[:] = arrays[name]
        self.neighborhoods = neighborhoods
        self.best_arrays = {name: arrays[f"best.{name}"] for name in held["live"]} if best_epoch >= 0 else {}
        self.opt_gen.t = meta["opt_gen_t"]
        self.opt_disc.t = meta["opt_disc_t"]
        self.rng, self.rng_adv = rng, rng_adv
        # run() increments epoch before writing, so the stored value is
        # already the index of the next epoch to execute
        self.epoch = meta["epoch"]
        self.best_epoch, self.best_recall = best_epoch, recall

    # -- main loop ----------------------------------------------------------

    def run(self, checkpoint_path=None, log_path=None) -> Trainer:
        """Train up to ``cfg.epochs`` and return this trainer, the run's one
        record: its ``state``, ``log``, ``best_epoch``, ``best_recall``,
        ``best_arrays`` and ``aborted``.  Patience counts the epochs since
        the best.  With no validation edges no epoch is validated: the log
        records no metrics, no epoch is best, and patience never stops the run."""
        cfg = self.cfg
        steps = cfg.steps_per_epoch or max(1, -(-self.split.train.num_edges // cfg.batch_size))
        self.aborted = False
        log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
        try:
            while self.epoch < cfg.epochs:
                epoch = self.epoch
                self.opt_gen.lr = cfg.lr_gen * cfg.lr_decay**epoch
                self.opt_disc.lr = cfg.lr_disc * cfg.lr_decay**epoch
                if self.neighborhoods is None or epoch % self.enc_cfg.refresh_every == 0:
                    self.neighborhoods = mdl.refresh_neighborhoods(
                        self.state, self.adj, self.features, self.enc_cfg.top_k, self.neighborhoods
                    )
                sums = {"l_bpr": 0.0, "l_cl": 0.0, "l_g": 0.0, "l_d": 0.0}
                try:
                    for _ in range(steps):
                        d_losses, g_losses = self.train_step()
                        for value in d_losses:  # one at a time, in step order
                            sums["l_d"] += value
                        for key, value in g_losses.items():
                            sums[key] += value
                except NumericError:
                    self.aborted = True
                    break
                record = {"epoch": epoch}
                record.update(
                    {k: sums[k] / steps for k in ("l_bpr", "l_cl", "l_g")}
                )
                record["l_d"] = sums["l_d"] / (steps * cfg.d_steps) if not cfg.disable_asl else 0.0
                if self.split.val.num_edges:  # else no epoch is validated, and none is best
                    record.update(self._validate())
                self.log.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    log_fh.flush()
                if "recall" in record and record["recall"] > self.best_recall:
                    self.best_recall = record["recall"]
                    self.best_epoch = epoch
                    self.best_arrays = {name: buf.copy() for name, buf in _live_arrays(self.state).items()}
                self.epoch += 1
                if checkpoint_path is not None:
                    self.save(checkpoint_path)
                if self.best_epoch >= 0 and self.epoch - 1 - self.best_epoch >= cfg.patience:
                    break
        finally:
            if log_fh:
                log_fh.close()
        return self


def _stored_ids(name: str, ids: np.ndarray, width: int) -> np.ndarray:
    # NaN fails every comparison
    if not ((ids >= 0) & (ids < width) & (ids == np.floor(ids))).all():
        raise ValueError(f"checkpoint array {name} holds an id that is not a whole number in [0, {width})")
    ids = ids.astype(np.intp)
    ordered = np.sort(ids, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError(f"checkpoint array {name} repeats an id within a row")
    return ids

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
    ScoreRows,
    build_norm_adjacency,
    sample_bpr_triplets,
)
from .encoder import EncoderConfig, SemanticNeighborhood
from .evaluation import EvalConfig, RankingReport, evaluate_scores
from .model import ModelState

__all__ = [
    "TrainConfig",
    "AdvConfig",
    "AdamOptimizer",
    "Trainer",
    "TrainResult",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
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
    """Adaptive-moment update with weight decay decoupled from the moments."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads: GradientMap) -> None:
        self.t += 1
        b1, b2 = self.betas
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
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for p in self.params:
            out[f"{prefix}.m.{p.name}"] = self.m[p.name]
            out[f"{prefix}.v.{p.name}"] = self.v[p.name]
        return out


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
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path.name}: bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ValueError(f"{path.name}: truncated checkpoint header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path.name}: unsupported checkpoint version {version}")
    offset = 8
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
            offset += size * 8
            arrays[name] = arr.copy()
        (meta_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        meta = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError, ValueError) as e:
        raise ValueError(f"{path.name}: corrupt checkpoint payload: {e}") from e
    return arrays, meta


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


# stopping criteria may change between a run and its resumption (extending a
# finished run is the point of --resume); everything else must match
_FINGERPRINT_EXEMPT = ("train.epochs", "train.patience")


def _config_fingerprint(flat: dict) -> str:
    import hashlib

    kept = {k: v for k, v in flat.items() if k not in _FINGERPRINT_EXEMPT}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Trainer
# --------------------------------------------------------------------------


@dataclass
class TrainResult:
    state: ModelState
    log: list[dict]
    best_epoch: int
    best_recall: float
    best_arrays: dict[str, np.ndarray]
    aborted: bool = False


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
        for table in features:
            if table.num_items != graph.num_items:
                raise ValueError(
                    f"feature table '{table.name}' covers {table.num_items} items, "
                    f"graph has {graph.num_items}"
                )
        for name in ("train", "val", "test"):
            if getattr(split, name).matrix.shape != graph.matrix.shape:
                raise ValueError(f"split.{name} is not of the graph's shape {graph.matrix.shape}")
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
        init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
        self.state = mdl.init_model(
            graph.num_users,
            graph.num_items,
            [t.dim for t in features],
            cfg.embed_dim,
            enc_cfg.heads,
            cfg.disc_hidden,
            init_rng,
            gen_dropout=cfg.gen_dropout,
            disc_dropout=cfg.disc_dropout,
        )
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
        self.bad_epochs = 0
        self.log: list[dict] = []

    # -- single steps -----------------------------------------------------

    def _eval_forward(self, semantic: mdl.SemanticChain | None = None) -> mdl.ForwardResult:
        return mdl.forward_embeddings(
            self.state,
            self.adj,
            self.features,
            self.neighborhoods,
            self.enc_cfg,
            self.obj_cfg.omega,
            train=False,
            semantic=semantic,
        )

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

    def d_step(self, taped: tuple[ad.Tape, mdl.SemanticChain] | None = None) -> float:
        """One critic update on frozen generator outputs.

        With the Gumbel proxy's augmentation on, the eval-mode forward reads
        the ``(tape, chain)`` pair ``taped``, or a chain of its own.
        """
        cfg = self.cfg
        batch_users = self.rng_adv.integers(0, self.graph.num_users, size=cfg.batch_size)
        fwd = h_u = h_i = None
        if not cfg.disable_gumbel and self.adv_cfg.zeta != 0.0:
            chain_tape, chain = taped or self._record_chain()
            # taped ops skip their own finiteness checks; check what is read
            for t in (chain.prop_users, chain.prop_items):
                chain_tape.require_finite(t, "non-finite semantic embeddings")
            fwd = self._eval_forward(chain)
            h_u, h_i = fwd.h_users.data[batch_users], fwd.h_items.data
        real = adversarial.gumbel_real_proxy(
            self.split.train.matrix[batch_users].toarray(), self.rng_adv,
            self.adv_cfg.tau, self.adv_cfg.zeta, cfg.disable_gumbel, h_u, h_i,
        )
        fake = np.empty((len(batch_users), self.graph.num_items))
        assignment = self.rng_adv.integers(0, len(self.features), size=len(batch_users))
        for m, table in enumerate(self.features):
            rows = np.flatnonzero(assignment == m)
            if rows.size == 0:
                continue
            if fwd is not None:  # the same eval-mode embeddings, already computed
                f_u, f_i = fwd.prior_users[m], fwd.prior_items[m]
            else:
                f_u, f_i = adversarial.modality_collab_embeddings(
                    self.adj, table.as_float64(), self.state.gen, m, train=False
                )
            fake[rows] = adversarial.user_relation_rows(f_u, f_i, batch_users[rows]).data
        del fwd  # the critic's tape needs none of the forward's arrays
        gp_rows = adversarial.interpolate_rows(real, fake, self.rng_adv)
        with ad.Tape() as tape:
            real_scores = adversarial.discriminate(real, self.state.disc, train=True, rng=self.rng_adv)
            fake_scores = adversarial.discriminate(fake, self.state.disc, train=True, rng=self.rng_adv)
            loss = adversarial.loss_d(
                real_scores,
                fake_scores,
                gp_rows,
                self.state.disc,
                lam1=self.adv_cfg.lam1,
                train=True,
                rng=self.rng_adv,
                negate_critic=self.adv_cfg.negate_critic,
            )
        grads = tape.backward(loss, params=self.state.discriminator_parameters())
        self.opt_disc.step(grads)
        return loss.item()

    def g_step(self, taped: tuple[ad.Tape, mdl.SemanticChain] | None = None) -> dict[str, float]:
        """One generator-side update over every non-critic parameter, which
        differentiates the ``(tape, chain)`` pair ``taped``, or a chain of
        its own."""
        cfg = self.cfg
        triplets = sample_bpr_triplets(self.split, self.graph, cfg.batch_size, self.rng)
        adv_users = None
        if not cfg.disable_asl:
            adv_users = self.rng_adv.integers(0, self.graph.num_users, size=cfg.batch_size)
        tape, chain = taped or self._record_chain()
        with tape:
            fwd = mdl.forward_embeddings(
                self.state,
                self.adj,
                self.features,
                self.neighborhoods,
                self.enc_cfg,
                self.obj_cfg.omega,
                train=True,
                rng=self.rng,
                semantic=chain,
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
        """Rank every item for each user (eval mode, training items
        excluded) and score the top ``k`` against the ``held_out`` edges."""
        if held_out.matrix.shape != self.graph.matrix.shape:
            raise ValueError(
                f"held-out graph has shape {held_out.matrix.shape}, "
                f"the model {self.graph.matrix.shape}"
            )
        fwd = self._eval_forward()
        return evaluate_scores(
            ScoreRows(fwd.h_users.data, fwd.h_items.data),
            train_items=self.split.train.user_items,
            relevant=held_out.user_items,
            k=k,
            boundaries=self.eval_cfg.buckets,
        )

    def _validate(self) -> dict[str, float]:
        report = self.evaluate(self.split.val, self.eval_cfg.k)
        return {key: report.overall[key] for key in ("recall", "ndcg", "precision")}

    def _state_buffers(self) -> dict[str, np.ndarray]:
        """Checkpoint name -> live buffer of every parameter and BN statistic."""
        buffers = {name: p.data for name, p in self.state.named_parameters().items()}
        for layer in ("bn1", "bn2"):
            stats = getattr(self.state.disc, layer)
            buffers[f"bn.disc.{layer}.mean"] = stats.mean
            buffers[f"bn.disc.{layer}.var"] = stats.var
        return buffers

    def _snapshot_arrays(self) -> dict[str, np.ndarray]:
        return {name: buf.copy() for name, buf in self._state_buffers().items()}

    def _restore_arrays(self, arrays: dict[str, np.ndarray], buffers=None) -> None:
        """Copy ``arrays`` into ``buffers`` (default: the model state), after
        checking that none is missing, so a bad checkpoint changes nothing."""
        buffers = self._state_buffers() if buffers is None else buffers
        for name in sorted(buffers):
            if name not in arrays:
                raise ValueError(f"checkpoint is missing array {name}")
            if arrays[name].shape != buffers[name].shape:
                raise ValueError(f"checkpoint array {name} has shape {arrays[name].shape}")
        for name, buf in buffers.items():
            buf[:] = arrays[name]

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        arrays = self._snapshot_arrays()
        arrays.update(self.opt_gen.state_arrays("optg"))
        arrays.update(self.opt_disc.state_arrays("optd"))
        for name, arr in self.best_arrays.items():
            arrays[f"best.{name}"] = arr
        # neighbour ids are exact in float64; a resume between refreshes
        # (enc.refresh_every > 1) must train on the same neighbours
        for m, neigh in enumerate(self.neighborhoods or ()):
            arrays[f"nbr.{m}.users"] = neigh.user_neighbors
            arrays[f"nbr.{m}.items"] = neigh.item_neighbors
        return arrays

    def stored_neighborhoods(self, arrays: dict[str, np.ndarray]) -> list[SemanticNeighborhood] | None:
        """The neighbour ids stored as ``nbr.{m}.users`` and ``nbr.{m}.items``,
        or None when ``arrays`` holds no ``nbr.`` array (a ``best.ckpt``).

        Each id must be a whole number in range, and no row may repeat one:
        the ids index the relation matrices, and a refresh reads a row's ids
        as k distinct entries.  Anything else is a ``ValueError`` naming the
        array.
        """
        if not any(name.startswith("nbr.") for name in arrays):
            return None
        num_users, num_items, k = self.graph.num_users, self.graph.num_items, self.enc_cfg.top_k
        return [
            SemanticNeighborhood(
                _stored_ids(arrays, f"nbr.{m}.users", (num_users, min(k, num_items)), num_items),
                _stored_ids(arrays, f"nbr.{m}.items", (num_items, min(k, num_users)), num_users),
            )
            for m in range(len(self.features))
        ]

    def checkpoint_meta(self) -> dict:
        return {
            "epoch": self.epoch,
            "rng": _jsonable(_rng_state(self.rng)),
            "rng_adv": _jsonable(_rng_state(self.rng_adv)),
            "opt_gen_t": self.opt_gen.t,
            "opt_disc_t": self.opt_disc.t,
            "best_epoch": self.best_epoch,
            "best_recall": self.best_recall,
            "bad_epochs": self.bad_epochs,
            "config": self.config_flat,
            "config_hash": _config_fingerprint(self.config_flat),
        }

    def save(self, path) -> None:
        save_checkpoint(path, self.checkpoint_arrays(), self.checkpoint_meta())

    def restore(self, path) -> None:
        arrays, meta = load_checkpoint(path)
        if self.config_flat and meta.get("config_hash") != _config_fingerprint(self.config_flat):
            raise ValueError("checkpoint was produced under a different configuration")
        missing = sorted(set(self.checkpoint_meta()) - set(meta))
        if missing:
            raise ValueError(f"checkpoint metadata is missing {missing[0]}")
        neighborhoods = self.stored_neighborhoods(arrays)
        if neighborhoods is None:
            raise ValueError("checkpoint is missing array nbr.0.users")
        # the optimizer state arrays are the optimizers' live moment buffers
        self._restore_arrays(
            arrays,
            {
                **self._state_buffers(),
                **self.opt_gen.state_arrays("optg"),
                **self.opt_disc.state_arrays("optd"),
            },
        )
        self.neighborhoods = neighborhoods
        self.opt_gen.t = meta["opt_gen_t"]
        self.opt_disc.t = meta["opt_disc_t"]
        self.rng = _restore_rng(meta["rng"])
        self.rng_adv = _restore_rng(meta["rng_adv"])
        # run() increments epoch before writing, so the stored value is
        # already the index of the next epoch to execute
        self.epoch = meta["epoch"]
        self.best_epoch = meta["best_epoch"]
        self.best_recall = meta["best_recall"]
        self.bad_epochs = meta["bad_epochs"]
        self.best_arrays = {
            name[len("best.") :]: arr for name, arr in arrays.items() if name.startswith("best.")
        }

    # -- main loop ----------------------------------------------------------

    def run(self, checkpoint_path=None, log_path=None) -> TrainResult:
        cfg = self.cfg
        steps = cfg.steps_per_epoch or max(1, -(-self.split.train.num_edges // cfg.batch_size))
        aborted = False
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
                    aborted = True
                    break
                record = {"epoch": epoch}
                record.update(
                    {k: sums[k] / steps for k in ("l_bpr", "l_cl", "l_g")}
                )
                record["l_d"] = sums["l_d"] / (steps * cfg.d_steps) if not cfg.disable_asl else 0.0
                record.update(self._validate())
                self.log.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    log_fh.flush()
                if record["recall"] > self.best_recall:
                    self.best_recall = record["recall"]
                    self.best_epoch = epoch
                    self.best_arrays = self._snapshot_arrays()
                    self.bad_epochs = 0
                else:
                    self.bad_epochs += 1
                self.epoch += 1
                if checkpoint_path is not None:
                    self.save(checkpoint_path)
                if self.bad_epochs >= cfg.patience:
                    break
        finally:
            if log_fh:
                log_fh.close()
        return TrainResult(
            state=self.state,
            log=self.log,
            best_epoch=self.best_epoch,
            best_recall=self.best_recall,
            best_arrays=self.best_arrays,
            aborted=aborted,
        )


def fit(
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    adv_cfg: AdvConfig,
    obj_cfg: ObjectiveConfig,
    eval_cfg: EvalConfig,
    graph: InteractionGraph,
    features: list[ModalityFeatureTable],
    split: DataSplit,
    checkpoint_path=None,
    log_path=None,
    resume_from=None,
    config_flat: dict | None = None,
) -> TrainResult:
    trainer = Trainer(
        cfg, enc_cfg, adv_cfg, obj_cfg, eval_cfg, graph, features, split, config_flat
    )
    if resume_from is not None:
        trainer.restore(resume_from)
    return trainer.run(checkpoint_path=checkpoint_path, log_path=log_path)


def _stored_ids(arrays: dict[str, np.ndarray], name: str, shape: tuple, width: int) -> np.ndarray:
    if name not in arrays:
        raise ValueError(f"checkpoint is missing array {name}")
    ids = np.asarray(arrays[name], dtype=np.float64)
    if ids.shape != shape:
        raise ValueError(f"checkpoint array {name} has shape {ids.shape}")
    # NaN fails every comparison
    if not ((ids >= 0) & (ids < width) & (ids == np.floor(ids))).all():
        raise ValueError(f"checkpoint array {name} holds an id that is not a whole number in [0, {width})")
    ids = ids.astype(np.intp)
    ordered = np.sort(ids, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError(f"checkpoint array {name} repeats an id within a row")
    return ids


def _jsonable(state: dict):
    """numpy rng states hold plain ints and strings already; deep-copy via json."""
    return json.loads(json.dumps(state, default=int))

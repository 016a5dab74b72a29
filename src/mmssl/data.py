"""Interaction graphs, modality feature tables, splits and synthetic data.

External formats:

* interaction file: UTF-8 lines ``user_id<TAB>item_id``, optional header
  line ``# users=<n> items=<m>``, blank lines ignored;
* feature file: magic ``MMF1``, u32 LE row count, u32 LE column count,
  then rows*cols float32 LE values in row-major order;
* synthetic spec: a small JSON document (see ``SyntheticSpec``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DataFormatError",
    "InteractionGraph",
    "ModalityFeatureTable",
    "ScoreRows",
    "DataSplit",
    "TripletBatch",
    "SyntheticSpec",
    "load_interactions",
    "write_interactions",
    "graph_from_edges",
    "load_modality_features",
    "write_modality_features",
    "split_edges",
    "sample_bpr_triplets",
    "NormalizedAdjacency",
    "build_norm_adjacency",
    "sparsity_buckets",
    "check_bucket_boundaries",
    "bucket_labels",
    "generate_synthetic",
]

FEATURE_MAGIC = b"MMF1"


class DataFormatError(ValueError):
    """Raised for malformed or inconsistent input files."""


@dataclass
class InteractionGraph:
    """Bipartite user-item interactions with contiguous integer ids.

    ``matrix`` is the (U, I) CSR matrix of ones, each row's item ids
    ascending and without repeats; every other view derives from it.
    """

    matrix: sp.csr_matrix

    @property
    def num_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_items(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_edges(self) -> int:
        return self.matrix.nnz

    @cached_property
    def user_items(self) -> list[np.ndarray]:
        """Per user, the sorted item ids (views of ``matrix.indices``)."""
        bounds = self.matrix.indptr.tolist()
        return [self.matrix.indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def sparsity(self) -> float:
        cells = self.num_users * self.num_items
        if cells == 0:
            return 1.0
        return 1.0 - self.num_edges / cells

    def dense_matrix(self) -> np.ndarray:
        return self.matrix.toarray()


def graph_from_edges(num_users: int, num_items: int, edges) -> InteractionGraph:
    """Build a graph from (user, item) pairs, validating ranges and duplicates.

    An error names the first pair, in input order, that is out of range or
    repeats an earlier pair; a pair that is both is reported as out of range.
    """
    try:
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise DataFormatError("edge id outside the 64-bit range") from None
    users, items = pairs[:, 0], pairs[:, 1]
    outside = (users < 0) | (users >= num_users) | (items < 0) | (items >= num_items)
    # equal in-range pairs have equal keys; a key that an out-of-range pair
    # shares is never reported, as that pair or an earlier offender wins
    keys = users * num_items + items
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    offenders = np.flatnonzero(outside | repeat)
    if offenders.size:
        first = offenders[0]
        u, i = int(users[first]), int(items[first])
        if outside[first]:
            raise DataFormatError(f"edge ({u}, {i}) outside declared id range")
        raise DataFormatError(f"duplicate edge ({u}, {i})")
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=num_users), out=indptr[1:])
    matrix = sp.csr_matrix(
        (np.ones(len(order)), items[order], indptr), shape=(num_users, num_items)
    )
    return InteractionGraph(matrix)


def _parse_header(line: str, lineno: int) -> tuple[int, int]:
    body = line.lstrip("#").strip()
    parts = dict()
    for chunk in body.split():
        if "=" not in chunk:
            raise DataFormatError(f"line {lineno}: malformed header field '{chunk}'")
        key, _, value = chunk.partition("=")
        parts[key] = value
    try:
        return int(parts["users"]), int(parts["items"])
    except (KeyError, ValueError) as e:
        raise DataFormatError(f"line {lineno}: header must declare users=<n> items=<m>") from e


# largest user or item count a file may give: the range of a 32-bit CSR index
MAX_IDS = 2**31 - 1


def load_interactions(path) -> InteractionGraph:
    """Read an interaction file.  Header counts win; otherwise max id + 1.

    A file of plain ``digits<TAB>digits`` lines after at most one header line
    is parsed with array operations; any other file line by line, which
    gives each error its line number."""
    path = Path(path)
    plain = _read_plain(path.read_bytes())
    declared, edges = plain if plain is not None else _read_lines(path)
    if declared is not None:
        num_users, num_items = declared
    elif plain is not None:
        num_users, num_items = (1 + edges.max(axis=0, initial=-1)).tolist()
    else:
        num_users = 1 + max((u for u, _ in edges), default=-1)
        num_items = 1 + max((i for _, i in edges), default=-1)
    source = "header declares" if declared is not None else "ids imply"
    counts = f"{source} users={num_users} items={num_items}"
    if not (0 <= num_users <= MAX_IDS and 0 <= num_items <= MAX_IDS):
        raise DataFormatError(f"{path.name}: {counts}; each count must lie in 0..{MAX_IDS}")
    try:
        return graph_from_edges(num_users, num_items, edges)
    except MemoryError:
        raise DataFormatError(f"{path.name}: {counts}, too many to allocate") from None


# ids of at most this many digits fit an int64 whatever the digits
PLAIN_ID_DIGITS = 18


def _read_plain(blob: bytes) -> tuple[tuple[int, int] | None, np.ndarray] | None:
    """Header counts (or None) and (n, 2) int64 ids of a file made of at most
    one header line followed only by ``digits<TAB>digits`` lines of ids up to
    ``PLAIN_ID_DIGITS`` long; None for any other file."""
    head = None
    if blob.startswith(b"#"):
        head, _, blob = blob.partition(b"\n")
    data = np.frombuffer(blob, dtype=np.uint8)
    if data.size and data[-1] != ord("\n"):
        data = np.append(data, np.uint8(ord("\n")))
    sep = np.flatnonzero((data < ord("0")) | (data > ord("9")))
    # fields alternate: an id ended by a tab, an id ended by a newline
    if sep.size % 2 or (data[sep[0::2]] != ord("\t")).any() or (data[sep[1::2]] != ord("\n")).any():
        return None
    lengths = np.diff(sep, prepend=-1) - 1
    if not 1 <= lengths.min(initial=1) <= lengths.max(initial=1) <= PLAIN_ID_DIGITS:
        return None
    declared = None
    if head is not None:
        # a lone carriage return ends a line when read as text: leave that to the line reader
        if b"\r" in head[:-1]:
            return None
        try:
            line = head.decode("utf-8").strip()
        except UnicodeDecodeError:
            return None
        declared = _parse_header(line, 1)
    digits = data.astype(np.int64) - ord("0")
    digits[sep] = 0
    # each digit's place value: the count of digits after it in its field
    place = np.repeat(sep, lengths + 1) - np.arange(data.size) - 1
    values = np.add.reduceat(digits * 10 ** np.maximum(place, 0), sep - lengths) if sep.size else digits
    return declared, values.reshape(-1, 2)


def _read_lines(path: Path) -> tuple[tuple[int, int] | None, list[tuple[int, int]]]:
    """Header counts (or None) and the (user, item) pairs, read line by line."""
    declared: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if declared is not None:
                    raise DataFormatError(f"line {lineno}: repeated header")
                if edges:
                    raise DataFormatError(f"line {lineno}: header must precede edges")
                declared = _parse_header(line, lineno)
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataFormatError(f"line {lineno}: expected 'user<TAB>item', got {raw!r}")
            try:
                u, i = int(fields[0]), int(fields[1])
            except ValueError:
                raise DataFormatError(f"line {lineno}: non-integer id in {raw!r}") from None
            if u < 0 or i < 0:
                raise DataFormatError(f"line {lineno}: negative id in {raw!r}")
            edges.append((u, i))
    return declared, edges


def write_interactions(graph: InteractionGraph, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# users={graph.num_users} items={graph.num_items}\n")
        users = np.repeat(np.arange(graph.num_users), np.diff(graph.matrix.indptr))
        fh.writelines(f"{u}\t{i}\n" for u, i in zip(users.tolist(), graph.matrix.indices.tolist()))


def load_modality_features(path) -> "ModalityFeatureTable":
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise DataFormatError(f"{path.name}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise DataFormatError(f"{path.name}: truncated header")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + rows * cols * 4
    if len(blob) != expected:
        raise DataFormatError(
            f"{path.name}: payload is {len(blob) - 12} bytes, expected {rows * cols * 4}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=12).reshape(rows, cols)
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path.name}: non-finite feature value")
    return ModalityFeatureTable(name=path.stem, values=values)


def write_modality_features(path, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 2:
        raise DataFormatError("feature table must be 2-D")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_feature_header(values.shape))
        fh.write(values.tobytes(order="C"))


def _feature_header(shape: tuple[int, int]) -> bytes:
    return FEATURE_MAGIC + struct.pack("<II", *shape)


@dataclass
class ModalityFeatureTable:
    """Raw per-item features for one modality.  Stored 32-bit, promoted on use."""

    name: str
    values: np.ndarray

    @property
    def num_items(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def as_float64(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


# --------------------------------------------------------------------------
# Splits and sampling
# --------------------------------------------------------------------------


@dataclass
class DataSplit:
    """Disjoint train/val/test edges, each a graph of the full shape."""

    train: InteractionGraph
    val: InteractionGraph
    test: InteractionGraph


def split_edges(
    graph: InteractionGraph,
    ratios: tuple[float, float, float],
    seed: int,
) -> DataSplit:
    """Deterministic per-user stratified split.

    Every interacting user keeps at least one train edge (a single-edge
    user goes entirely to train); users with no edges get none.  Remaining
    edges are pooled and cut by the global ratios.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if min(ratios) < 0:
        raise ValueError(f"split ratios must not be negative, got {ratios}")
    rng = np.random.default_rng(seed)
    indptr, indices = graph.matrix.indptr, graph.matrix.indices
    counts = np.diff(indptr)
    # each user's CSR positions shuffled in place, in user order: the same
    # draws as start + rng.permutation(n), which shuffles np.arange(n)
    shuffled = np.arange(indptr[-1], dtype=np.int64)
    bounds = indptr.tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            rng.shuffle(shuffled[start:stop])
    firsts = indptr[:-1][counts > 0]
    reserved, pool = shuffled[firsts], np.delete(shuffled, firsts)
    total = len(shuffled)
    n_val = int(round(ratios[1] * total))
    n_test = int(round(ratios[2] * total))
    n_train = total - n_val - n_test
    if n_train < len(reserved):
        n_train = len(reserved)
        n_val = min(n_val, total - n_train)
        n_test = total - n_train - n_val
    order = np.concatenate((reserved, pool[rng.permutation(len(pool))]))
    pairs = np.column_stack((np.repeat(np.arange(graph.num_users), counts)[order], indices[order]))
    parts = np.split(pairs, [n_train, n_train + n_val])
    return DataSplit(*(graph_from_edges(graph.num_users, graph.num_items, p) for p in parts))


@dataclass
class TripletBatch:
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def sample_bpr_triplets(
    split: DataSplit,
    graph: InteractionGraph,
    batch: int,
    rng: np.random.Generator,
) -> TripletBatch:
    """Uniformly sample train edges, pairing each with a rejected negative.

    Negatives are uniform over items not observed for that user anywhere in
    the dataset.  A user interacting with every item has no valid negative.
    """
    train = split.train.matrix
    if train.nnz == 0:
        raise ValueError("cannot sample triplets from an empty train split")
    idx = rng.integers(0, train.nnz, size=batch)
    # the row holding CSR entry j: "right" steps past the empty rows before it
    users = (np.searchsorted(train.indptr, idx, side="right") - 1).astype(np.int64)
    pos = train.indices[idx].astype(np.int64)
    neg = np.empty(batch, dtype=np.int64)
    for row, u in enumerate(users.tolist()):
        if len(graph.user_items[u]) >= graph.num_items:
            raise ValueError(f"user {u} interacts with every item; no negative exists")
        while True:
            cand = int(rng.integers(0, graph.num_items))
            if cand not in graph.user_items[u]:
                break
        neg[row] = cand
    return TripletBatch(users=users, pos_items=pos, neg_items=neg)


# --------------------------------------------------------------------------
# Normalized adjacency
# --------------------------------------------------------------------------


@dataclass
class NormalizedAdjacency:
    """Degree-normalized message-passing operators for both directions.

    ``user_from_item[u, i] = 1/sqrt(|N_u|)`` on observed edges, so a row's
    squared entries sum to one; ``item_from_user`` is the item-side analog.
    """

    user_from_item: sp.csr_matrix  # (U, I)
    item_from_user: sp.csr_matrix  # (I, U)


def _inverse_sqrt_degree_rows(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` with each entry of row r set to 1/sqrt(entries in row r)."""
    counts = np.diff(m.indptr)
    return sp.csr_matrix(
        (1.0 / np.sqrt(np.repeat(counts, counts)), m.indices, m.indptr), shape=m.shape
    )


def build_norm_adjacency(graph: InteractionGraph) -> NormalizedAdjacency:
    return NormalizedAdjacency(
        user_from_item=_inverse_sqrt_degree_rows(graph.matrix),
        item_from_user=_inverse_sqrt_degree_rows(graph.matrix.T.tocsr()),
    )


# --------------------------------------------------------------------------
# Sparsity buckets
# --------------------------------------------------------------------------

DEFAULT_BUCKET_BOUNDARIES = (0, 4, 6, 9, 13, 100)


def bucket_labels(boundaries) -> list[str]:
    return [f"[{a},{b})" for a, b in zip(boundaries[:-1], boundaries[1:])]


def check_bucket_boundaries(boundaries) -> None:
    """Raise ``ValueError`` unless ``boundaries`` are at least two strictly
    ascending values."""
    bounds = list(boundaries)
    if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
        raise ValueError(f"bucket boundaries must be strictly ascending, got {bounds}")
    if len(bounds) < 2:
        raise ValueError(f"need at least two bucket boundaries, got {bounds}")


def sparsity_buckets(degrees: np.ndarray, boundaries) -> dict[str, np.ndarray]:
    """Partition users into half-open interaction-count ranges.

    Degrees below the first boundary fall into the first bucket and degrees
    at or above the last boundary into the last, so the result is always a
    partition of all users.
    """
    check_bucket_boundaries(boundaries)
    bounds = list(boundaries)
    degrees = np.asarray(degrees)
    labels = bucket_labels(bounds)
    edges = np.array(bounds[1:-1])
    which = np.searchsorted(edges, degrees, side="right")
    return {label: np.flatnonzero(which == k) for k, label in enumerate(labels)}


# --------------------------------------------------------------------------
# Synthetic data with planted structure
# --------------------------------------------------------------------------


def _whole_number(key: str, value) -> int:
    """``value`` if it is an int (a bool is not); else a ``DataFormatError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataFormatError(f"{key} must be a whole number, got {value!r}")
    return value


@dataclass
class SyntheticSpec:
    """Recipe for a small dataset with recoverable planted preferences."""

    num_users: int = 50
    num_items: int = 40
    modality_dims: tuple[int, ...] = (24, 16)
    latent_dim: int = 6
    # sparse and noisy by default: with few observed edges per user the
    # collaborative signal alone ranks poorly, and corrupted features leave
    # room for the learned relation matrices to improve on raw similarity
    interactions_per_user: int = 2
    noise: float = 0.5
    seed: int = 0

    @classmethod
    def from_json(cls, doc: dict) -> "SyntheticSpec":
        if not isinstance(doc, dict):
            raise DataFormatError(f"synthetic spec must be a JSON object, got {doc!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise DataFormatError(f"unknown synthetic spec fields: {sorted(extra)}")
        kwargs = dict(doc)
        for key in ("num_users", "num_items", "latent_dim", "interactions_per_user", "seed"):
            if key in kwargs:
                _whole_number(key, kwargs[key])
        if "modality_dims" in kwargs:
            dims = kwargs["modality_dims"]
            if not isinstance(dims, (list, tuple)):
                raise DataFormatError(f"modality_dims must be a list, got {dims!r}")
            kwargs["modality_dims"] = tuple(_whole_number("modality_dims", d) for d in dims)
        noise = kwargs.get("noise", cls.noise)
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise DataFormatError(f"noise must be a number, got {noise!r}")
        spec = cls(**kwargs)
        if spec.num_users <= 0 or spec.num_items <= 0:
            raise DataFormatError("synthetic spec needs positive user/item counts")
        if spec.latent_dim <= 0:
            raise DataFormatError(f"latent_dim must be positive, got {spec.latent_dim}")
        if not spec.modality_dims:
            raise DataFormatError("modality_dims must name at least one modality, got []")
        if any(d <= 0 for d in spec.modality_dims):
            raise DataFormatError(f"modality_dims must be positive, got {list(spec.modality_dims)}")
        if not 0 <= spec.interactions_per_user <= spec.num_items:
            raise DataFormatError(
                f"interactions_per_user must lie in 0..num_items={spec.num_items}, "
                f"got {spec.interactions_per_user}"
            )
        if not 0.0 <= spec.noise < np.inf:
            raise DataFormatError(f"noise must be a finite non-negative number, got {spec.noise}")
        if spec.seed < 0:
            raise DataFormatError(f"seed must not be negative, got {spec.seed}")
        return spec

    def to_json(self) -> dict:
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "modality_dims": list(self.modality_dims),
            "latent_dim": self.latent_dim,
            "interactions_per_user": self.interactions_per_user,
            "noise": self.noise,
            "seed": self.seed,
        }

    @classmethod
    def load(cls, path) -> "SyntheticSpec":
        with Path(path).open("r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"synthetic spec is not valid JSON: {e}") from e
        return cls.from_json(doc)


class ScoreRows:
    """The (U, I) scores ``users @ items.T``, computed a block of rows at a
    time: a reader of only ``.shape`` and ``[rows]`` never holds the whole
    U x I matrix.  ``np.asarray`` builds it in one product.  Where I is not
    a multiple of the BLAS kernel width, a block's last few columns can
    differ from it in the last bit, so a ranking moves only on such ties."""

    def __init__(self, users: np.ndarray, items: np.ndarray):
        self.users, self.items = users, items
        self.shape = (users.shape[0], items.shape[0])

    def __getitem__(self, rows) -> np.ndarray:
        return self.users[rows] @ self.items.T

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.users @ self.items.T, dtype=dtype)


def generate_synthetic(
    spec: SyntheticSpec, planted_path=None
) -> tuple[InteractionGraph, list[ModalityFeatureTable], ScoreRows]:
    """Plant user/item latents, derive features and interactions from them.

    Each modality's features are a linear map of the item latents plus
    scaled gaussian noise (the identity map when the dimensions agree, so a
    noise-free spec reproduces the latents exactly).  Each user interacts
    with exactly ``interactions_per_user`` distinct items drawn without
    replacement in proportion to softmax(z_u . z_i).  Returns the graph,
    the feature tables and the planted affinities z_u . z_i as ``ScoreRows``,
    which the draws read a block of users at a time.  With ``planted_path``,
    the float32 cast of each block is written there as it is drawn, as a
    feature table of the affinities the draws used; its directory is made
    once the latents and features exist.
    """
    rng = np.random.default_rng(spec.seed)
    z_u = rng.standard_normal((spec.num_users, spec.latent_dim))
    z_i = rng.standard_normal((spec.num_items, spec.latent_dim))
    features = []
    for m, dim in enumerate(spec.modality_dims):
        if dim == spec.latent_dim:
            mapped = z_i.copy()
        else:
            basis = rng.standard_normal((spec.latent_dim, dim)) / np.sqrt(spec.latent_dim)
            mapped = z_i @ basis
        if spec.noise > 0:
            mapped = mapped + spec.noise * mapped.std() * rng.standard_normal(mapped.shape)
        features.append(ModalityFeatureTable(name=f"modality{m}", values=mapped.astype("<f4")))
    planted = ScoreRows(z_u, z_i)
    if planted_path is None:
        edges = _draw_interactions(planted, spec.interactions_per_user, rng)
    else:
        planted_path = Path(planted_path)
        planted_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with planted_path.open("wb") as fh:
                fh.write(_feature_header(planted.shape))
                edges = _draw_interactions(planted, spec.interactions_per_user, rng, fh)
        except BaseException:  # a failed draw leaves no partial table
            planted_path.unlink(missing_ok=True)
            raise
    graph = graph_from_edges(spec.num_users, spec.num_items, edges)
    return graph, features, planted


# bytes of each of the two float64 row buffers of ``_draw_interactions``
DRAW_BLOCK_BYTES = 8 << 20


def _draw_interactions(
    planted: np.ndarray | ScoreRows, k: int, rng: np.random.Generator, sink=None
) -> np.ndarray:
    """The (U*k, 2) edges that a per-user ``rng.choice(I, k, replace=False,
    p=softmax(planted[u]))`` draws, bit for bit and with the same ``rng`` calls.

    ``planted`` is read, and the softmax and its normalised cumulative sum
    are computed, a block of rows at a time, by the operations
    ``rng.choice`` applies to one row.  Rows of a ``ScoreRows`` block can
    differ from the full product's in the last bit; the draws use the block.
    Per user, numpy's without-replacement rounds are replayed: draw the
    missing count; from the second round on, zero the items found so far
    and rebuild the distribution; search it and keep the first occurrence
    of each item, in draw order.  Each block is also written to the binary
    file ``sink``, if given, cast to little-endian float32.
    """
    num_users, num_items = planted.shape
    if num_users and not 0 <= k <= num_items:
        raise ValueError(f"cannot draw {k} distinct items from {num_items}")
    edges = np.empty((num_users, k, 2), dtype=np.int64)
    edges[:, :, 0] = np.arange(num_users)[:, None]
    step = max(1, DRAW_BLOCK_BYTES // (8 * max(1, num_items)))
    probs = np.empty((min(step, num_users), num_items))
    cdfs = np.empty_like(probs)
    for start in range(0, num_users, step):
        block = planted[start : start + step]
        if sink is not None:
            sink.write(block.astype("<f4").tobytes())
        p, c = probs[: len(block)], cdfs[: len(block)]
        np.subtract(block, block.max(axis=1, keepdims=True), out=p)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        short = np.flatnonzero(np.count_nonzero(p > 0, axis=1) < k)
        if short.size:
            raise ValueError(f"user {start + short[0]} has fewer than {k} items of non-zero probability")
        np.cumsum(p, axis=1, out=c)
        c /= c[:, -1:].copy()  # a copy: dividing by a view of c itself is twice as slow
        for row in range(len(block)):
            cdf, found = c[row], []
            while len(found) < k:
                x = rng.random(k - len(found))
                if found:  # p is a work buffer: this row is not read again
                    p[row, found] = 0
                    cdf = np.cumsum(p[row])
                    cdf /= cdf[-1]
                found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
            edges[start + row, :, 1] = found
    return edges.reshape(-1, 2)

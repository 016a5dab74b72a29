"""Reverse-mode differentiation over an explicitly recorded operation tape.

All buffers are 64-bit floats.  Every tensor gets a key that no other
tensor ever gets.  Operations compute eagerly with numpy and, when a tape
is active, append a record (``_Record``) of the op name, the outputs, their
keys, the input keys and a vector-Jacobian closure, which keeps only what
it reads.  ``Tape.backward`` walks the records in reverse and sums every
tensor's partials by key in one ``GradientMap``; creation order is a
topological order by construction, so no sort is needed.  How records let
go of their tensors and how a non-finite value is named is stated once, in
``Tape.backward``; how a function's records are renamed, in ``segment``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NumericError",
    "Tensor",
    "Tape",
    "GradientMap",
    "segment",
    "parameter",
    "xavier_parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "sparse_matmul",
    "transpose",
    "reshape",
    "slice_cols",
    "concat",
    "gather_rows",
    "reduce_sum",
    "mean",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "softplus",
    "leaky_relu",
    "row_softmax",
    "l2_normalize_rows",
    "divide_rows_by_sq_norm",
    "row_sq_norms",
    "infonce_terms",
    "head_attention",
    "dropout",
    "batch_norm",
    "BatchNormState",
    "BN_EPS",
    "BN_MOMENTUM",
    "FD_EPS",
    "finite_difference_check",
]


class NumericError(ArithmeticError):
    """A primitive produced a NaN or Inf."""


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value produced by '{op}'")


def _check_finite(arr: np.ndarray, op: str) -> None:
    """Check an untaped call's output; a taped step is checked in backward."""
    if _ACTIVE is None:
        _require_finite(arr, op)


_KEYS = itertools.count()  # unlike an object's identity, a key is never reused


class Tensor:
    """A 64-bit dense buffer with a key of its own; a parameter has a name."""

    __slots__ = ("data", "key", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.key = next(_KEYS)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor({self.name or 'tensor'}, shape={self.shape})"


def parameter(data, name: str) -> Tensor:
    return Tensor(data, name=name)


def xavier_parameter(rng: np.random.Generator, fan_in: int, fan_out: int, name: str) -> Tensor:
    """A (fan_in, fan_out) parameter drawn from ``rng``, Xavier-uniform."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name)


def constant(data) -> Tensor:
    return Tensor(data)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


# --------------------------------------------------------------------------
# Tape machinery
# --------------------------------------------------------------------------

_ACTIVE: "Tape | None" = None  # the tape recording right now, if any


@dataclass(slots=True)
class _Record:
    """One primitive application.  ``out`` is the tuple of its outputs and
    ``keys`` their keys; the vjp takes the outputs' gradients as a tuple
    (None for an output that got none) and returns one partial per key of
    ``inputs``, in the forms ``GradientMap.add`` takes.  Backward drops the
    vjp once it has run and, once its partials are summed, sets ``out`` to
    ``()``; the op name and the keys stay.  Until then the outputs serve the
    replay that names a failing op.  A record made inside a segment bears
    the segment's name and keeps only the outputs the segment returns."""

    op: str
    out: tuple[Tensor, ...]
    keys: tuple[int, ...]
    inputs: tuple[int, ...]
    vjp: Callable | None


class GradientMap:
    """Tensor key -> the sum of its partials; absent entries mean zero.

    Backward sums every tensor's partials in one map: a produced tensor's
    sum leaves it as its record runs, so what ``Tape.backward`` returns
    holds only the requested parameters' gradients.  A partial that only
    the map holds is owned: a fresh, contiguous first partial from a
    deferred function, or the copy a strided first partial gets, and later
    partials are added into it in place.  Any other first partial, such as
    the ``g`` that ``add`` hands to both its inputs, is kept as it is and
    never written: the second partial is added into a new array, which is
    then owned.  Either way each sum is the same ``+`` in arrival order."""

    __slots__ = ("_held", "_owned")

    def __init__(self):
        self._held: dict[int, np.ndarray] = {}
        self._owned: set[int] = set()  # sums that only this map holds, safe to add into

    def add(self, key: int, g) -> None:
        """Add partial ``g`` to the sum keyed ``key``: an array; None, which
        adds nothing; or a deferred function, called here, whose new array
        the map may own."""
        fresh = callable(g)
        if fresh:
            g = g()
        if g is None:
            return
        held = self._held.get(key)
        if held is None:
            # a strided view is copied so that consumers see the layouts
            # they saw when every first partial was
            if not (g.flags.c_contiguous or g.flags.f_contiguous):
                g, fresh = np.array(g), True
            self._held[key] = g
            if fresh and g.flags.owndata:
                self._owned.add(key)
        elif key in self._owned:
            held += g
        else:
            self._held[key] = np.add(held, g, out=np.empty_like(held))
            self._owned.add(key)

    def pop(self, key: int) -> np.ndarray | None:
        """The sum keyed ``key``, which leaves the map; None if it got no partial."""
        self._owned.discard(key)
        return self._held.pop(key, None)

    def get(self, t: Tensor) -> np.ndarray:
        g = self._held.get(t.key)
        return np.zeros_like(t.data) if g is None else g

    def __contains__(self, t: Tensor) -> bool:
        return t.key in self._held


class Tape:
    """Ordered record of primitive applications.  At most one tape records
    at a time; one entered again after it was left continues its records in
    order, so a forward recorded in pieces is differentiated as one."""

    def __init__(self):
        self._records: list[_Record] = []
        self._made: set[int] = set()  # the keys of every record's outputs
        self._spent = False  # backward ran: the vjps are gone

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor, params: Sequence[Tensor]) -> GradientMap:
        """d(loss)/d(p) for each parameter ``p`` of ``params`` that the loss reaches.

        ``loss`` must be scalar (size one), and every tensor of ``params`` a
        parameter (named): ``matmul`` keeps no operand for a constant's
        partial, so no constant may be requested.  Only the tensors among
        ``params`` receive gradients; a partial that only a constant or
        another leaf would receive is not worked out where its primitive
        defers it.  Every tensor's partials are summed by key in one
        ``GradientMap``, which is returned; no parameter changes.  Each vjp
        is dropped once it has run, which frees the arrays it holds (a vjp
        may also overwrite them), and once its partials are summed the
        record lets go of its outputs, keeping its op name and keys; so a
        tape is differentiated once: a second call raises ``ValueError``.

        Raises ``NumericError`` if the loss, a vjp or a returned gradient is
        not finite.  The loss is checked, and the records replayed to name
        the first op with a non-finite output, before any record lets go.
        A vjp that raises a floating-point flag replays the records up to
        its own, which are still whole.  A non-finite returned gradient is
        found after every record has let go, so it is named by parameter.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        self.require_finite(loss, "non-finite loss")
        if self._spent:
            raise ValueError("this tape was already differentiated; record the forward again")
        unnamed = [p for p in params if p.name is None]
        if unnamed:
            raise ValueError(f"backward differentiates parameters, which have names, not {unnamed[0]!r}")
        self._spent = True
        requested = {p.key: p for p in params}
        wanted = requested.keys() | self._made
        grads = GradientMap()
        if loss.key in wanted:
            grads.add(loss.key, np.ones_like(loss.data))
        # a vjp, or the sum of its partials, that makes a non-finite value
        # from finite ones raises a floating-point flag here
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                for rec in reversed(self._records):
                    vjp, rec.vjp = rec.vjp, None
                    g_out = tuple(map(grads.pop, rec.keys))
                    partials = vjp(g_out) if any(g is not None for g in g_out) else ()
                    del vjp, g_out  # frees what they hold before the partials are summed
                    for key, g_in in zip(rec.inputs, partials):
                        if key in wanted:  # else a constant, or a leaf no one asked for
                            grads.add(key, g_in)
                    rec.out = ()
            except FloatingPointError:
                raise NumericError(
                    self._blame(f"non-finite gradient from the vjp of '{rec.op}'")
                ) from None
        for key, g in grads._held.items():
            if not np.all(np.isfinite(g)):
                raise NumericError(self._blame(f"non-finite gradient of '{requested[key].name}'"))
        return grads

    def require_finite(self, t: Tensor, otherwise: str) -> None:
        """Raise ``NumericError`` if ``t`` holds a non-finite value, naming
        the first recorded op with a non-finite output (else ``otherwise``)."""
        if not np.all(np.isfinite(t.data)):
            raise NumericError(self._blame(otherwise))

    def _blame(self, otherwise: str) -> str:
        """Replay the records: name the first op with a non-finite output.
        A record that has let go of its outputs is passed over."""
        for rec in self._records:
            if any(not np.all(np.isfinite(t.data)) for t in rec.out):
                return f"non-finite value produced by '{rec.op}'"
        return otherwise


def _append(op: str, out: tuple[Tensor, ...], inputs: Sequence[Tensor], vjp: Callable) -> None:
    """Append a record of ``out`` made from ``inputs`` to the active tape, if any."""
    if _ACTIVE is not None:
        keys = tuple(t.key for t in out)
        _ACTIVE._records.append(_Record(op, out, keys, tuple(t.key for t in inputs), vjp))
        _ACTIVE._made.update(keys)


def _may_be_requested(t: Tensor) -> bool:
    """Whether backward on the active tape may work out ``t``'s partial: it
    does for a parameter (a named tensor) and for a record's output, and
    never for a constant, whose partial no call can request."""
    return t.name is not None or (_ACTIVE is not None and t.key in _ACTIVE._made)


def _record(op: str, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
    """Record a one-output primitive on the active tape, if any.  ``vjp``
    takes the output's gradient; the record's vjp takes it as a 1-tuple."""
    _append(op, (out,), inputs, lambda g_out: vjp(*g_out))


def segment(op: str, fn: Callable, *args):
    """``fn(*args)``, a Tensor or a tuple of them, with its records named ``op``.

    With a tape active, every record ``fn`` appends takes the name ``op``
    and drops from ``out`` every tensor that ``fn`` does not return, so
    only the returned tensors may be read afterwards.  Backward runs these
    records like any others, so values and gradients are those of ``fn``
    unsegmented.  A non-finite value made inside reaches a returned output,
    so the replay names ``op``.  With no tape active this is ``fn(*args)``,
    per-op checks included.
    """
    if _ACTIVE is None:
        return fn(*args)
    records = _ACTIVE._records
    start = len(records)
    result = fn(*args)
    returned = {t.key for t in (result if isinstance(result, tuple) else (result,))}
    for rec in records[start:]:
        rec.op = op
        rec.out = tuple(t for t in rec.out if t.key in returned)
    return result


# --------------------------------------------------------------------------
# Primitives
# --------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")
    sa, sb = a.shape, b.shape
    _record("add", out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    _check_finite(out.data, "sub")
    sa, sb = a.shape, b.shape
    _record("sub", out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")
    _record(
        "mul",
        out,
        (a, b),
        lambda g: (
            lambda: _unbroadcast(g * b.data, a.shape),
            lambda: _unbroadcast(g * a.data, b.shape),
        ),
    )
    return out


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    _check_finite(out.data, "scale")
    _record("scale", out, (a,), lambda g: (g * c,))
    return out


def matmul(a, b) -> Tensor:
    """``a @ b``.  Each operand is read only by the other's partial, so the
    record keeps it only where ``_may_be_requested`` says that partial may
    be: scoring rows with constant weights keeps no row."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")
    kept_a = a.data if _may_be_requested(b) else None
    kept_b = b.data if _may_be_requested(a) else None
    _record(
        "matmul",
        out,
        (a, b),
        lambda g: (
            None if kept_b is None else lambda: g @ kept_b.T,
            None if kept_a is None else lambda: kept_a.T @ g,
        ),
    )
    return out


def sparse_matmul(s: sp.csr_matrix, x) -> Tensor:
    """Multiply a constant CSR matrix against a dense tensor.

    The vjp multiplies by ``s.T``, the CSC view of ``s``, which copies
    nothing.  It adds each output row's terms in the order a CSR transpose
    would store them, so its bits equal a product with that transpose.
    """
    x = _as_tensor(x)
    out = Tensor(np.asarray(s @ x.data))
    _check_finite(out.data, "sparse_matmul")
    _record("sparse_matmul", out, (x,), lambda g: (np.asarray(s.T @ g),))
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.T)
    _record("transpose", out, (a,), lambda g: (g.T,))
    return out


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    old = a.shape
    _record("reshape", out, (a,), lambda g: (g.reshape(old),))
    return out


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data[:, start:stop])
    shape = a.shape

    def vjp(g):
        buf = np.zeros(shape)
        buf[:, start:stop] = g
        return (buf,)

    _record("slice_cols", out, (a,), vjp)
    return out


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        pieces = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(slicer)])
        return tuple(pieces)

    _record("concat", out, tuple(tensors), vjp)
    return out


def gather_rows(a, idx) -> Tensor:
    """Rows ``idx`` of ``a``, ids may repeat.  The vjp defers its scatter
    buffer, so the gradient map owns a table's gradient without a copy."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx])
    shape = a.shape

    def vjp(g):
        def scatter():
            buf = np.zeros(shape)
            np.add.at(buf, idx, g)
            return buf

        return (scatter,)

    _record("gather_rows", out, (a,), vjp)
    return out


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    _check_finite(out.data, "reduce_sum")
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    _record("reduce_sum", out, (a,), vjp)
    return out


def mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        val = np.exp(a.data)
    _check_finite(val, "exp")
    out = Tensor(val)
    _record("exp", out, (a,), lambda g: (g * val,))
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log(a.data)
    _check_finite(val, "log")
    out = Tensor(val)
    _record("log", out, (a,), lambda g: (g / a.data,))
    return out


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore"):
        val = np.sqrt(a.data)
    _check_finite(val, "sqrt")
    out = Tensor(val)

    _record("sqrt", out, (a,), lambda g: (g / (2.0 * val),))
    return out


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    val = _sigmoid_values(a.data)
    out = Tensor(val)
    _record("sigmoid", out, (a,), lambda g: (g * val * (1.0 - val),))
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow for large |x|."""
    a = _as_tensor(a)
    val = np.logaddexp(0.0, a.data)
    out = Tensor(val)
    _record("softplus", out, (a,), lambda g: (g * _sigmoid_values(a.data),))
    return out


def leaky_relu(a, slope: float) -> Tensor:
    a = _as_tensor(a)
    val = np.where(a.data >= 0, a.data, slope * a.data)
    out = Tensor(val)
    _record("leaky_relu", out, (a,), lambda g: (g * np.where(a.data >= 0, 1.0, slope),))
    return out


def row_softmax(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("row_softmax expects a 2-D tensor")
    val = _softmax_rows(a.data)
    _check_finite(val, "row_softmax")
    out = Tensor(val)
    _record("row_softmax", out, (a,), lambda g: (_softmax_rows_vjp(g, val),))
    return out


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_vjp(g: np.ndarray, val: np.ndarray) -> np.ndarray:
    inner = (g * val).sum(axis=1, keepdims=True)
    return val * (g - inner)


def l2_normalize_rows(a) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-D tensor")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    val = a.data / safe
    out = Tensor(val)

    def vjp(g):
        inner = (g * val).sum(axis=1, keepdims=True)
        d = (g - val * inner) / safe
        d[norms[:, 0] == 0] = 0.0
        return (d,)

    _record("l2_normalize_rows", out, (a,), vjp)
    return out


def divide_rows_by_sq_norm(a) -> Tensor:
    """Scale each row by the inverse of its squared L2 norm; zero rows stay zero."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("divide_rows_by_sq_norm expects a 2-D tensor")
    sq = (a.data * a.data).sum(axis=1, keepdims=True)
    safe = np.where(sq > 0, sq, 1.0)
    val = a.data / safe
    out = Tensor(val)

    def vjp(g):
        inner = (g * a.data).sum(axis=1, keepdims=True)
        d = g / safe - 2.0 * a.data * inner / (safe * safe)
        d[sq[:, 0] == 0] = 0.0
        return (d,)

    _record("divide_rows_by_sq_norm", out, (a,), vjp)
    return out


def row_sq_norms(a) -> Tensor:
    """Each row's squared L2 norm, as one tape record.

    The forward runs the numpy operations of ``reduce_sum(mul(a, a),
    axis=1)``.  The vjp returns one partial, ``2 g[:, None] * a``, which
    is bitwise the sum of ``mul``'s two equal partials while no product
    is subnormal (doubling is exact), so backward makes one array of
    ``a``'s shape here where the composition makes three.
    """
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("row_sq_norms expects a 2-D tensor")
    with np.errstate(over="ignore"):
        val = (a.data * a.data).sum(axis=1)
    _check_finite(val, "row_sq_norms")
    out = Tensor(val)
    _record("row_sq_norms", out, (a,), lambda g: (lambda: (2.0 * g)[:, None] * a.data,))
    return out


# Bytes of one row block of the InfoNCE record's (n, n) arrays, worked in
# place while it is in cache.  It cannot change a value (see infonce_terms).
INFONCE_BLOCK_BYTES = 256 << 10


def infonce_terms(q_h, q_v, tau: float, hold: bool = True) -> Tensor:
    """Per-user contrastive terms of one view, as one tape record.

    Entry u is log(sum_u' exp(q_h[u'].q_v[u] / tau) + exp(q_v[u'].q_v[u] / tau))
    - q_h[u].q_v[u] / tau.  Every entry goes through the numpy operations of
    the composed expression (transpose, matmul, scale, exp, add, reduce_sum,
    log, diagonal gather, sub) in the same order, so values and gradients
    are bitwise equal to it.

    The two (n, n) products are whole GEMMs: a GEMM split into row blocks
    can round differently in the last bit.  The rest runs in place, one row
    block of ``INFONCE_BLOCK_BYTES`` at a time, so the block size cannot move
    a bit.  The forward scales a block, reads its positives, exponentiates
    it, and reduces its rows together with the column sums so far (row 0 of
    a small buffer), in the row order of ``(e_hv + e_vv).sum(axis=0)``.  It
    builds no (n, n) array beside the two exponentials.  Only the (n,)
    output is checked for non-finite values.

    With ``hold`` the record keeps the two exponentials until its vjp, which
    overwrites them with their partials, so it allocates no (n, n) array and
    the tape can be differentiated only once.  Without it the record keeps
    no (n, n) array, and the vjp rebuilds each exponential by the forward's
    whole GEMM, block scaling and ``exp`` (under the forward's errstate), a
    block just before its partial steps, so with the same bits, at the cost
    of one GEMM and one ``exp`` pass per array.  Either way the vjp
    finishes with ``e_hv`` and lets it go before it takes ``e_vv``, so it
    has at most the forward's two (n, n) arrays alive, and without ``hold``
    at most one.
    """
    q_h, q_v = _as_tensor(q_h), _as_tensor(q_v)
    if q_h.ndim != 2 or q_h.shape != q_v.shape:
        raise ValueError(
            f"infonce_terms expects two equal 2-D shapes, got {q_h.shape} and {q_v.shape}"
        )
    n = q_h.shape[0]
    c = float(1.0 / tau)
    t = np.ascontiguousarray(q_v.data.T)
    e_hv = q_h.data @ t
    e_vv = q_v.data @ t
    rows = max(1, INFONCE_BLOCK_BYTES // (8 * max(n, 1)))
    starts = range(0, n, rows)
    pos = np.empty(n)
    sums = np.zeros((min(rows, n) + 1, n))  # row 0: the column sums so far
    with np.errstate(over="ignore", invalid="ignore"):
        for start in starts:
            hv, vv = e_hv[start : start + rows], e_vv[start : start + rows]
            k = hv.shape[0]
            hv *= c
            pos[start : start + k] = hv.diagonal(start)
            np.exp(hv, out=hv)
            vv *= c
            np.exp(vv, out=vv)
            np.add(hv, vv, out=sums[1 : k + 1])
            sums[0] = np.add.reduce(sums[: k + 1], axis=0)  # 0 + x is x exactly
        denom = sums[0].copy()
        val = np.log(denom) - pos
    _check_finite(val, "infonce_terms")
    out = Tensor(val)
    held = [e_hv, e_vv] if hold else []

    def partials(q, g_den, g=None):
        # the held exponentials of q's products, or the same bits rebuilt
        # block by block, overwritten in place with their partials; ``g`` is
        # taken off the positives
        e = held.pop(0) if hold else q @ t
        for start in starts:
            block = e[start : start + rows]
            if not hold:
                with np.errstate(over="ignore", invalid="ignore"):  # as in the forward
                    block *= c
                    np.exp(block, out=block)
            block *= g_den
            if g is not None:
                block.reshape(-1)[start :: n + 1] -= g[start : start + block.shape[0]]
            block *= c
        return e

    def vjp(g):
        g_den = g / denom
        e = partials(q_h.data, g_den, g)
        d_h, hv_part = e @ t.T, q_h.data.T @ e
        del e  # before e_vv is taken or rebuilt
        e = partials(q_v.data, g_den)
        return (d_h, e @ t.T + (q_v.data.T @ e).T + hv_part.T)

    _record("infonce_terms", out, (q_h, q_v), vjp)
    return out


def head_attention(
    views: Sequence, query: Sequence[Tensor], key: Sequence[Tensor]
) -> list[Tensor]:
    """Per-head scalar attention across M views of shape (n, d), as one tape
    record with the M mixed views as its outputs.

    Head h maps each view through ``query[h]`` and ``key[h]`` (d, d/H).  For
    target view m its row weights are the softmax over m' of
    (v_m query[h]) . (v_m' key[h]) / sqrt(d/H), and they mix the unprojected
    head-h column slices of the views.  The forward and the vjp run the
    numpy operations of the composed expression (matmul, mul, reduce_sum,
    scale, concat, row_softmax, slice_cols, add, concat) in the same order
    and layouts.  Each view is listed once per target view, query map and
    key map, and each map once per view, so the tape sums their partials in
    the composed order and values and gradients are bitwise equal to it.
    Only the outputs are checked for non-finite values.

    The record keeps the (n, M) weights of each target view and head, and
    no projection: the vjp works out the projections again, a head at a
    time, with the same matmul calls, so they have the same bits.  It holds
    the projections' (n, d/H) gradients and returns every (n, d) partial as
    a function that the tape calls just before it sums the result, so at
    most one of them is alive at a time.
    """
    views = [_as_tensor(v) for v in views]
    n, d = views[0].shape
    heads, num_m = len(query), len(views)
    dh = d // heads
    c = float(1.0 / np.sqrt(dh))
    v = [t.data for t in views]
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    alphas = {}
    vals = [np.empty((n, d)) for _ in range(num_m)]
    for h in range(heads):
        keys = [x @ key[h].data for x in v]
        queries = [x @ query[h].data for x in v]
        for m in range(num_m):
            scores = [(queries[m] * k).sum(axis=1, keepdims=True) * c for k in keys]
            alpha = alphas[m, h] = _softmax_rows(np.concatenate(scores, axis=1))
            block = vals[m][:, cols[h]]
            np.multiply(alpha[:, 0:1], v[0][:, cols[h]], out=block)
            for mp in range(1, num_m):
                block += alpha[:, mp : mp + 1] * v[mp][:, cols[h]]
        del keys, queries
    for val in vals:
        _check_finite(val, "head_attention")
    outs = [Tensor(val) for val in vals]

    def vjp(gs):
        gs = [np.zeros((n, d)) if g is None else g for g in gs]
        g_q = [[None] * num_m for _ in range(heads)]
        g_k = [[None] * num_m for _ in range(heads)]
        for h in reversed(range(heads)):
            keys = [x @ key[h].data for x in v]
            queries = [x @ query[h].data for x in v]
            for m in reversed(range(num_m)):
                alpha, g_head = alphas[m, h], gs[m][:, cols[h]]
                g_alpha = np.empty((n, num_m))
                for mp in reversed(range(num_m)):
                    g_alpha[:, mp] = (g_head * v[mp][:, cols[h]]).sum(axis=1)
                g_scores = _softmax_rows_vjp(g_alpha, alpha)
                for mp in reversed(range(num_m)):
                    g_s = g_scores[:, mp : mp + 1] * c
                    g_q[h][m] = _add_partial(g_q[h][m], g_s * keys[mp])
                    g_k[h][mp] = _add_partial(g_k[h][mp], g_s * queries[m])
            del keys, queries

        def mix(m, mp):  # the partial of view mp through the weights of target m
            out = np.empty((n, d))
            for h in reversed(range(heads)):
                np.multiply(gs[m][:, cols[h]], alphas[m, h][:, mp : mp + 1], out=out[:, cols[h]])
            return out

        heads_down = [(h, m) for h in reversed(range(heads)) for m in range(num_m)]
        heads_up = [(h, m) for h in range(heads) for m in reversed(range(num_m))]
        return (
            *(partial(mix, m, mp) for m in reversed(range(num_m)) for mp in range(num_m)),
            *(partial(np.matmul, g_q[h][m], query[h].data.T) for h, m in heads_down),
            *(partial(np.matmul, g_k[h][m], key[h].data.T) for h, m in heads_down),
            *(partial(np.matmul, v[m].T, g_q[h][m]) for h, m in heads_up),
            *(partial(np.matmul, v[m].T, g_k[h][m]) for h, m in heads_up),
        )

    inputs = (
        *(views * num_m),
        *(views * heads),
        *(views * heads),
        *(query[h] for h in range(heads) for _ in range(num_m)),
        *(key[h] for h in range(heads) for _ in range(num_m)),
    )
    _append("head_attention", tuple(outs), inputs, vjp)
    return outs


def _add_partial(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """The tape's running sum of one tensor's partials, in arrival order."""
    if total is None:
        return part
    total += part
    return total


def dropout(a, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout.  Identity in eval mode or at rate zero."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("train-mode dropout needs a random generator")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask)
    _record("dropout", out, (a,), lambda g: (g * mask,))
    return out


# The batch-norm epsilon, added to the variance before its inverse square root,
# and the weight of a train-mode batch's statistics in the running state.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class BatchNormState:
    """Running statistics, updated as a side effect of train-mode calls."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, width: int) -> "BatchNormState":
        return cls(mean=np.zeros(width), var=np.ones(width))


def batch_norm(
    x,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    train: bool,
) -> Tensor:
    """Per-feature batch normalization over axis 0.

    Train mode normalizes with batch statistics and folds them into the
    running state (unbiased variance for the running update, population
    variance in the normalizer), and checks every call, so that a failing
    step never writes a non-finite running statistic.  Eval mode applies the
    running affine map and writes nothing, so a taped call is checked by
    backward, which names the op that first went non-finite.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError("batch_norm expects a 2-D tensor")
    n = x.shape[0]
    if train:
        mu = x.data.mean(axis=0)
        xc = x.data - mu
        var = (xc * xc).mean(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = xc * inv
        val = gamma.data * xhat + beta.data
        _require_finite(val, "batch_norm")
        out = Tensor(val)

        def vjp(g):
            dxhat = g * gamma.data
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dx = inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            return (dx, dgamma, dbeta)

        _record("batch_norm", out, (x, gamma, beta), vjp)
        unbiased = var * n / (n - 1) if n > 1 else var
        state.mean[:] = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var[:] = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * unbiased
        return out
    inv = 1.0 / np.sqrt(state.var + BN_EPS)
    xhat = (x.data - state.mean) * inv
    val = gamma.data * xhat + beta.data
    _check_finite(val, "batch_norm")
    out = Tensor(val)

    def vjp_eval(g):
        return (g * gamma.data * inv, (g * xhat).sum(axis=0), g.sum(axis=0))

    _record("batch_norm", out, (x, gamma, beta), vjp_eval)
    return out


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------


# The central-difference step of finite_difference_check.
FD_EPS = 1e-5


def finite_difference_check(f: Callable[[], Tensor], params: Sequence[Tensor]):
    """Compare tape gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic scalar map of the current parameter
    values (fix any dropout masks and use eval-mode statistics).  Relative
    error uses denominator max(|analytic|, |numeric|, 1e-8).  Returns the
    maximum relative error over all ``params``.
    """
    with Tape() as tape:
        loss = f()
    analytic = tape.backward(loss, params=params)
    worst = 0.0
    for p in params:
        a = analytic.get(p).ravel()
        flat = p.data.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_EPS
            fp = f().item()
            flat[j] = orig - FD_EPS
            fm = f().item()
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * FD_EPS)
            denom = max(abs(a[j]), abs(numeric), 1e-8)
            worst = max(worst, abs(a[j] - numeric) / denom)
    return worst

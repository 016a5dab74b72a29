"""Reverse-mode differentiation over an explicitly recorded operation tape.

All buffers are 64-bit floats.  Operations compute eagerly with numpy and,
when a tape is active, append a record holding the op name, the output, the
input tensors and a vector-Jacobian closure, which keeps only what it reads.
``Tape.backward`` walks the records in reverse; creation order is a
topological order by construction, so no sort is needed.  A ``segment``
collapses the records a function makes into one record that keeps only the
function's outputs.

Non-finite values raise ``NumericError`` naming the op that produced them.
A call made with no tape active checks its own output.  A taped step is
checked once: ``Tape.backward`` checks the loss and every gradient it
returns, and on failure replays the records to name the first op with a
non-finite output, or the op whose vjp went non-finite; a failure inside a
segment names the segment.  ``batch_norm`` checks every call, so a failing
step never writes a non-finite running statistic.

At most one tape records at a time.  A tape may be entered again after it
was left: its records then continue in order, so a forward recorded in
pieces is differentiated as one, and only once.  Backward never mutates
parameters; it only returns a gradient map.
"""

from __future__ import annotations

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
    "infonce_terms",
    "head_attention",
    "dropout",
    "batch_norm",
    "BatchNormState",
    "BN_EPS",
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


class Tensor:
    """A 64-bit dense buffer, optionally marked as a trainable parameter."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
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
        tag = self.name or ("param" if self.requires_grad else "tensor")
        return f"Tensor({tag}, shape={self.shape})"


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


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
    """One primitive application, or one segment (see ``segment``), which
    keeps only its outputs.  ``out`` is its output, or a tuple of outputs
    whose gradients the vjp takes as a tuple (None for an output that got
    none).  The vjp returns one partial per input: an array, None, or a
    function that computes a new array, called only if that input needs a
    gradient and just before the array is summed.  The vjp is dropped once
    it has run; the op name and output stay for the replay that names a
    failing op, so a failure inside a segment names the segment."""

    op: str
    out: Tensor | tuple[Tensor, ...]
    inputs: tuple[Tensor, ...]
    vjp: Callable | None

    def outputs(self) -> tuple[Tensor, ...]:
        return self.out if isinstance(self.out, tuple) else (self.out,)


def _keys(out: Tensor | tuple[Tensor, ...]) -> int | tuple[int, ...]:
    return tuple(id(t) for t in out) if isinstance(out, tuple) else id(out)


class _Sums:
    """Summed gradients by tensor id.  A partial that only this sum holds
    is owned: a fresh, contiguous first partial from a deferred function,
    or the copy a strided first partial gets, and later partials are added
    into it in place.  Any other first partial, such as the ``g`` that
    ``add`` hands to both its inputs, is kept as it is and never written:
    the second partial is added into a new array, which is then owned.
    Either way each sum is the same ``+`` in arrival order."""

    __slots__ = ("held", "owned")

    def __init__(self, held: dict[int, np.ndarray]):
        self.held = held
        self.owned: set[int] = set()  # sums that only this map holds, safe to add into

    def add(self, key: int, g: np.ndarray, fresh: bool = False) -> None:
        """Add partial ``g``; ``fresh`` says a deferred function just made it."""
        held = self.held.get(key)
        if held is None:
            # a strided view is copied so that consumers see the layouts
            # they saw when every first partial was
            if not (g.flags.c_contiguous or g.flags.f_contiguous):
                g, fresh = np.array(g), True
            self.held[key] = g
            if fresh and g.flags.owndata:
                self.owned.add(key)
        elif key in self.owned:
            held += g
        else:
            self.held[key] = np.add(held, g, out=np.empty_like(held))
            self.owned.add(key)

    def run(self, vjp: Callable, out: int | tuple[int, ...]):
        """``vjp``'s partials for the sums of the outputs keyed ``out``,
        which leave the buffer; None when no output got a gradient."""
        if isinstance(out, tuple):
            g_out = tuple(self.held.pop(key, None) for key in out)
            if all(g is None for g in g_out):
                return None
        else:
            g_out = self.held.pop(out, None)
            if g_out is None:
                return None
        return vjp(g_out)


class GradientMap:
    """Parameter identity -> gradient array.  Absent entries mean zero.
    Each parameter's partials are summed under ``_Sums``' ownership rule."""

    def __init__(self):
        self._params: dict[int, Tensor] = {}
        self._sums = _Sums({})

    def _accumulate(self, t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
        self._params[id(t)] = t
        self._sums.add(id(t), g, fresh)

    def get(self, t: Tensor) -> np.ndarray:
        g = self._sums.held.get(id(t))
        return np.zeros_like(t.data) if g is None else g

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._sums.held


class Tape:
    """Ordered record of primitive applications."""

    def __init__(self):
        self._records: list[_Record] = []
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

    def backward(self, loss: Tensor, params: Sequence[Tensor] | None = None) -> GradientMap:
        """Accumulate d(loss)/d(param) for every parameter reachable on this tape.

        ``loss`` must be scalar (size one).  When ``params`` is given only
        those tensors receive gradients; a partial that only a constant or
        another leaf would receive is not worked out where its primitive
        defers it.  Each vjp is dropped once it has run, which frees the
        arrays it holds (a vjp may also overwrite them), so a tape is
        differentiated once: a second call raises ``ValueError``.  Raises
        ``NumericError`` if the loss or a returned gradient is not finite.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        self.require_finite(loss, "non-finite loss")
        if self._spent:
            raise ValueError("this tape was already differentiated; record the forward again")
        self._spent = True
        wanted = None if params is None else {id(p) for p in params}
        produced = {id(t) for rec in self._records for t in rec.outputs()}
        sums = _Sums({id(loss): np.ones_like(loss.data)})
        grads = GradientMap()
        if loss.requires_grad and (wanted is None or id(loss) in wanted):
            grads._accumulate(loss, np.ones_like(loss.data), fresh=True)
        # a vjp, or the sum of its partials, that makes a non-finite value
        # from finite ones raises a floating-point flag here
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                for rec in reversed(self._records):
                    vjp, rec.vjp = rec.vjp, None
                    partials = sums.run(vjp, _keys(rec.out))
                    del vjp  # frees what the closure holds before the partials are summed
                    for inp, g_in in zip(rec.inputs, partials or ()):
                        key = id(inp)
                        requested = inp.requires_grad and (wanted is None or key in wanted)
                        if key not in produced and not requested:
                            continue  # a constant, or a leaf no one asked for: nothing to work out
                        deferred = callable(g_in)
                        if deferred:
                            g_in = g_in()
                        if g_in is None:
                            continue
                        if key in produced:
                            sums.add(key, g_in, deferred)
                        else:
                            grads._accumulate(inp, g_in, deferred)
            except FloatingPointError:
                raise NumericError(
                    self._blame(f"non-finite gradient from the vjp of '{rec.op}'")
                ) from None
        for key, t in grads._params.items():
            if not np.all(np.isfinite(grads._sums.held[key])):
                raise NumericError(self._blame(f"non-finite gradient of '{t.name}'"))
        return grads

    def require_finite(self, t: Tensor, otherwise: str) -> None:
        """Raise ``NumericError`` if ``t`` holds a non-finite value, naming
        the first recorded op with a non-finite output (else ``otherwise``)."""
        if not np.all(np.isfinite(t.data)):
            raise NumericError(self._blame(otherwise))

    def _blame(self, otherwise: str) -> str:
        """Replay the records: name the first op with a non-finite output."""
        for rec in self._records:
            if any(not np.all(np.isfinite(t.data)) for t in rec.outputs()):
                return f"non-finite value produced by '{rec.op}'"
        return otherwise


def _record(op: str, out: Tensor | tuple[Tensor, ...], inputs: tuple[Tensor, ...], vjp) -> None:
    if _ACTIVE is not None:
        _ACTIVE._records.append(_Record(op, out, inputs, vjp))


def segment(op: str, fn: Callable, *args):
    """``fn(*args)``, a Tensor or a tuple of them, recorded as one record.

    With a tape active, the records ``fn`` makes collapse into one record
    named ``op``.  Its outputs are the returned tensors made inside; a
    returned tensor made outside is passed through.  Its inputs are the
    outside tensors the inner records read, listed once per partial in the
    order backward delivers them.  Its vjp runs the inner vjps in reverse
    and sums their partials with the tape's own rule, so values and
    gradients are bitwise equal to the records it replaces, and an output
    that gets no gradient skips the records that made it, as on the tape.
    The inner outputs are not kept, so a non-finite value made inside is
    named by ``op``.  Only the returned tensors may be read afterwards.
    With no tape active this is ``fn(*args)``, per-op checks included; with
    no returned tensor made inside, the records stay as they are.
    """
    tape = _ACTIVE
    if tape is None:
        return fn(*args)
    start = len(tape._records)
    result = fn(*args)
    inner = tape._records[start:]
    made = {id(t) for rec in inner for t in rec.outputs()}
    outs = tuple(t for t in (result if isinstance(result, tuple) else (result,)) if id(t) in made)
    if not outs:
        return result
    del tape._records[start:]
    inputs: list[Tensor] = []
    steps = []  # (vjp, output keys, one route per input) per record
    for rec in reversed(inner):
        routes = []
        for t in rec.inputs:
            if id(t) in made:
                routes.append(id(t))
            else:  # the ~position of its partial among the segment's inputs
                routes.append(~len(inputs))
                inputs.append(t)
        steps.append((rec.vjp, _keys(rec.out), routes))
    steps.reverse()  # pop() takes the last record first
    out_keys = _keys(outs)

    def vjp(g_out):
        g_out = g_out if len(outs) > 1 else (g_out,)
        sums = _Sums({key: g for key, g in zip(out_keys, g_out) if g is not None})
        partials = [None] * len(inputs)
        while steps:
            step_vjp, out, routes = steps.pop()
            step_partials = sums.run(step_vjp, out) or ()
            del step_vjp
            for route, g_in in zip(routes, step_partials):
                if route < 0:
                    partials[~route] = g_in
                    continue
                deferred = callable(g_in)
                if deferred:
                    g_in = g_in()
                if g_in is not None:
                    sums.add(route, g_in, deferred)
        return partials

    _record(op, outs if len(outs) > 1 else outs[0], tuple(inputs), vjp)
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
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")
    _record("matmul", out, (a, b), lambda g: (lambda: g @ b.data.T, lambda: a.data.T @ g))
    return out


def sparse_matmul(
    s: sp.spmatrix, x, transpose: Callable[[], sp.csr_matrix] | None = None
) -> Tensor:
    """Multiply a constant sparse matrix against a dense tensor.

    The vjp multiplies by the CSR transpose of ``s``.  ``transpose``, if
    given, returns it (an owner builds it once and keeps it); otherwise it is
    built here.  Either way it is asked for only while a tape records.
    """
    x = _as_tensor(x)
    out = Tensor(np.asarray(s @ x.data))
    _check_finite(out.data, "sparse_matmul")
    if _ACTIVE is not None:
        st = transpose() if transpose is not None else s.T.tocsr()
        _record("sparse_matmul", out, (x,), lambda g: (np.asarray(st @ g),))
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


# Bytes of one row block of the InfoNCE record's (n, n) arrays, worked in
# place while it is in cache.  It cannot change a value (see infonce_terms).
INFONCE_BLOCK_BYTES = 256 << 10


def infonce_terms(q_h, q_v, tau: float) -> Tensor:
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
    a small buffer), in the row order of ``(e_hv + e_vv).sum(axis=0)``.  The
    record holds the two exponentials and no other (n, n) array.  The vjp
    overwrites them with their partials, so it allocates no (n, n) array and
    the tape can be differentiated only once.  Only the (n,) output is
    checked for non-finite values.
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

    def vjp(g):
        g_den = g / denom
        for start in starts:
            hv, vv = e_hv[start : start + rows], e_vv[start : start + rows]
            hv *= g_den
            hv.reshape(-1)[start :: n + 1] -= g[start : start + hv.shape[0]]  # the positives
            hv *= c
            vv *= g_den
            vv *= c
        d_h, hv_part = e_hv @ t.T, q_h.data.T @ e_hv
        return (d_h, e_vv @ t.T + (q_v.data.T @ e_vv).T + hv_part.T)

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
    _record("head_attention", tuple(outs), inputs, vjp)
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


# The batch-norm epsilon, added to the variance before its inverse square root.
BN_EPS = 1e-5


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
    momentum: float = 0.1,
    eps: float = BN_EPS,
) -> Tensor:
    """Per-feature batch normalization over axis 0.

    Train mode normalizes with batch statistics and folds them into the
    running state (unbiased variance for the running update, population
    variance in the normalizer).  Eval mode applies the running affine map.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError("batch_norm expects a 2-D tensor")
    n = x.shape[0]
    if train:
        mu = x.data.mean(axis=0)
        xc = x.data - mu
        var = (xc * xc).mean(axis=0)
        inv = 1.0 / np.sqrt(var + eps)
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
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mu
        state.var[:] = (1.0 - momentum) * state.var + momentum * unbiased
        return out
    inv = 1.0 / np.sqrt(state.var + eps)
    xhat = (x.data - state.mean) * inv
    val = gamma.data * xhat + beta.data
    _require_finite(val, "batch_norm")
    out = Tensor(val)

    def vjp_eval(g):
        return (g * gamma.data * inv, (g * xhat).sum(axis=0), g.sum(axis=0))

    _record("batch_norm", out, (x, gamma, beta), vjp_eval)
    return out


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    detail: bool = False,
):
    """Compare tape gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic scalar map of the current parameter
    values (fix any dropout masks and use eval-mode statistics).  Relative
    error uses denominator max(|analytic|, |numeric|, 1e-8).  Returns the
    maximum relative error, or a per-parameter dict when ``detail`` is set.
    """
    with Tape() as tape:
        loss = f()
    analytic = tape.backward(loss, params=params)
    per_param: dict[str, float] = {}
    worst = 0.0
    for p in params:
        a = analytic.get(p).ravel()
        flat = p.data.ravel()
        err = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = f().item()
            flat[j] = orig - eps
            fm = f().item()
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(a[j]), abs(numeric), 1e-8)
            err = max(err, abs(a[j] - numeric) / denom)
        per_param[p.name or f"param{id(p)}"] = err
        worst = max(worst, err)
    if detail:
        return worst, per_param
    return worst

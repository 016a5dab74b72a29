"""Reverse-mode differentiation over an explicitly recorded operation tape.

All buffers are 64-bit floats.  Operations compute eagerly with numpy and,
when a tape is active, append a record holding the output, the input tensors
and a vector-Jacobian closure.  ``Tape.backward`` walks the records in
reverse; creation order is a topological order by construction, so no sort
is needed.

Every primitive checks its output for NaN/Inf and raises ``NumericError``
on the first non-finite value, which keeps numeric failures close to their
source instead of surfacing as a corrupted loss many steps later.

Tapes are thread-local: forward/backward over one tape belongs to one
execution context, while several tapes may read the same parameter tensors
concurrently (backward never mutates parameters, it only returns a
gradient map).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NumericError",
    "Tensor",
    "Tape",
    "GradientMap",
    "parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "neg",
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
    "dot",
    "dropout",
    "batch_norm",
    "BatchNormState",
    "AffineLayer",
    "LeakyReluLayer",
    "BatchNormLayer",
    "DropoutLayer",
    "SigmoidLayer",
    "forward_layers",
    "input_gradient_norm",
    "finite_difference_check",
]


class NumericError(ArithmeticError):
    """A primitive produced a NaN or Inf."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value produced by '{op}'")


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

    # Small operator sugar; everything routes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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

_TLS = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_TLS, "tape", None)


@dataclass
class _Record:
    out: Tensor
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]


class GradientMap:
    """Parameter identity -> gradient array.  Absent entries mean zero."""

    def __init__(self):
        self._grads: dict[int, list] = {}  # id -> [tensor, grad]

    def _accumulate(self, t: Tensor, g: np.ndarray) -> None:
        entry = self._grads.get(id(t))
        if entry is not None:
            entry[1] = entry[1] + g
        else:
            self._grads[id(t)] = [t, g.copy()]

    def get(self, t: Tensor) -> np.ndarray:
        entry = self._grads.get(id(t))
        if entry is None:
            return np.zeros_like(t.data)
        return entry[1]

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._grads

    def tensors(self) -> list[Tensor]:
        return [t for t, _ in self._grads.values()]


class Tape:
    """Ordered record of primitive applications."""

    def __init__(self):
        self._records: list[_Record] = []
        self._entered = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active in this thread")
        _TLS.tape = self
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        _TLS.tape = None
        self._entered = False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor, params: Sequence[Tensor] | None = None) -> GradientMap:
        """Accumulate d(loss)/d(param) for every parameter reachable on this tape.

        ``loss`` must be scalar (size one).  When ``params`` is given the
        returned map is restricted to those tensors.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        produced = {id(rec.out) for rec in self._records}
        buffer: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        grads = GradientMap()
        if loss.requires_grad:
            grads._accumulate(loss, np.ones_like(loss.data))
        for rec in reversed(self._records):
            g_out = buffer.pop(id(rec.out), None)
            if g_out is None:
                continue
            partials = rec.vjp(g_out)
            for inp, g_in in zip(rec.inputs, partials):
                if g_in is None:
                    continue
                if id(inp) in produced:
                    key = id(inp)
                    if key in buffer:
                        buffer[key] += g_in
                    else:
                        buffer[key] = np.array(g_in, dtype=np.float64, copy=True)
                elif inp.requires_grad:
                    grads._accumulate(inp, np.asarray(g_in, dtype=np.float64))
        if params is not None:
            wanted = {id(p) for p in params}
            filtered = GradientMap()
            for key, (t, g) in grads._grads.items():
                if key in wanted:
                    filtered._grads[key] = [t, g]
        else:
            filtered = grads
        return filtered


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
    tape = _active_tape()
    if tape is not None:
        tape._records.append(_Record(out, inputs, vjp))


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
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    _check_finite(out.data, "sub")
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")
    _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data)
    _record(out, (a,), lambda g: (-g,))
    return out


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    _check_finite(out.data, "scale")
    _record(out, (a,), lambda g: (g * c,))
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")
    _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
    return out


def sparse_matmul(s: sp.spmatrix, x) -> Tensor:
    """Multiply a constant sparse matrix against a dense tensor."""
    x = _as_tensor(x)
    out = Tensor(np.asarray(s @ x.data))
    _check_finite(out.data, "sparse_matmul")
    st = s.T.tocsr()
    _record(out, (x,), lambda g: (np.asarray(st @ g),))
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.T)
    _record(out, (a,), lambda g: (g.T,))
    return out


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(a.shape),))
    return out


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data[:, start:stop])

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        return (buf,)

    _record(out, (a,), vjp)
    return out


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        pieces = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(slicer)])
        return tuple(pieces)

    _record(out, tuple(tensors), vjp)
    return out


def gather_rows(a, idx) -> Tensor:
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx])

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    _record(out, (a,), vjp)
    return out


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    _check_finite(out.data, "reduce_sum")

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    _record(out, (a,), vjp)
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
    _record(out, (a,), lambda g: (g * val,))
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log(a.data)
    _check_finite(val, "log")
    out = Tensor(val)
    _record(out, (a,), lambda g: (g / a.data,))
    return out


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore"):
        val = np.sqrt(a.data)
    _check_finite(val, "sqrt")
    out = Tensor(val)

    def vjp(g):
        with np.errstate(divide="ignore"):
            d = g / (2.0 * val)
        _check_finite(d, "sqrt-grad")
        return (d,)

    _record(out, (a,), vjp)
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
    _record(out, (a,), lambda g: (g * val * (1.0 - val),))
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow for large |x|."""
    a = _as_tensor(a)
    val = np.logaddexp(0.0, a.data)
    out = Tensor(val)
    _record(out, (a,), lambda g: (g * _sigmoid_values(a.data),))
    return out


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    val = np.where(a.data >= 0, a.data, slope * a.data)
    out = Tensor(val)
    _record(out, (a,), lambda g: (g * np.where(a.data >= 0, 1.0, slope),))
    return out


def row_softmax(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("row_softmax expects a 2-D tensor")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=1, keepdims=True)
    _check_finite(val, "row_softmax")
    out = Tensor(val)

    def vjp(g):
        inner = (g * val).sum(axis=1, keepdims=True)
        return (val * (g - inner),)

    _record(out, (a,), vjp)
    return out


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

    _record(out, (a,), vjp)
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

    _record(out, (a,), vjp)
    return out


def dot(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dot expects 1-D operands")
    out = Tensor(np.dot(a.data, b.data))
    _check_finite(out.data, "dot")
    _record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


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
    _record(out, (a,), lambda g: (g * mask,))
    return out


@dataclass
class BatchNormState:
    """Running statistics, updated as a side effect of train-mode calls."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, width: int) -> "BatchNormState":
        return cls(mean=np.zeros(width), var=np.ones(width))

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.mean.copy(), self.var.copy())


def batch_norm(
    x,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    train: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
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
        _check_finite(val, "batch_norm")
        out = Tensor(val)

        def vjp(g):
            dxhat = g * gamma.data
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dx = inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            return (dx, dgamma, dbeta)

        _record(out, (x, gamma, beta), vjp)
        unbiased = var * n / (n - 1) if n > 1 else var
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mu
        state.var[:] = (1.0 - momentum) * state.var + momentum * unbiased
        return out
    inv = 1.0 / np.sqrt(state.var + eps)
    xhat = (x.data - state.mean) * inv
    val = gamma.data * xhat + beta.data
    _check_finite(val, "batch_norm")
    out = Tensor(val)

    def vjp_eval(g):
        return (g * gamma.data * inv, (g * xhat).sum(axis=0), g.sum(axis=0))

    _record(out, (x, gamma, beta), vjp_eval)
    return out


# --------------------------------------------------------------------------
# Layered maps and the input-gradient norm
# --------------------------------------------------------------------------
#
# The gradient penalty needs d(score)/d(input) as a differentiable quantity.
# Rather than taping the tape, the layer walk below builds the input
# gradient as an explicit product of per-layer factors, so plain first-order
# backward over the expanded expression yields parameter gradients of the
# norm.  Piecewise-constant factors (relu masks, dropout masks) enter as
# constants: their almost-everywhere derivative is zero.  Normalization
# statistics are taken at their realized values when differentiating with
# respect to the input, while remaining tape nodes so parameter gradients
# still flow through them.


@dataclass
class AffineLayer:
    weight: Tensor  # (in, out)
    bias: Tensor | None = None


@dataclass
class LeakyReluLayer:
    slope: float = 0.2


@dataclass
class BatchNormLayer:
    gamma: Tensor
    beta: Tensor
    state: BatchNormState
    momentum: float = 0.1
    eps: float = 1e-5


@dataclass
class DropoutLayer:
    rate: float


@dataclass
class SigmoidLayer:
    pass


def _walk_layers(layers, x: Tensor, train: bool, rng) -> tuple[Tensor, list]:
    """Run the layer stack, capturing the per-layer input-gradient factors."""
    factors = []
    h = x
    for layer in layers:
        if isinstance(layer, AffineLayer):
            h = matmul(h, layer.weight)
            if layer.bias is not None:
                h = add(h, layer.bias)
            factors.append(("affine", layer.weight))
        elif isinstance(layer, LeakyReluLayer):
            mask = constant(np.where(h.data >= 0, 1.0, layer.slope))
            h = leaky_relu(h, layer.slope)
            factors.append(("mask", mask))
        elif isinstance(layer, BatchNormLayer):
            if train:
                mu = mean(h, axis=0)
                centered = sub(h, mu)
                var = mean(mul(centered, centered), axis=0)
                inv = exp(scale(log(add(var, constant(np.full(var.shape, layer.eps)))), -0.5))
            else:
                inv = constant(1.0 / np.sqrt(layer.state.var + layer.eps))
            sc = mul(layer.gamma, inv)
            h = batch_norm(h, layer.gamma, layer.beta, layer.state, train, layer.momentum, layer.eps)
            factors.append(("mask", sc))
        elif isinstance(layer, DropoutLayer):
            if train and layer.rate > 0.0:
                if rng is None:
                    raise ValueError("train-mode dropout needs a random generator")
                m = constant((rng.random(h.shape) >= layer.rate) / (1.0 - layer.rate))
                h = mul(h, m)
                factors.append(("mask", m))
        elif isinstance(layer, SigmoidLayer):
            s = sigmoid(h)
            sprime = mul(s, sub(constant(np.ones(s.shape)), s))
            h = s
            factors.append(("mask", sprime))
        else:
            raise TypeError(f"unsupported layer in differentiable map: {layer!r}")
    return h, factors


def forward_layers(layers, x, train: bool = False, rng=None) -> Tensor:
    out, _ = _walk_layers(layers, _as_tensor(x), train, rng)
    return out


def input_gradient_norm(layers, x, train: bool = False, rng=None) -> tuple[Tensor, Tensor]:
    """Return (scores, per-row L2 norm of d(score)/d(input row)).

    The final layer must produce one column per row.  Both returned tensors
    are differentiable with respect to the layer parameters.
    """
    x = _as_tensor(x)
    out, factors = _walk_layers(layers, x, train, rng)
    if out.ndim != 2 or out.shape[1] != 1:
        raise ValueError("input_gradient_norm expects a map onto a single column")
    v: Tensor = constant(np.ones((x.shape[0], 1)))
    for kind, payload in reversed(factors):
        if kind == "affine":
            v = matmul(v, transpose(payload))
        else:
            v = mul(v, payload)
    norms = sqrt(reduce_sum(mul(v, v), axis=1))
    return reshape(out, (x.shape[0],)), norms


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

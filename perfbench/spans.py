"""Spans recorded from outside the package, around calls into its layers.

``Instrumentation`` replaces public functions and a few methods of the
``mmssl`` modules with wrappers that time each call.  Two levels exist:

* top-level calls (``Trainer.d_step``, ``Trainer.g_step``, the per-epoch
  validation pass, ``Trainer.save``, ``model.refresh_neighborhoods`` and the
  in-process ``mmssl eval`` pass) are always wrapped; their durations give
  the end-to-end metrics;
* layer calls (every other public function of ``data``, ``autodiff``,
  ``adversarial``, ``encoder``, ``model``, ``objectives``, ``trainer`` and
  ``evaluation``) are wrapped only in the traced run.

A wrapper replaces every binding of the original function across the
package, so names imported with ``from ... import`` (``trainer.evaluate_scores``,
``cli.load_checkpoint``, ...) are timed as well.  ``uninstall`` restores each
binding to the object it held before.

Spans are kept in memory as tuples ``(name, start, end, parent, request)``
and written out once the run ends.  ``parent`` is the index of the enclosing
span, or -1; ``request`` numbers one top-level request (one training step,
that is the critic steps and the generator step that follows them, or one
refresh, validation pass, save or eval pass).
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

TOP_LEVEL = {
    # span name -> kind used in the end-to-end statistics
    "trainer.Trainer.d_step": "d_step",
    "trainer.Trainer.g_step": "g_step",
    "trainer.Trainer._validate": "validate",
    "trainer.Trainer.save": "save",
    "model.refresh_neighborhoods": "refresh",
    "cli.main": "eval_pass",
}

LAYER_MODULES = ("data", "autodiff", "adversarial", "encoder", "model", "objectives", "trainer", "evaluation")
BINDING_MODULES = LAYER_MODULES + ("cli", "config", "gradcheck")

# autodiff functions that are not tape primitives
AUTODIFF_COMPOSITES = {"parameter", "constant", "forward_layers", "input_gradient_norm", "finite_difference_check"}

LAYER_METHODS = (
    ("autodiff", "Tape", "backward"),
    ("trainer", "AdamOptimizer", "step"),
    ("data", "InteractionGraph", "dense_matrix"),
    ("data", "ModalityFeatureTable", "as_float64"),
)


def span_name(module: str, attr: str) -> str:
    if module == "autodiff" and attr not in AUTODIFF_COMPOSITES:
        return f"autodiff.op.{attr}"
    return f"{module}.{attr}"


class SpanRecorder:
    """In-memory span store with a parent stack and per-request numbering.

    ``layers`` selects whether layer spans are kept; top-level spans are
    always kept.  ``observers`` maps a span name to callbacks
    ``(args, kwargs, result)`` run after a call that returned; they may
    queue work in ``pending``, which runs with recording paused once the
    enclosing top-level call has been timed, so that correctness checks
    stay outside every timing.
    """

    def __init__(self, layers: bool, track_alloc: bool = False):
        self.layers = layers
        self.track_alloc = track_alloc
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.last_top = None
        self.top_depth = 0
        self.paused = False
        self.observers: dict[str, list] = {}
        self.pending: list = []
        self.top_calls: list[dict] = []
        self.check_s = 0.0

    def observe(self, name: str, callback) -> None:
        self.observers.setdefault(name, []).append(callback)

    def _open_request(self, kind: str) -> None:
        # one training step: the critic steps and the generator step after them
        if not (self.last_top == "d_step" and kind in ("d_step", "g_step")):
            self.request += 1
        self.last_top = kind

    def call(self, name: str, fn, args, kwargs):
        kind = TOP_LEVEL.get(name)
        if self.paused or (kind is None and not self.layers and name not in self.observers):
            return fn(*args, **kwargs)
        outermost = kind is not None and self.top_depth == 0
        alloc0 = None
        if kind is not None:
            self.top_depth += 1
        if outermost:
            self._open_request(kind)
            if self.track_alloc:
                tracemalloc.reset_peak()
                alloc0 = tracemalloc.get_traced_memory()[0]
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, t0, t1, parent, self.request)
            if kind is not None:
                self.top_depth -= 1
            if ok:
                for callback in self.observers.get(name, ()):
                    callback(args, kwargs, result)
            if outermost:
                record = {"kind": kind, "s": t1 - t0, "ok": ok, "request": self.request}
                if alloc0 is not None:
                    record["peak_alloc_b"] = tracemalloc.get_traced_memory()[1] - alloc0
                self.top_calls.append(record)
                self.run_pending()

    def run_pending(self) -> None:
        pending, self.pending = self.pending, []
        self.paused = True
        start = time.perf_counter()
        try:
            for job in pending:
                job()
        finally:
            self.paused = False
            self.check_s += time.perf_counter() - start


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (the union of the children, clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


class Instrumentation:
    """Installs and removes the wrappers of one ``SpanRecorder``."""

    def __init__(self, package, recorder: SpanRecorder):
        self.package = package
        self.recorder = recorder
        self.patches: list[tuple[object, str, object]] = []

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every wrapped callable."""
        pkg = self.package
        out = []
        for short in LAYER_MODULES:
            mod = getattr(pkg, short)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((span_name(short, attr), mod, attr, obj))
        for short, cls_name, meth in LAYER_METHODS + (
            ("trainer", "Trainer", "d_step"),
            ("trainer", "Trainer", "g_step"),
            ("trainer", "Trainer", "_validate"),
            ("trainer", "Trainer", "save"),
        ):
            cls = getattr(getattr(pkg, short), cls_name)
            out.append((f"{short}.{cls_name}.{meth}", cls, meth, cls.__dict__[meth]))
        out.append(("cli.main", pkg.cli, "main", pkg.cli.main))
        return out

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("instrumentation already installed")
        rec = self.recorder
        modules = [getattr(self.package, m) for m in BINDING_MODULES]
        for name, owner, attr, original in self.targets():
            if not rec.layers and name not in TOP_LEVEL and name not in rec.observers:
                continue
            wrapper = _wrap(rec, name, original)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, bound, wrapper)

    def _set(self, owner, attr, wrapper) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def _wrap(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    wrapper.__wrapped_span__ = name
    return wrapper

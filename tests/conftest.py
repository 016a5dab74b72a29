"""Fixtures shared by more than one test module."""
import inspect
import tracemalloc

import pytest

import mmssl.autodiff as ad

# the public functions of autodiff that record no differentiable op
NOT_PRIMITIVES = {"segment", "parameter", "xavier_parameter", "constant", "finite_difference_check"}
# the differentiable primitives of ``autodiff.__all__``
PRIMITIVES = sorted(
    name for name in ad.__all__ if inspect.isfunction(getattr(ad, name)) and name not in NOT_PRIMITIVES
)


@pytest.fixture
def unchecked_primitives():
    """A function of gradient-check case names: the differentiable
    primitives of ``autodiff.__all__`` that none of them checks.  A case
    named after a primitive, or after it and an underscore
    (``reduce_sum_axis0``, ``batch_norm_train``), checks it; the library
    coverage test and the ``mmssl gradcheck`` test read this one rule."""
    assert {"add", "row_sq_norms", "infonce_terms", "head_attention", "batch_norm"} <= set(PRIMITIVES)
    return lambda cases: [p for p in PRIMITIVES if not any(c == p or c.startswith(p + "_") for c in cases)]


@pytest.fixture
def peak_above_held():
    """A function ``peak(fn, *args, **kwargs)`` that returns ``fn``'s result
    and the peak of the memory tracemalloc traced while ``fn`` ran, in bytes,
    above what was traced as it began.  The outermost call starts tracing and
    stops it in ``finally``, so calls nest: an inner call measures a stage
    of the outer one against what the stages before it still hold (and
    leaves the outer call's own figure meaningless)."""

    def peak(fn, *args, **kwargs):
        outermost = not tracemalloc.is_tracing()
        if outermost:
            tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - held
        finally:
            if outermost:
                tracemalloc.stop()

    return peak

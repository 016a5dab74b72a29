"""Fixtures shared by more than one test module."""
import inspect

import pytest

import mmssl.autodiff as ad

# the public functions of autodiff that record no differentiable op
NOT_PRIMITIVES = {"segment", "parameter", "xavier_parameter", "constant", "finite_difference_check"}


@pytest.fixture
def unchecked_primitives():
    """A function of gradient-check case names: the differentiable
    primitives of ``autodiff.__all__`` that none of them checks.  A case
    named after a primitive, or after it and an underscore
    (``reduce_sum_axis0``, ``batch_norm_train``), checks it; the library
    coverage test and the ``mmssl gradcheck`` test read this one rule."""
    primitives = sorted(
        name for name in ad.__all__
        if inspect.isfunction(getattr(ad, name)) and name not in NOT_PRIMITIVES
    )
    assert {"add", "row_sq_norms", "infonce_terms", "head_attention", "batch_norm"} <= set(primitives)
    return lambda cases: [p for p in primitives if not any(c == p or c.startswith(p + "_") for c in cases)]

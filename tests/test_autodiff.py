"""Tape engine: primitive gradients, segments, input-gradient norms."""
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import mmssl.adversarial as adv
import mmssl.autodiff as ad
from conftest import PRIMITIVES
from mmssl.gradcheck import run_primitive_checks


def test_every_primitive_matches_finite_differences():
    errs = run_primitive_checks()
    worst = max(errs.values())
    assert worst <= 1e-4, f"worst primitive {max(errs, key=errs.get)}: {worst:.3e}"


def test_every_differentiable_primitive_has_a_finite_difference_case(unchecked_primitives):
    assert unchecked_primitives(run_primitive_checks()) == []


def test_tensor_is_float64_and_contiguous():
    t = ad.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_backward_requires_scalar_loss():
    x = ad.parameter(np.ones((2, 2)), "x")
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ValueError):
        tape.backward(y, params=[x])


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(0)
    x = ad.parameter(rng.standard_normal((4, 3)), "x")

    def grad_of(fn):
        with ad.Tape() as tape:
            loss = fn()
        return tape.backward(loss, params=[x]).get(x)

    f = lambda: ad.reduce_sum(ad.mul(x, x))
    g = lambda: ad.reduce_sum(ad.exp(ad.scale(x, 0.1)))
    both = lambda: ad.add(f(), g())
    np.testing.assert_allclose(grad_of(both), grad_of(f) + grad_of(g), rtol=1e-12)


def test_gradient_map_accumulates_repeated_use():
    x = ad.parameter(np.array([[2.0, 3.0]]), "x")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # d/dx = 2x + 1
    grads = tape.backward(loss, params=[x])
    np.testing.assert_allclose(grads.get(x), 2 * x.data + 1)


def test_non_finite_input_raises_numeric_error():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises(ad.NumericError):
        ad.exp(ad.Tensor(np.array([[800.0, 1.0]])))
    with pytest.raises(ad.NumericError):
        ad.add(ad.Tensor(bad), ad.Tensor(bad))


def test_infonce_terms_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"\(3, 4\) and \(3, 5\)"):
        ad.infonce_terms(np.ones((3, 4)), [np.ones((3, 4)), np.ones((3, 5))], 0.1)


def test_infonce_terms_overflow_names_the_primitive():
    q = np.eye(3)  # unit rows: exp(1 / 1e-3) overflows
    with pytest.raises(ad.NumericError, match="infonce_terms"):
        ad.infonce_terms(q, [q], 1e-3)


# head_attention's query maps (the first two) and key maps of two heads over width 4
_MAPS = [ad.constant(m) for m in np.random.default_rng(8).standard_normal((4, 4, 2))]

# one call of each primitive but the composite mean, on a (4, 4) input
# whose NaN at [1, 2] reaches the output; every other input is a constant
NAN_CALLS = {
    "add": lambda x: ad.add(x, 1.0),
    "sub": lambda x: ad.sub(x, 1.0),
    "mul": lambda x: ad.mul(x, 2.0),
    "scale": lambda x: ad.scale(x, 2.0),
    "matmul": lambda x: ad.matmul(x, np.eye(4)),
    "sparse_matmul": lambda x: ad.sparse_matmul(sp.identity(4, format="csr"), x),
    "transpose": ad.transpose,
    "reshape": lambda x: ad.reshape(x, (2, 8)),
    "slice_cols": lambda x: ad.slice_cols(x, 1, 3),
    "concat": lambda x: ad.concat([x, x], axis=1),
    "gather_rows": lambda x: ad.gather_rows(x, [1, 0]),
    "reduce_sum": lambda x: ad.reduce_sum(x, axis=0),
    "exp": ad.exp,
    "log": ad.log,
    "sqrt": ad.sqrt,
    "sigmoid": ad.sigmoid,
    "softplus": ad.softplus,
    "leaky_relu": lambda x: ad.leaky_relu(x, 0.2),
    "row_softmax": ad.row_softmax,
    "l2_normalize_rows": ad.l2_normalize_rows,
    "divide_rows_by_sq_norm": ad.divide_rows_by_sq_norm,
    "row_sq_norms": ad.row_sq_norms,
    "infonce_terms": lambda x: ad.infonce_terms(x, [np.eye(4)], 0.5),
    "head_attention": lambda x: ad.head_attention([x, np.eye(4)], _MAPS[:2], _MAPS[2:]),
    "dropout": lambda x: ad.dropout(x, 0.5, np.random.default_rng(0), train=True),
    "batch_norm": lambda x: ad.batch_norm(
        x, ad.constant(np.ones(4)), ad.constant(np.zeros(4)), ad.BatchNormState.create(4), train=False
    ),
}


@pytest.mark.parametrize("name", [p for p in PRIMITIVES if p != "mean"])
def test_a_non_finite_output_names_its_primitive_untaped_and_taped(name):
    data = np.random.default_rng(9).random((4, 4)) + 0.5
    data[1, 2] = np.nan
    message = f"^non-finite value produced by '{name}'$"
    with pytest.raises(ad.NumericError, match=message):
        NAN_CALLS[name](ad.constant(data))
    x = ad.parameter(data, "x")
    with pytest.raises(ad.NumericError, match=message):
        with ad.Tape() as tape:
            out = NAN_CALLS[name](x)
            outs = out if isinstance(out, list) else [out]
            loss = ad.reduce_sum(ad.concat([ad.reshape(t, (-1,)) for t in outs]))
        tape.backward(loss, params=[x])


@pytest.mark.parametrize(
    "name, call",
    [
        ("exp", lambda: ad.exp(np.full((2, 2), 1000.0))),
        ("matmul", lambda: ad.matmul(np.full((2, 2), 1e200), np.full((2, 2), 1e200))),
        ("head_attention", lambda: ad.head_attention([np.full((3, 4), 1e200)] * 2, _MAPS[:2], _MAPS[2:])),
        # an inf times a zero of the mask is NaN, an invalid-value flag
        ("dropout", lambda: ad.dropout(np.full((4, 4), np.inf), 0.5, np.random.default_rng(0), train=True)),
    ],
)
def test_an_untaped_overflow_raises_numeric_error_naming_the_op(name, call):
    # under the suite's warnings-as-errors, a numpy warning would escape first
    with pytest.raises(ad.NumericError, match=f"^non-finite value produced by '{name}'$"):
        call()


def test_row_sq_norms_checks_its_shape_and_names_an_overflow():
    with pytest.raises(ValueError, match="2-D"):
        ad.row_sq_norms(np.ones(3))
    with pytest.raises(ad.NumericError, match="^non-finite value produced by 'row_sq_norms'$"):
        ad.row_sq_norms(np.full((2, 3), 1e200))  # finite entries, overflowing squares


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6), st.integers(1, 6), st.floats(-5.0, 4.0), st.integers(0, 2**31 - 1), st.booleans()
)
@example(1, 1, 0.0, 0, False)
@example(4, 1, -5.0, 1, True)
@example(1, 6, 4.0, 2, True)
def test_row_sq_norms_is_bitwise_the_composed_square_and_sum(n, m, log_scale, seed, zero_rows):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, m)) * 10.0**log_scale
    if zero_rows:
        data[::2] = 0.0
    w = ad.constant(rng.standard_normal(n))

    def run(sq_norms):
        x = ad.parameter(data.copy(), "x")
        with ad.Tape() as tape:
            y = sq_norms(x)
            loss = ad.reduce_sum(ad.mul(y, w))
        return _bits(y.data), _bits(tape.backward(loss, params=[x]).get(x))

    assert run(ad.row_sq_norms) == run(lambda x: ad.reduce_sum(ad.mul(x, x), axis=1))


def test_taped_forward_defers_the_finite_check_to_backward():
    # no per-op scan under a tape: the NaN surfaces in backward, and the
    # replay names the op that made it, not the ops it flowed through
    x = ad.parameter(np.array([[1.0, -1.0], [2.0, 3.0]]), "x")
    with ad.Tape() as tape:
        y = ad.log(x)  # log(-1) is NaN
        loss = ad.reduce_sum(ad.exp(ad.mul(y, y)))
    assert np.isnan(loss.item())
    with pytest.raises(ad.NumericError, match="non-finite value produced by 'log'"):
        tape.backward(loss, params=[x])


def test_non_finite_vjp_names_its_op():
    # sqrt(0) is finite, its derivative is not
    x = ad.parameter(np.array([[0.0, 0.0], [1.0, 2.0]]), "x")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.sqrt(ad.reduce_sum(ad.mul(x, x), axis=1)))
    assert np.isfinite(loss.item())
    with pytest.raises(ad.NumericError, match="vjp of 'sqrt'"):
        tape.backward(loss, params=[x])


def test_batch_norm_checks_under_a_tape_and_keeps_its_statistics():
    state = ad.BatchNormState.create(2)
    x = ad.Tensor(np.array([[1.0, np.inf], [2.0, 0.0]]))
    with ad.Tape(), np.errstate(invalid="ignore"):
        with pytest.raises(ad.NumericError, match="batch_norm"):
            ad.batch_norm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), state, train=True)
    np.testing.assert_array_equal(state.mean, [0.0, 0.0])
    np.testing.assert_array_equal(state.var, [1.0, 1.0])


def test_backward_frees_each_vjp_and_keeps_the_records():
    x = ad.parameter(np.ones((2, 2)), "x")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.exp(x), x))
    tape.backward(loss, params=[x])
    assert len(tape) == 3
    assert [rec.op for rec in tape._records] == ["exp", "mul", "reduce_sum"]
    assert all(rec.vjp is None for rec in tape._records)


def test_backward_lets_go_of_each_records_tensors():
    rng = np.random.default_rng(5)
    x = ad.constant(rng.standard_normal((2, 3)))
    w = ad.parameter(rng.standard_normal((3, 4)), "w")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.matmul(x, w))
    product = weakref.ref(tape._records[0].out[0].data)  # read only by reduce_sum
    (key,) = tape._records[0].keys
    tape.backward(loss, params=[w])
    assert [rec.op for rec in tape._records] == ["matmul", "reduce_sum"]
    assert [rec.inputs for rec in tape._records] == [(x.key, w.key), (key,)]  # keys, not tensors
    assert all(rec.out == () for rec in tape._records)
    assert product() is None


@pytest.mark.parametrize("weights", ["constant", "parameter"])
def test_matmul_keeps_an_operand_only_for_a_partial_that_may_be_requested(weights):
    # the rows are read only by the weights' partial: scored with constant
    # weights inside a segment, which keeps only the score, no one holds them
    rng = np.random.default_rng(21)
    p = ad.parameter(rng.standard_normal((6, 4)), "p")
    w = rng.standard_normal((4, 3))
    w_tensor = ad.constant(w) if weights == "constant" else ad.parameter(w, "w")
    alive = []

    def score():
        rows = ad.scale(p, 2.0)  # whose vjp keeps only the factor
        alive.append(weakref.ref(rows.data))
        return ad.reduce_sum(ad.matmul(rows, w_tensor))

    with ad.Tape() as tape:
        loss = ad.segment("score", score)
    assert (alive[0]() is None) == (weights == "constant")
    grads = tape.backward(loss, params=[p])
    assert grads.get(p).tobytes() == (np.ones((6, 3)) @ w.T * 2.0).tobytes()


def test_backward_refuses_to_differentiate_a_tensor_without_a_name():
    # a product keeps no operand for a constant's partial, so a constant's
    # gradient cannot be asked for; the refusal leaves the tape unspent
    rng = np.random.default_rng(22)
    x = ad.constant(rng.standard_normal((2, 3)))
    w = ad.parameter(rng.standard_normal((3, 4)), "w")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.matmul(x, w))
    with pytest.raises(ValueError, match="differentiates parameters, which have names"):
        tape.backward(loss, params=[w, x])
    assert tape.backward(loss, params=[w]).get(w).tobytes() == (x.data.T @ np.ones((2, 4))).tobytes()


def test_a_vjp_that_goes_non_finite_mid_backward_is_named_with_earlier_records_intact():
    # sqrt(0) is finite, its derivative is not; the records after sqrt have
    # already let go of their tensors when its vjp fails
    x = ad.parameter(np.array([[0.0, 0.0], [1.0, 2.0]]), "x")
    with ad.Tape() as tape:
        r = ad.sqrt(ad.reduce_sum(ad.mul(x, x), axis=1))
        loss = ad.reduce_sum(ad.exp(ad.scale(r, 0.5)))
    assert [rec.op for rec in tape._records] == ["mul", "reduce_sum", "sqrt", "scale", "exp", "reduce_sum"]
    with pytest.raises(ad.NumericError, match="non-finite gradient from the vjp of 'sqrt'"):
        tape.backward(loss, params=[x])
    assert [bool(rec.out) for rec in tape._records] == [True, True, True, False, False, False]


def test_a_non_finite_gradient_after_a_finished_backward_names_the_parameter():
    # the records have let go of their outputs, so the NaN that log made is
    # not replayed: the check names the parameter whose gradient it reached
    x = ad.parameter(np.array([[1.0, -1.0]]), "x")
    with ad.Tape() as tape:
        y = ad.log(x)  # log(-1) is NaN, which slice_cols leaves out of the loss
        loss = ad.reduce_sum(ad.slice_cols(y, 0, 1))
    tape._records[0].vjp = lambda g_out: (np.full((1, 2), np.inf),)  # adds no flag
    with pytest.raises(ad.NumericError, match="non-finite gradient of 'x'"):
        tape.backward(loss, params=[x])


def test_a_spent_tape_refuses_a_second_backward():
    rng = np.random.default_rng(2)
    h, v = (ad.parameter(rng.standard_normal((5, 3)), name) for name in "hv")
    with ad.Tape() as tape:
        (terms,) = ad.infonce_terms(h, [v], 0.5)
        loss = ad.mean(terms)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(terms, params=[h, v])  # refused before any vjp ran: the tape is not spent
    tape.backward(loss, params=[h, v])
    with pytest.raises(ValueError, match="already differentiated"):
        tape.backward(loss, params=[h, v])


def test_infonce_record_holds_two_user_by_user_arrays_and_its_vjp_makes_none(peak_above_held):
    n = 1000
    rng = np.random.default_rng(4)
    h, v = (ad.parameter(rng.standard_normal((n, 16)), name) for name in "hv")
    user_by_user = n * n * 8

    def forward():
        with ad.Tape() as tape:
            (terms,) = ad.infonce_terms(h, [v], 0.5)
            loss = ad.mean(terms)
        return tape, loss

    def forward_then_backward():
        (tape, loss), forward_peak = peak_above_held(forward)
        return forward_peak, peak_above_held(tape.backward, loss, params=[h, v])[1]

    (forward_peak, backward_growth), _ = peak_above_held(forward_then_backward)
    # the rest is (n, d) partials and one row block, 0.05 to 0.1 of a (n, n) array
    assert forward_peak < 2.25 * user_by_user, f"forward peaked at {forward_peak / user_by_user:.2f}"
    assert backward_growth < 0.5 * user_by_user, f"backward grew {backward_growth / user_by_user:.2f}"


def test_infonce_record_keeps_only_the_last_views_pair_and_rebuilds_the_others_bitwise(peak_above_held):
    n = 1000
    rng = np.random.default_rng(4)
    h, *views = (ad.parameter(rng.standard_normal((n, 16)), name) for name in ("h", "v0", "v1", "v2"))
    user_by_user = n * n * 8

    def record(views):
        with ad.Tape() as tape:
            terms = ad.infonce_terms(h, views, 0.5)
            loss = ad.mean(terms[0])
            for t in terms[1:]:
                loss = ad.add(loss, ad.mean(t))
        return tape, loss, terms

    def forward_then_backward(views):
        before = tracemalloc.get_traced_memory()[0]
        (tape, loss, terms), forward_peak = peak_above_held(record, views)
        kept = tracemalloc.get_traced_memory()[0] - before
        grads, backward_growth = peak_above_held(tape.backward, loss, params=[h, *views])
        figures = [f / user_by_user for f in (kept, forward_peak, backward_growth)]
        return figures, [t.data for t in terms], [grads.get(v) for v in views]

    for num_views in (2, 3):
        (figures, terms, grads), _ = peak_above_held(forward_then_backward, views[:num_views])
        kept, forward_peak, backward_growth = figures
        # the last view's two exponentials, and (n, d) and (n,) arrays
        assert kept < 2.1, f"{num_views} views: the record kept {kept:.2f}"
        assert forward_peak < 2.25, f"{num_views} views: forward peaked at {forward_peak:.2f}"
        # the vjp overwrites the held pair, lets it go, then rebuilds one
        # exponential at a time: two (n, n) arrays at most, as in the forward
        assert backward_growth < 1.25, f"{num_views} views: backward grew {backward_growth:.2f}"
        peak = kept + backward_growth
        assert peak < 2.25, f"{num_views} views: backward peaked at {peak:.2f}"
        # a rebuilt view has the bits of a one-view record, which holds its pair
        for m, v in enumerate(views[:num_views]):
            tape, loss, (want,) = record([v])
            want_grad = tape.backward(loss, params=[h, v]).get(v)
            assert np.array_equal(terms[m], want.data), (num_views, m)
            assert np.array_equal(grads[m], want_grad), (num_views, m)


def test_attention_record_keeps_its_weights_and_backward_one_partial_at_a_time(peak_above_held):
    n, d, heads, num_m = 2000, 64, 2, 2
    rng = np.random.default_rng(6)
    bases = [ad.parameter(rng.standard_normal((n, d)), f"base{m}") for m in range(num_m)]
    query = [ad.parameter(rng.standard_normal((d, d // heads)) / 8, f"q{h}") for h in range(heads)]
    key = [ad.parameter(rng.standard_normal((d, d // heads)) / 8, f"k{h}") for h in range(heads)]
    weights = [ad.constant(rng.standard_normal((n, d))) for _ in range(num_m)]
    n_by_d = n * d * 8

    def forward_then_backward():
        with ad.Tape() as tape:
            views = [ad.scale(b, 1.0) for b in bases]
            before = tracemalloc.get_traced_memory()[0]
            mixed = ad.head_attention(views, query, key)
            held = tracemalloc.get_traced_memory()[0] - before
            loss = ad.add(*(ad.reduce_sum(ad.mul(x, w)) for x, w in zip(mixed, weights)))
        return held, peak_above_held(tape.backward, loss, params=bases + query + key)[1]

    (held, growth), _ = peak_above_held(forward_then_backward)
    # the record keeps its two outputs and the (n, M) weights, near 2.1 (n, d)
    # arrays; keeping the projections made it 6.1.  Backward peaks near 9.6
    # while the vjp holds the projections' gradients and one head's
    # projections; returning every partial at once made it 19.2
    assert held < 2.5 * n_by_d, f"the record held {held / n_by_d:.2f} (n, d) arrays"
    assert growth < 11 * n_by_d, f"backward grew {growth / n_by_d:.2f} (n, d) arrays"


def test_sums_add_into_an_owned_partial_in_place_and_never_into_a_passed_one():
    rng = np.random.default_rng(8)
    parts = [rng.standard_normal((4, 3)) for _ in range(3)]
    parts[0][0], parts[1][0], parts[2][0] = [-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0] * 3
    want = parts[0] + parts[1] + parts[2]  # the old rule: each sum into a new array
    assert np.signbit(want[0]).tolist() == [True, False, False]

    t = ad.Tensor(np.zeros((4, 3)))

    fresh = parts[0].copy()  # as a deferred function returns it
    sums = ad.GradientMap()
    sums.add(t.key, lambda: fresh)
    for g in parts[1:]:
        sums.add(t.key, g)
    assert sums.get(t) is fresh and _bits(fresh) == _bits(want)

    passed = parts[0].copy()  # as add hands the same g to both its inputs
    sums = ad.GradientMap()
    sums.add(t.key, passed)
    for g in parts[1:]:
        sums.add(t.key, lambda g=g: g.copy())
    assert _bits(passed) == _bits(parts[0]) and _bits(sums.get(t)) == _bits(want)

    base = parts[0].copy()  # a view is not fresh, even from a deferred function
    sums = ad.GradientMap()
    sums.add(t.key, lambda: base[:])
    sums.add(t.key, parts[1])
    assert _bits(base) == _bits(parts[0]) and _bits(sums.get(t)) == _bits(parts[0] + parts[1])

    sums = ad.GradientMap()  # a None partial, or a deferred one that makes None, adds nothing
    sums.add(t.key, None)
    sums.add(t.key, lambda: None)
    assert t not in sums


def test_a_tape_entered_twice_appends_its_records_in_order():
    x = ad.parameter(np.array([[0.5, -1.0], [2.0, 0.25]]), "x")
    tape = ad.Tape()
    with tape:
        y = ad.exp(x)
    ad.mul(y, y)  # between the two entries nothing records
    with tape:
        loss = ad.reduce_sum(ad.mul(y, x))
    assert [rec.op for rec in tape._records] == ["exp", "mul", "reduce_sum"]
    grads = tape.backward(loss, params=[x])
    np.testing.assert_allclose(grads.get(x), np.exp(x.data) * (x.data + 1.0))


def test_require_finite_names_the_first_op_with_a_non_finite_output():
    x = ad.parameter(np.array([[1.0, -1.0]]), "x")
    with ad.Tape() as tape:
        y = ad.exp(ad.log(x))  # log(-1) is NaN, and exp carries it on
    tape.require_finite(x, "unused")
    with pytest.raises(ad.NumericError, match="non-finite value produced by 'log'"):
        tape.require_finite(y, "unused")
    with pytest.raises(ad.NumericError, match="no op made it"):
        ad.Tape().require_finite(y, "no op made it")


def test_backward_fills_only_the_requested_leaves():
    x = ad.parameter(np.ones((2, 2)), "x")
    y = ad.parameter(np.ones((2, 2)), "y")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(x, y))
    grads = tape.backward(loss, params=[x])
    assert x in grads and y not in grads


@pytest.mark.parametrize("op", [ad.matmul, ad.mul])
def test_backward_works_out_partials_only_for_inputs_that_need_them(op):
    rng = np.random.default_rng(4)
    const = ad.constant(rng.standard_normal((3, 3)))
    w = ad.parameter(rng.standard_normal((3, 3)), "w")
    other = ad.parameter(rng.standard_normal((3, 3)), "other")
    with ad.Tape() as tape:
        inner = op(const, w)
        loss = ad.reduce_sum(op(inner, other))
    label = {const.key: "const", w.key: "w", other.key: "other", inner.key: "inner"}
    worked_out = []
    for rec in tape._records[:2]:

        def spy(g, vjp=rec.vjp, inputs=rec.inputs):
            return tuple(
                lambda part=part, key=key: worked_out.append(label[key]) or part()
                for part, key in zip(vjp(g), inputs)
            )

        rec.vjp = spy
    grads = tape.backward(loss, params=[w])
    assert sorted(worked_out) == ["inner", "w"]
    assert w in grads and other not in grads


@st.composite
def csr_matrices(draw):
    """Raw CSR matrices: empty rows and columns, unsorted and repeated entries."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    lengths = draw(st.lists(st.integers(0, 2 * cols), min_size=rows, max_size=rows))
    nnz = sum(lengths)
    indices = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
    data = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).standard_normal(nnz)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sp.csr_matrix((data, np.array(indices, dtype=np.int32), indptr), shape=(rows, cols))


@settings(deadline=None, max_examples=200)
@given(csr_matrices(), st.integers(1, 4), st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
@example(sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])), 2, 0, True, False)
def test_sparse_matmul_gradient_is_the_csr_transpose_product_bitwise(mat, d, seed, ones, f_order):
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.standard_normal((mat.shape[1], d)), "x")
    g = np.ones((mat.shape[0], d)) if ones else rng.standard_normal((mat.shape[0], d))
    with ad.Tape() as tape:
        y = ad.sparse_matmul(mat, x)
        if f_order:  # the gradient reaches the vjp as an F-ordered array
            loss = ad.reduce_sum(ad.mul(ad.transpose(y), ad.constant(g.T)))
        else:
            loss = ad.reduce_sum(ad.mul(y, ad.constant(g)))
    got = tape.backward(loss, params=[x]).get(x)
    assert got.tobytes() == np.asarray(mat.T.tocsr() @ g).tobytes()
    if ones:
        np.testing.assert_array_equal(got, mat.T @ g)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_row_softmax_rows_sum_to_one(n, m, seed):
    rng = np.random.default_rng(seed)
    y = ad.row_softmax(ad.Tensor(rng.standard_normal((n, m)) * 10)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(n), atol=1e-12)


def test_l2_normalize_rows_keeps_zero_rows_zero():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    y = ad.l2_normalize_rows(ad.Tensor(x)).data
    np.testing.assert_allclose(y[0], [0.6, 0.8])
    np.testing.assert_array_equal(y[1], [0.0, 0.0])


def test_dropout_eval_is_identity_and_train_needs_rng():
    x = ad.Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.5, train=False, rng=None) is x
    with pytest.raises(ValueError):
        ad.dropout(x, 0.5, train=True, rng=None)


def test_dropout_train_is_inverted_scaling():
    rng = np.random.default_rng(7)
    x = ad.Tensor(np.ones((200, 50)))
    y = ad.dropout(x, 0.25, train=True, rng=rng).data
    kept = y != 0.0
    np.testing.assert_allclose(y[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02


def test_batch_norm_train_normalizes_batch():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 5)) * 3 + 2
    state = ad.BatchNormState.create(5)
    gamma = ad.Tensor(np.ones(5))
    beta = ad.Tensor(np.zeros(5))
    y = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=True).data
    np.testing.assert_allclose(y.mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=0), 1, atol=1e-6)


def test_batch_norm_eval_uses_stored_statistics():
    state = ad.BatchNormState.create(2)
    state.mean[:] = [1.0, -1.0]
    state.var[:] = [4.0, 0.25]
    gamma = ad.Tensor(np.array([2.0, 1.0]))
    beta = ad.Tensor(np.array([0.5, 0.0]))
    x = np.array([[3.0, 0.0]])
    y = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=False).data
    expected = gamma.data * (x - state.mean) / np.sqrt(state.var + 1e-5) + beta.data
    np.testing.assert_allclose(y, expected, rtol=1e-12)
    # eval mode twice in a row gives the same answer: stats are not updated
    y2 = ad.batch_norm(ad.Tensor(x), gamma, beta, state, train=False).data
    np.testing.assert_array_equal(y, y2)


def test_input_gradient_norm_linear_layer_equals_weight_norm():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((7, 1))
    norms = adv.gradient_norms([("affine", ad.Tensor(w))], 9)
    np.testing.assert_allclose(norms.data, np.full(9, np.linalg.norm(w)), rtol=1e-12)


def test_input_gradient_norm_sigmoid_at_zero():
    # d sigmoid(w.x)/dx at x=0 has norm |w|/4
    w = ad.Tensor(np.array([[2.0]]))
    s = ad.sigmoid(ad.matmul(ad.constant(np.zeros((1, 1))), w))
    slope = ad.mul(s, ad.sub(ad.constant(np.ones(s.shape)), s))
    norms = adv.gradient_norms([("affine", w), ("mask", slope)], 1)
    np.testing.assert_allclose(norms.data, [0.5], rtol=1e-12)


def test_input_gradient_norm_matches_finite_differences():
    # the factors of an affine, leaky-relu, affine, sigmoid stack, multiplied
    # right to left, against per-row central differences of the stack
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal((4, 3))
    b1 = rng.standard_normal(3)
    w2 = rng.standard_normal((3, 1))
    b2 = rng.standard_normal(1)
    x = rng.standard_normal((5, 4))

    def score(row):
        h = row @ w1 + b1
        h = np.where(h >= 0, h, 0.2 * h)
        return 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))

    pre = x @ w1 + b1
    s = score(x)
    factors = [
        ("affine", ad.Tensor(w1)),
        ("mask", ad.constant(np.where(pre >= 0, 1.0, 0.2))),
        ("affine", ad.Tensor(w2)),
        ("mask", ad.constant(s * (1.0 - s))),
    ]
    norms = adv.gradient_norms(factors, len(x))
    eps = 1e-6
    for r in range(5):
        g = np.zeros(4)
        for j in range(4):
            hi, lo = x[r].copy(), x[r].copy()
            hi[j] += eps
            lo[j] -= eps
            g[j] = (score(hi)[0] - score(lo)[0]) / (2 * eps)
        assert abs(norms.data[r] - np.linalg.norm(g)) < 1e-6


def test_finite_difference_check_flags_a_wrong_gradient():
    x = ad.parameter(np.array([[1.0, 2.0]]), "x")

    def good():
        return ad.reduce_sum(ad.mul(x, x))

    assert ad.finite_difference_check(good, [x]) < 1e-8

    def stale_tape():
        # sum(x) has gradient 1, but we report against sum(2x): mismatch
        return ad.reduce_sum(ad.scale(x, 2.0))

    with ad.Tape() as tape:
        loss = ad.reduce_sum(x)
    g = tape.backward(loss, params=[x]).get(x)
    assert not np.allclose(g, 2.0)


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.random((6, 4)) * (rng.random((6, 4)) < 0.4)
    mat = sp.csr_matrix(dense)
    x = ad.parameter(rng.standard_normal((4, 3)), "x")
    with ad.Tape() as tape:
        y = ad.sparse_matmul(mat, x)
        loss = ad.reduce_sum(ad.mul(y, y))
    np.testing.assert_allclose(y.data, dense @ x.data, rtol=1e-12)
    g = tape.backward(loss, params=[x]).get(x)
    np.testing.assert_allclose(g, dense.T @ (2 * y.data), rtol=1e-12)


def test_filtered_gradient_map_accepts_further_accumulation():
    x = ad.parameter(np.array([[1.0, 2.0]]), "x")
    y = ad.parameter(np.array([[3.0]]), "y")
    with ad.Tape() as tape:
        loss = ad.add(ad.reduce_sum(ad.mul(x, x)), ad.reduce_sum(y))
    grads = tape.backward(loss, params=[x])
    assert y not in grads
    owned = grads.get(x)  # made by a deferred mul partial, so the map adds into it
    grads.add(x.key, np.ones_like(x.data))
    np.testing.assert_allclose(grads.get(x), 2 * x.data + 1)
    assert grads.get(x) is owned

    # add hands one array to both inputs: a further partial of one goes into
    # a new array and leaves the other's gradient as it was
    z = ad.parameter(np.array([[3.0, 4.0]]), "z")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.add(x, z))
    grads = tape.backward(loss, params=[x, z])
    assert grads.get(x) is grads.get(z)
    grads.add(x.key, np.ones_like(x.data))
    np.testing.assert_array_equal(grads.get(x), [[2.0, 2.0]])
    np.testing.assert_array_equal(grads.get(z), [[1.0, 1.0]])

    # a gathered table's scatter buffer is deferred, so the map owns it too
    table = ad.parameter(np.arange(6.0).reshape(3, 2), "table")
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.gather_rows(table, [0, 2, 0]))
    grads = tape.backward(loss, params=[table])
    scattered = grads.get(table)
    grads.add(table.key, np.ones_like(table.data))
    assert grads.get(table) is scattered
    np.testing.assert_array_equal(scattered, [[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]])


def _bits(arr):
    """Bytes of an array: equal bytes mean equal values and signs of zero."""
    return np.asarray(arr).tobytes()


def _segment_body(x, w, k):
    # `a` gets three partials; `x`, made outside, is read here and after the
    # segment; `unused` gets no gradient.  `k` holds -0.0 entries, so a zero
    # gradient sent down the unused path would flip signs of zero
    a = ad.mul(x, w)
    b = ad.add(ad.exp(a), ad.scale(a, 0.5))
    c = ad.mul(a, x)
    unused = ad.sqrt(ad.exp(a))
    return b, ad.mul(c, k), unused


def _segment_forward(segmented, nested=False):
    p = ad.parameter(np.array([[0.3, -1.2, 0.0], [2.0, -0.5, 1.1]]), "p")
    w = ad.parameter(np.array([[1.5, 0.0, -0.7], [-2.0, 0.4, 0.9]]), "w")
    k = ad.constant(np.array([[1.0, -0.0, 2.0], [-0.0, -3.0, -0.0]]))
    if not segmented:
        body = _segment_body
    elif nested:
        body = lambda *xs: ad.segment("outer", lambda: ad.segment("inner", _segment_body, *xs))
    else:
        body = lambda *xs: ad.segment("seg", _segment_body, *xs)
    with ad.Tape() as tape:
        x = ad.exp(p)
        b, c, unused = body(x, w, k)
        loss = ad.reduce_sum(ad.add(ad.mul(b, k), ad.mul(c, x)))
    return tape, loss, (p, w), [loss.data, b.data, c.data, unused.data]


def _segment_run(segmented, nested=False):
    tape, loss, (p, w), values = _segment_forward(segmented, nested)
    grads = tape.backward(loss, params=[p, w])
    return tape, [*values, grads.get(p), grads.get(w)]


@pytest.mark.parametrize("nested", [False, True])
def test_a_segment_is_bitwise_equal_to_its_records(nested):
    plain_tape, plain = _segment_run(segmented=False)
    tape, got = _segment_run(segmented=True, nested=nested)
    assert (np.signbit(plain[5]) & (plain[5] == 0)).any()  # w's gradient has a -0.0
    assert [_bits(v) for v in got] == [_bits(v) for v in plain]
    # the segment's eight records are the plain ones, renamed
    assert [rec.op for rec in tape._records] == [
        "exp", *["outer" if nested else "seg"] * 8, *(rec.op for rec in plain_tape._records[-4:])
    ]
    assert len(plain_tape) == len(tape) == 13


def test_a_segment_keeps_only_its_outputs_and_no_record_holds_an_input():
    # add makes b, sqrt makes `unused` and the last mul makes the second
    # output; no other inner output is kept, and inputs are keys
    tape, _, (_, w), (_, b, c, unused) = _segment_forward(segmented=True)
    (x,), inner = tape._records[0].out, tape._records[1:9]
    assert [rec.op for rec in inner] == ["seg"] * 8
    kept = {i: rec.out for i, rec in enumerate(inner) if rec.out}
    assert list(kept) == [3, 6, 7]
    assert all(out.data is value for (out,), value in zip(kept.values(), [b, unused, c]))
    assert inner[0].inputs == (x.key, w.key)
    assert all(type(key) is int for rec in tape._records for key in rec.inputs)


def test_a_constant_read_only_by_add_is_freed_once_the_forward_ends():
    # add's vjp keeps shapes and its record keeps input keys, so nothing on
    # the tape holds the constant's data
    x = ad.parameter(np.ones((2, 3)), "x")
    data = np.arange(6.0).reshape(2, 3)
    held = weakref.ref(data)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.add(x, ad.constant(data)))
    del data
    assert held() is None
    np.testing.assert_array_equal(tape.backward(loss, params=[x]).get(x), np.ones((2, 3)))


def test_pass_through_outputs_and_empty_segments_add_no_record():
    x = ad.parameter(np.array([[0.5, -1.0], [2.0, 0.25]]), "x")
    with ad.Tape() as tape:
        y = ad.exp(x)
        assert ad.segment("empty", lambda: y) is y
        z, same = ad.segment("through", lambda t: (ad.exp(t), t), y)
        loss = ad.reduce_sum(ad.mul(z, same))
    assert same is y
    assert [rec.op for rec in tape._records] == ["exp", "through", "mul", "reduce_sum"]
    assert tape._records[1].out == (z,)
    grads = tape.backward(loss, params=[x])
    with ad.Tape() as plain:
        y = ad.exp(x)
        loss = ad.reduce_sum(ad.mul(ad.exp(y), y))
    assert _bits(grads.get(x)) == _bits(plain.backward(loss, params=[x]).get(x))


def test_a_segment_without_a_tape_is_a_plain_call_with_per_op_checks():
    x = ad.Tensor(np.array([[800.0, 1.0]]))
    assert ad.segment("seg", lambda t: ad.scale(t, 2.0), x).data.tolist() == [[1600.0, 2.0]]
    with pytest.raises(ad.NumericError, match="non-finite value produced by 'exp'"):
        ad.segment("seg", ad.exp, x)


def test_a_non_finite_value_made_inside_a_segment_names_the_segment():
    x = ad.parameter(np.array([[1.0, -1.0]]), "x")
    with ad.Tape() as tape:
        y = ad.segment("seg", lambda t: ad.exp(ad.log(t)), x)
        loss = ad.reduce_sum(y)
    with pytest.raises(ad.NumericError, match="non-finite value produced by 'seg'"):
        tape.require_finite(y, "unused")
    with pytest.raises(ad.NumericError, match="non-finite value produced by 'seg'"):
        tape.backward(loss, params=[x])

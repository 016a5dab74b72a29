"""Interaction/feature formats, splits, sampling, adjacency, synthesis."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmssl import data
from mmssl.data import (
    DataFormatError,
    SyntheticSpec,
    build_norm_adjacency,
    bucket_labels,
    generate_synthetic,
    graph_from_edges,
    load_interactions,
    load_modality_features,
    sample_bpr_triplets,
    sparsity_buckets,
    split_edges,
    write_interactions,
    write_modality_features,
)


def edge_list(graph):
    """Every (user, item) pair of ``graph``, in ascending order."""
    users = np.repeat(np.arange(graph.num_users), np.diff(graph.matrix.indptr))
    return list(zip(users.tolist(), graph.matrix.indices.tolist()))


def test_load_interactions_counts(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("0\t0\n0\t1\n1\t2\n")
    g = load_interactions(p)
    assert (g.num_users, g.num_items, g.num_edges) == (2, 3, 3)


def test_load_interactions_header_only(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("# users=5 items=4\n")
    g = load_interactions(p)
    assert (g.num_users, g.num_items, g.num_edges) == (5, 4, 0)


def test_tiktok_shaped_manifest_sparsity(tmp_path):
    rng = np.random.default_rng(0)
    users, items, count = 9319, 6710, 59541
    seen = set()
    while len(seen) < count:
        u = rng.integers(0, users, size=count)
        i = rng.integers(0, items, size=count)
        seen.update(zip(u.tolist(), i.tolist()))
    edges = sorted(seen)[:count]
    p = tmp_path / "tiktok.txt"
    p.write_text(f"# users={users} items={items}\n" + "\n".join(f"{u}\t{i}" for u, i in edges) + "\n")
    g = load_interactions(p)
    assert abs(g.sparsity() * 100 - 99.904) < 0.001


@pytest.mark.parametrize(
    "text, match",
    [
        ("0\t0\n0\n", "line 2"),
        ("0\t0\n0\t0\n", "duplicate"),
        ("# users=2 items=2\n5\t0\n", "range"),
        ("# users=2 items=2\n99999999999999999999\t0\n", "range"),
        ("0\tx\n", "line 1"),
        ("0\t0\n# users=2 items=2\n", "header"),
    ],
)
def test_load_interactions_rejects_malformed(tmp_path, text, match):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(DataFormatError, match=match):
        load_interactions(p)


def reference_load(path):
    """The line-by-line reader ``load_interactions`` used for every file."""
    declared, edges = None, []
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
                declared = data._parse_header(line, lineno)
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
    if declared is not None:
        num_users, num_items = declared
    else:
        num_users = 1 + max((u for u, _ in edges), default=-1)
        num_items = 1 + max((i for _, i in edges), default=-1)
    source = "header declares" if declared is not None else "ids imply"
    counts = f"{source} users={num_users} items={num_items}"
    if not (0 <= num_users <= data.MAX_IDS and 0 <= num_items <= data.MAX_IDS):
        raise DataFormatError(f"{path.name}: {counts}; each count must lie in 0..{data.MAX_IDS}")
    return graph_from_edges(num_users, num_items, edges)


def _load_outcome(reader, path):
    try:
        g = reader(path)
    except ValueError as e:  # DataFormatError, or a UnicodeDecodeError
        return type(e), str(e)
    return g.matrix.shape, g.matrix.indptr.tolist(), g.matrix.indices.tolist()


# ids are small or beyond every count limit, so no file asks for a large graph
_PLAIN_ID = st.integers(0, 40).map(lambda n: str(n).encode())
_ODD_ID = st.sampled_from(
    [b"007", b"-1", b"+2", b"1_0", b" 3", b"x", b"", "\u0663".encode(), b"\xff",
     b"99999999999999999999", b"123456789012345678", b"1234567890123456789"]
)
_PLAIN_LINE = st.tuples(_PLAIN_ID, _PLAIN_ID).map(b"\t".join)
_ODD_LINE = st.one_of(
    st.tuples(
        st.one_of(_PLAIN_ID, _ODD_ID), st.sampled_from([b"\t", b" ", b"\t\t", b""]), _ODD_ID
    ).map(b"".join),
    st.sampled_from(
        [b"# users=41 items=41", b"# users=3 items=4", b"#users=50\titems=50", b"# users=2",
         b"# users=x items=1", b"#", b"# users=3\ritems=4", b"# users=3 items=4 \x0b",
         b"# users=99999999999999999999 items=1", b"", b" ", b"\x1c", b"0\t1\t2", b"7"]
    ),
)


def _assert_same_load(path, blob):
    path.write_bytes(blob)
    assert _load_outcome(load_interactions, path) == _load_outcome(reference_load, path)


@settings(deadline=None, max_examples=400)
@given(
    lines=st.lists(_PLAIN_LINE, max_size=6),
    odd=st.lists(st.tuples(st.integers(0, 6), _ODD_LINE), max_size=2),
    ends=st.lists(st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"]), min_size=8, max_size=8),
    last=st.booleans(),
)
def test_load_interactions_equals_the_line_reader(tmp_path_factory, lines, odd, ends, last):
    for at, line in odd:
        lines.insert(at, line)
    blob = b"".join(line + end for line, end in zip(lines, ends))
    if lines and not last:  # no line break after the last line
        blob = blob[: -len(ends[len(lines) - 1])]
    _assert_same_load(tmp_path_factory.mktemp("parity") / "interactions.txt", blob)


@pytest.mark.parametrize(
    "blob",
    [
        b"5\n6\n",  # two lines of one id each
        b"5\t\n",  # an empty item id
        b"1\t99999999999999999999\n",  # 20 digits: beyond int64
        b"1\t1234567890123456789\n",  # 19 digits
        b"# users=3\ritems=4\n1\t2\n",  # a lone carriage return ends the header
        b"# users=x\n\xff\n",  # undecodable after a bad header
        b"# users=3 items=4\r\n1\t2\r\n",
        b"\n# users=3 items=4\n1\t2\n",
    ],
)
def test_load_interactions_equals_the_line_reader_on_edge_cases(tmp_path, blob):
    _assert_same_load(tmp_path / "interactions.txt", blob)


def test_plain_files_skip_the_line_reader(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_read_lines", None)  # reading line by line would raise TypeError
    p = tmp_path / "i.txt"
    p.write_bytes(b"# users=4 items=3\r\n3\t2\n0\t0\n00\t1")
    g = load_interactions(p)
    assert (g.num_users, g.num_items) == (4, 3)
    assert edge_list(g) == [(0, 0), (0, 1), (3, 2)]
    p.write_bytes(b"3\t123456789012345678\n")
    with pytest.raises(DataFormatError, match="ids imply users=4 items=123456789012345679;"):
        load_interactions(p)


def test_interactions_round_trip(tmp_path):
    g = graph_from_edges(3, 4, [(0, 1), (2, 0), (1, 3), (0, 2)])
    p = tmp_path / "rt.txt"
    write_interactions(g, p)
    g2 = load_interactions(p)
    assert edge_list(g2) == edge_list(g)
    assert (g2.num_users, g2.num_items) == (3, 4)
    write_interactions(g2, tmp_path / "rt2.txt")
    assert (tmp_path / "rt.txt").read_bytes() == (tmp_path / "rt2.txt").read_bytes()


def test_degree_sums_equal_edge_count():
    g = graph_from_edges(4, 5, [(0, 0), (0, 1), (1, 1), (3, 4)])
    assert sum(len(v) for v in g.user_items) == g.num_edges


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((6, 3)).astype(np.float32)
    p = tmp_path / "v.mmf"
    write_modality_features(p, vals)
    table = load_modality_features(p)
    np.testing.assert_array_equal(table.values, vals)
    assert table.name == "v"
    assert (table.num_items, table.dim) == (6, 3)
    assert table.as_float64().dtype == np.float64


def test_feature_file_zero_table(tmp_path):
    p = tmp_path / "z.mmf"
    write_modality_features(p, np.zeros((3, 2), dtype=np.float32))
    table = load_modality_features(p)
    assert table.values.shape == (3, 2)
    assert not table.values.any()


def test_feature_file_amazon_baby_dims(tmp_path):
    p = tmp_path / "visual.mmf"
    write_modality_features(p, np.zeros((7050, 4096), dtype=np.float32))
    table = load_modality_features(p)
    assert (table.num_items, table.dim) == (7050, 4096)


def test_feature_file_errors(tmp_path):
    p = tmp_path / "bad.mmf"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_modality_features(p)
    good = tmp_path / "short.mmf"
    write_modality_features(good, np.ones((2, 2), dtype=np.float32))
    good.write_bytes(good.read_bytes()[:-1])
    with pytest.raises(DataFormatError, match="payload"):
        load_modality_features(good)
    nan = tmp_path / "nan.mmf"
    vals = np.ones((2, 2), dtype=np.float32)
    vals[0, 0] = np.nan
    import struct

    nan.write_bytes(b"MMF1" + struct.pack("<II", 2, 2) + vals.tobytes())
    with pytest.raises(DataFormatError, match="finite"):
        load_modality_features(nan)


def test_split_sizes_and_disjointness():
    g = graph_from_edges(5, 6, [(u, i) for u in range(5) for i in (u, u + 1)])
    split = split_edges(g, (0.8, 0.1, 0.1), seed=7)
    parts = (split.train, split.val, split.test)
    assert all(p.matrix.shape == g.matrix.shape for p in parts)
    assert sum(p.num_edges for p in parts) == 10
    assert tuple(p.num_edges for p in parts) == (8, 1, 1)
    all_edges = edge_list(split.train) + edge_list(split.val) + edge_list(split.test)
    assert len(set(all_edges)) == 10


def test_split_is_deterministic():
    g = graph_from_edges(6, 6, [(u, i) for u in range(6) for i in range(3)])
    a = split_edges(g, (0.8, 0.1, 0.1), seed=3)
    b = split_edges(g, (0.8, 0.1, 0.1), seed=3)
    for name in ("train", "val", "test"):
        assert edge_list(getattr(a, name)) == edge_list(getattr(b, name))


def test_split_keeps_every_user_in_train():
    g = graph_from_edges(4, 8, [(0, 0)] + [(u, i) for u in (1, 2, 3) for i in range(4)])
    split = split_edges(g, (0.8, 0.1, 0.1), seed=0)
    train_users = {u for u, _ in edge_list(split.train)}
    assert train_users == {0, 1, 2, 3}
    assert (0, 0) in edge_list(split.train)  # single-edge user goes wholly to train


def _ragged_graph():
    # user 1 has one edge, user 2 none: an empty CSR row between two full ones
    rows = {0: [0, 1, 2, 3, 4], 1: [3], 3: [1, 2, 5, 6, 7], 4: [0, 7], 5: [2, 3, 4, 6]}
    return graph_from_edges(6, 8, [(u, i) for u, items in rows.items() for i in items])


def test_split_pins_exact_edges():
    # one permutation per interacting user in user order, then one over the
    # pool: these edges pin that RNG stream
    split = split_edges(_ragged_graph(), (0.6, 0.2, 0.2), seed=5)
    assert edge_list(split.train) == [
        (0, 0), (0, 4), (1, 3), (3, 1), (3, 2), (3, 6), (4, 0), (4, 7), (5, 2), (5, 4), (5, 6),
    ]
    assert edge_list(split.val) == [(0, 1), (0, 3), (5, 3)]
    assert edge_list(split.test) == [(0, 2), (3, 5), (3, 7)]


def _split_with_a_permutation_per_user(graph, ratios, seed):
    """``split_edges`` drawing ``start + rng.permutation(n)`` for each
    interacting user: the reference for its draws.  Returns the three edge
    lists and the generator."""
    rng = np.random.default_rng(seed)
    indptr, indices = graph.matrix.indptr, graph.matrix.indices
    counts = np.diff(indptr)
    shuffled = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [start + rng.permutation(n) for start, n in zip(indptr.tolist(), counts.tolist()) if n]
    )
    firsts = indptr[:-1][counts > 0]
    reserved, pool = shuffled[firsts], np.delete(shuffled, firsts)
    total = len(shuffled)
    n_val = int(round(ratios[1] * total))
    n_test = int(round(ratios[2] * total))
    n_train = max(total - n_val - n_test, len(reserved))
    n_val = min(n_val, total - n_train)
    order = np.concatenate((reserved, pool[rng.permutation(len(pool))]))
    users = np.repeat(np.arange(graph.num_users), counts)[order]
    pairs = list(zip(users.tolist(), indices[order].tolist()))
    parts = pairs[:n_train], pairs[n_train : n_train + n_val], pairs[n_train + n_val :]
    return [sorted(p) for p in parts], rng


RATIOS = [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (0.1, 0.5, 0.4)]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RATIOS))
def test_split_draws_equal_a_permutation_per_user(seed, ratios):
    # empty rows, single-edge users and mixed degrees, as in real data
    rng = np.random.default_rng(seed)
    num_users, num_items = int(rng.integers(0, 40)), int(rng.integers(1, 15))
    degrees = np.minimum(rng.choice([0, 1, 2, 3, num_items], size=num_users), num_items)
    edges = [
        (u, int(i))
        for u in range(num_users)
        for i in rng.choice(num_items, degrees[u], replace=False)
    ]
    graph = graph_from_edges(num_users, num_items, edges)
    made = []
    real = np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        split = split_edges(graph, ratios, seed=seed)
    want, want_rng = _split_with_a_permutation_per_user(graph, ratios, seed)
    assert [edge_list(p) for p in (split.train, split.val, split.test)] == want
    assert len(made) == 1 and made[0].bit_generator.state == want_rng.bit_generator.state


def test_write_interactions_bytes_are_unchanged(tmp_path):
    # the header, then one "user<TAB>item" line per edge in ascending order;
    # user 2 has no edge and writes no line
    write_interactions(_ragged_graph(), tmp_path / "i.txt")
    want = "# users=6 items=8\n" + "".join(f"{u}\t{i}\n" for u, i in edge_list(_ragged_graph()))
    assert (tmp_path / "i.txt").read_bytes() == want.encode()
    assert want.startswith("# users=6 items=8\n0\t0\n0\t1\n") and "\n1\t3\n3\t1\n" in want


def test_split_of_graph_without_edges():
    split = split_edges(graph_from_edges(3, 2, []), (0.8, 0.1, 0.1), seed=0)
    assert [p.num_edges for p in (split.train, split.val, split.test)] == [0, 0, 0]
    assert split.train.matrix.shape == (3, 2)


def test_split_rejects_bad_ratios():
    g = graph_from_edges(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        split_edges(g, (0.5, 0.4, 0.2), seed=0)
    with pytest.raises(ValueError, match="negative"):
        split_edges(g, (0.8, 0.3, -0.1), seed=0)  # sums to 1


def test_triplets_avoid_observed_pairs():
    g = graph_from_edges(2, 3, [(0, 0), (1, 1)])
    split = split_edges(g, (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(0)
    batch = sample_bpr_triplets(split, g, 4, rng)
    assert len(batch.users) == 4
    for u, ip, ineg in zip(batch.users, batch.pos_items, batch.neg_items):
        assert (int(u), int(ip)) in edge_list(split.train)
        assert (int(u), int(ineg)) not in edge_list(g)


def test_triplets_pin_exact_draws_across_empty_rows():
    g = _ragged_graph()
    split = split_edges(g, (0.6, 0.2, 0.2), seed=5)
    batch = sample_bpr_triplets(split, g, 12, np.random.default_rng(3))
    assert batch.users.tolist() == [5, 0, 0, 1, 0, 5, 5, 4, 0, 0, 3, 3]
    assert batch.pos_items.tolist() == [2, 0, 4, 3, 4, 2, 4, 0, 0, 4, 1, 2]
    assert batch.neg_items.tolist() == [1, 5, 5, 0, 7, 5, 1, 5, 6, 7, 0, 0]
    assert batch.users.dtype == batch.pos_items.dtype == np.int64


def test_triplets_draw_every_train_edge_with_empty_first_and_last_rows():
    # rows 0, 2, 3 and 6 are empty; each edge belongs to the row that holds it
    edges = [(1, 0), (1, 2), (4, 1), (5, 0), (5, 3)]
    g = graph_from_edges(7, 4, edges)
    split = split_edges(g, (1.0, 0.0, 0.0), seed=0)
    batch = sample_bpr_triplets(split, g, 400, np.random.default_rng(1))
    drawn = set(zip(batch.users.tolist(), batch.pos_items.tolist()))
    assert drawn == set(edges)


def test_triplets_deterministic_per_seed():
    spec = SyntheticSpec(seed=1)
    g, _, _ = generate_synthetic(spec)
    split = split_edges(g, (0.8, 0.1, 0.1), seed=1)
    a = sample_bpr_triplets(split, g, 16, np.random.default_rng(9))
    b = sample_bpr_triplets(split, g, 16, np.random.default_rng(9))
    np.testing.assert_array_equal(a.users, b.users)
    np.testing.assert_array_equal(a.neg_items, b.neg_items)


def test_triplets_error_when_no_negative_exists():
    g = graph_from_edges(1, 2, [(0, 0), (0, 1)])
    split = split_edges(g, (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ValueError, match="negative"):
        sample_bpr_triplets(split, g, 2, np.random.default_rng(0))


def test_triplets_error_on_empty_train_split():
    g = graph_from_edges(2, 2, [])
    with pytest.raises(ValueError, match="empty train split"):
        sample_bpr_triplets(split_edges(g, (0.8, 0.1, 0.1), seed=0), g, 2, np.random.default_rng(0))


def test_norm_adjacency_values_and_row_norms():
    g = graph_from_edges(2, 4, [(0, 0), (0, 1), (0, 2), (0, 3)])
    adj = build_norm_adjacency(g)
    row = adj.user_from_item.getrow(0).toarray().ravel()
    np.testing.assert_allclose(row, [0.5, 0.5, 0.5, 0.5])
    # isolated user -> zero row
    np.testing.assert_array_equal(adj.user_from_item.getrow(1).toarray(), 0.0)
    sq = np.asarray(adj.user_from_item.power(2).sum(axis=1)).ravel()
    assert abs(sq[0] - 1.0) < 1e-12


def test_norm_adjacency_matches_dense_oracle():
    edges = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1), (2, 2)]
    g = graph_from_edges(3, 3, edges)
    adj = build_norm_adjacency(g)
    du = np.array([2, 1, 3], dtype=float)
    di = np.array([2, 2, 2], dtype=float)
    dense_u = np.zeros((3, 3))
    dense_i = np.zeros((3, 3))
    for u, i in edges:
        dense_u[u, i] = 1 / np.sqrt(du[u])
        dense_i[i, u] = 1 / np.sqrt(di[i])
    np.testing.assert_allclose(adj.user_from_item.toarray(), dense_u, rtol=1e-15)
    np.testing.assert_allclose(adj.item_from_user.toarray(), dense_i, rtol=1e-15)


@st.composite
def edge_lists(draw):
    num_users = draw(st.integers(0, 7))
    num_items = draw(st.integers(0, 7))
    pairs = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
    edges = draw(st.lists(pairs, unique=True, max_size=30)) if num_users and num_items else []
    return num_users, num_items, edges


@settings(deadline=None, max_examples=60)
@given(edge_lists())
def test_graph_matches_its_edge_list(case):
    num_users, num_items, edges = case
    g = graph_from_edges(num_users, num_items, edges)
    assert (g.num_users, g.num_items, g.num_edges) == (num_users, num_items, len(edges))
    assert edge_list(g) == sorted(set(edges))
    assert g.matrix.has_canonical_format
    assert len(g.user_items) == num_users
    for u in range(num_users):
        assert g.user_items[u].tolist() == sorted(i for v, i in edges if v == u)
    degree_u = np.bincount([u for u, _ in edges], minlength=num_users)
    degree_i = np.bincount([i for _, i in edges], minlength=num_items)
    dense_u = np.zeros((num_users, num_items))
    dense_i = np.zeros((num_items, num_users))
    for u, i in edges:
        dense_u[u, i] = 1.0 / np.sqrt(degree_u[u])
        dense_i[i, u] = 1.0 / np.sqrt(degree_i[i])
    adj = build_norm_adjacency(g)
    for op, oracle in ((adj.user_from_item, dense_u), (adj.item_from_user, dense_i)):
        assert op.toarray().tobytes() == oracle.tobytes()
        assert all(np.all(np.diff(op.indices[a:b]) > 0) for a, b in zip(op.indptr, op.indptr[1:]))


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 0), (1, 1), (0, 0), (5, 0)], r"duplicate edge \(0, 0\)"),
        ([(0, 0), (5, 0), (0, 0)], r"edge \(5, 0\) outside"),
        ([(5, 0), (5, 0)], r"edge \(5, 0\) outside"),
        # (0, 2) is out of range but shares the row-major key of (1, 0)
        ([(1, 0), (0, 2)], r"edge \(0, 2\) outside"),
        ([(0, 2), (1, 0)], r"edge \(0, 2\) outside"),
        ([(1, -1), (1, 0), (1, 0)], r"edge \(1, -1\) outside"),
    ],
)
def test_graph_errors_name_the_first_offender(edges, message):
    with pytest.raises(DataFormatError, match=message):
        graph_from_edges(2, 2, edges)


def _first_edge_error(num_users, num_items, edges):
    """Reference: the per-edge loop's first error message, or None."""
    seen = set()
    for u, i in edges:
        if not (0 <= u < num_users and 0 <= i < num_items):
            return f"edge ({u}, {i}) outside declared id range"
        if (u, i) in seen:
            return f"duplicate edge ({u}, {i})"
        seen.add((u, i))
    return None


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5)), max_size=12),
)
def test_graph_errors_match_the_per_edge_loop(num_users, num_items, edges):
    expected = _first_edge_error(num_users, num_items, edges)
    if expected is None:
        assert edge_list(graph_from_edges(num_users, num_items, edges)) == sorted(edges)
        return
    with pytest.raises(DataFormatError) as err:
        graph_from_edges(num_users, num_items, edges)
    assert str(err.value) == expected


def test_bucket_labels_match_report_header():
    assert bucket_labels((0, 4, 6, 9, 13, 100)) == [
        "[0,4)",
        "[4,6)",
        "[6,9)",
        "[9,13)",
        "[13,100)",
    ]


def test_buckets_example_from_degrees():
    groups = sparsity_buckets(np.array([2, 5, 7]))
    assert [len(groups[b]) for b in bucket_labels()] == [1, 1, 1, 0, 0]


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 99), min_size=1, max_size=60))
def test_buckets_partition_users(degrees):
    groups = sparsity_buckets(np.array(degrees))
    ids = np.concatenate(list(groups.values()))
    assert sorted(ids.tolist()) == list(range(len(degrees)))


@pytest.mark.parametrize("boundaries", [(5, 3), (0, 4, 4, 9), (7,), ()])
def test_buckets_reject_bad_boundaries(boundaries):
    with pytest.raises(ValueError, match="bucket boundaries"):
        sparsity_buckets(np.array([1, 2]), boundaries)


def test_buckets_all_zero_degree():
    groups = sparsity_buckets(np.zeros(5, dtype=int))
    assert len(groups["[0,4)"]) == 5


def test_synthetic_example_counts():
    spec = SyntheticSpec(interactions_per_user=8)
    g, features, planted = generate_synthetic(spec)
    assert g.num_edges == 400
    assert (g.num_users, g.num_items) == (50, 40)
    assert [t.dim for t in features] == [24, 16]
    assert planted.shape == (50, 40)


def test_synthetic_identity_map_no_noise():
    spec = SyntheticSpec(
        num_users=4, num_items=6, modality_dims=(5,), latent_dim=5,
        interactions_per_user=2, noise=0.0, seed=3,
    )
    g, features, planted = generate_synthetic(spec)
    # d_m == latent dim and zero noise: features are the latent item vectors,
    # so the planted scores are recoverable from them exactly
    z_u = np.random.default_rng(3).standard_normal((4, 5))
    np.testing.assert_allclose(planted, z_u @ features[0].as_float64().T, rtol=1e-6)


def reference_draw(planted, k, rng):
    """The per-user ``rng.choice`` loop that ``_draw_interactions`` replays,
    over the whole planted matrix."""
    planted = np.asarray(planted)
    edges = []
    for u in range(planted.shape[0]):
        logits = planted[u] - planted[u].max()
        probs = np.exp(logits)
        probs /= probs.sum()
        chosen = rng.choice(planted.shape[1], size=k, replace=False, p=probs)
        edges.extend((u, int(i)) for i in chosen)
    return edges


def assert_synthetic_matches_reference(spec, monkeypatch):
    graph, features, planted = generate_synthetic(spec)
    with monkeypatch.context() as m:
        m.setattr(data, "_draw_interactions", reference_draw)
        ref_graph, ref_features, ref_planted = generate_synthetic(spec)
    assert np.array_equal(graph.matrix.indptr, ref_graph.matrix.indptr)
    assert np.array_equal(graph.matrix.indices, ref_graph.matrix.indices)
    assert [t.values.tobytes() for t in features] == [t.values.tobytes() for t in ref_features]
    assert np.asarray(planted).tobytes() == np.asarray(ref_planted).tobytes()


@pytest.mark.parametrize(
    "fields",
    [
        {"num_users": 1},
        {"interactions_per_user": 0},
        {"interactions_per_user": 40},
        {"num_items": 37, "interactions_per_user": 9},
        {"latent_dim": 16, "modality_dims": (16, 5)},
        {"noise": 0.0},
        # peaked rows: most users need several rounds to find 30 distinct items
        {"latent_dim": 16, "num_items": 35, "interactions_per_user": 30},
    ],
)
def test_synthetic_draws_equal_the_choice_loop(fields, monkeypatch):
    assert_synthetic_matches_reference(SyntheticSpec(**{"num_users": 30, **fields}), monkeypatch)


@pytest.mark.parametrize("rows", [1, 3, 7, 30])
def test_synthetic_draws_equal_the_choice_loop_across_blocks(rows, monkeypatch):
    spec = SyntheticSpec(num_users=31, num_items=21, latent_dim=12, interactions_per_user=6, seed=4)
    monkeypatch.setattr(data, "DRAW_BLOCK_BYTES", 8 * 21 * rows + 7)
    assert_synthetic_matches_reference(spec, monkeypatch)
    monkeypatch.setattr(data, "DRAW_BLOCK_BYTES", 8 * 21 - 1)  # less than one row
    assert_synthetic_matches_reference(spec, monkeypatch)


@pytest.mark.parametrize("num_users, num_items", [(1500, 1500), (700, 4000)])
def test_draws_from_planted_row_blocks_equal_those_from_the_whole_matrix(
    num_users, num_items, monkeypatch
):
    # the benchmark's spec fields; 3 blocks of 699 and of 262 users
    spec = SyntheticSpec(
        num_users=num_users, num_items=num_items, modality_dims=(8,), latent_dim=16,
        interactions_per_user=8, seed=7,
    )
    _, _, planted = generate_synthetic(spec)
    assert isinstance(planted, data.ScoreRows) and planted.shape == (num_users, num_items)
    step = data.DRAW_BLOCK_BYTES // (8 * num_items)
    assert 1 < num_users / step <= 3
    rows = np.concatenate([planted[s : s + step] for s in range(0, num_users, step)])
    np.testing.assert_allclose(rows, np.asarray(planted), rtol=1e-13, atol=1e-13)
    assert_synthetic_matches_reference(spec, monkeypatch)


@pytest.mark.parametrize("rows", [1, 4, 40])
def test_planted_file_is_the_float32_blocks_the_draws_read(rows, monkeypatch, tmp_path):
    spec = SyntheticSpec(num_users=37, num_items=23, latent_dim=5, interactions_per_user=4, seed=2)
    monkeypatch.setattr(data, "DRAW_BLOCK_BYTES", 8 * 23 * rows)
    graph, _, planted = generate_synthetic(spec, planted_path=tmp_path / "planted.dat")
    blocks = [planted[s : s + rows].astype("<f4") for s in range(0, 37, rows)]
    written = data.load_modality_features(tmp_path / "planted.dat").values
    assert written.shape == (37, 23)
    assert written.tobytes() == np.concatenate(blocks).tobytes()
    assert graph.matrix.toarray().tobytes() == generate_synthetic(spec)[0].matrix.toarray().tobytes()


def test_a_failed_draw_leaves_no_planted_file(monkeypatch, tmp_path):
    def failing(planted, k, rng, sink):
        sink.write(b"partial")
        raise ValueError("user 3 has fewer than 4 items of non-zero probability")

    monkeypatch.setattr(data, "_draw_interactions", failing)
    spec = SyntheticSpec(num_users=12, num_items=10, latent_dim=3, interactions_per_user=4, seed=1)
    with pytest.raises(ValueError, match="fewer than 4 items"):
        generate_synthetic(spec, planted_path=tmp_path / "out" / "planted.dat")
    assert list((tmp_path / "out").iterdir()) == []


def test_planted_rows_are_the_product_rows():
    # small integers: every product and sum is exact whatever the gemm order
    rng = np.random.default_rng(1)
    users = rng.integers(-3, 4, size=(9, 5)).astype(float)
    items = rng.integers(-3, 4, size=(7, 5)).astype(float)
    view = data.ScoreRows(users, items)
    full = users @ items.T
    np.testing.assert_array_equal(np.asarray(view), full)
    np.testing.assert_array_equal(view[2:5], full[2:5])
    np.testing.assert_array_equal(view[[6, 0]], full[[6, 0]])
    np.testing.assert_array_equal(view[4], full[4])


@settings(deadline=None, max_examples=40)
@given(
    num_users=st.integers(1, 25),
    num_items=st.integers(1, 30),
    latent_dim=st.integers(1, 20),
    share=st.floats(0, 1),
    rows=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthetic_draws_equal_the_choice_loop_on_random_specs(
    num_users, num_items, latent_dim, share, rows, seed
):
    spec = SyntheticSpec(
        num_users=num_users, num_items=num_items, modality_dims=(3,), latent_dim=latent_dim,
        interactions_per_user=round(share * num_items), seed=seed,
    )
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "DRAW_BLOCK_BYTES", 8 * num_items * rows)
        assert_synthetic_matches_reference(spec, m)


def test_draws_with_underflowed_probabilities_equal_the_choice_loop():
    # exp underflows to exactly zero for the -800 entries, which are never drawn
    planted = np.zeros((4, 9))
    planted[:, ::2] = -800.0
    planted[1] = np.linspace(0, 3, 9)
    got = data._draw_interactions(planted, 4, np.random.default_rng(2))
    want = reference_draw(planted, 4, np.random.default_rng(2))
    assert got.tolist() == [list(e) for e in want]
    assert not set(got[got[:, 0] != 1, 1].tolist()) & {0, 2, 4, 6, 8}


def test_draw_errors_match_the_choice_loop():
    too_many = SyntheticSpec(num_items=5, interactions_per_user=6)
    with pytest.raises(ValueError):
        reference_draw(np.zeros((1, 5)), 6, np.random.default_rng(0))
    with pytest.raises(ValueError, match="cannot draw 6 distinct items from 5"):
        generate_synthetic(too_many)
    # user 2's row leaves two items of non-zero probability
    planted = np.zeros((3, 6))
    planted[2, 2:] = -1000.0
    with pytest.raises(ValueError):
        reference_draw(planted, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="user 2 has fewer than 3 items of non-zero probability"):
        data._draw_interactions(planted, 3, np.random.default_rng(0))


def test_synthetic_same_seed_identical():
    a = generate_synthetic(SyntheticSpec(seed=5))
    b = generate_synthetic(SyntheticSpec(seed=5))
    assert edge_list(a[0]) == edge_list(b[0])
    for ta, tb in zip(a[1], b[1]):
        np.testing.assert_array_equal(ta.values, tb.values)
    np.testing.assert_array_equal(a[2], b[2])


def test_synthetic_spec_json_round_trip(tmp_path):
    import json

    spec = SyntheticSpec(num_users=9, noise=0.3)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec.to_json()))
    assert SyntheticSpec.load(p) == spec


def test_synthetic_spec_rejects_unknown_fields():
    with pytest.raises(DataFormatError, match="unknown"):
        SyntheticSpec.from_json({"num_users": 5, "flavor": "grape"})


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "must be a JSON object"),
        ({"noise": "x"}, "noise must be a number"),
        ({"noise": float("inf")}, "noise must be a finite non-negative number"),
        ({"num_users": 2.5}, "num_users must be a whole number"),
        ({"latent_dim": False}, "latent_dim must be a whole number"),
        ({"seed": -1}, "seed must not be negative"),
        ({"interactions_per_user": -1}, "interactions_per_user must lie in 0..num_items=40"),
        ({"modality_dims": ["8"]}, "modality_dims must be a whole number"),
        ({"modality_dims": [4, -2]}, "modality_dims must be positive"),
    ],
)
def test_synthetic_spec_rejects_wrong_types_and_ranges(doc, message):
    with pytest.raises(DataFormatError, match=message):
        SyntheticSpec.from_json(doc)

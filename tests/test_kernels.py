import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_schemes import kernels
from unitary_schemes import scheme as scheme_mod
from unitary_schemes.fields import SUPPORTED_Q, build_field
from unitary_schemes.scheme import classify_pair, max_dimension, scheme_rank
from unitary_schemes.space import BUDGETS, isotropic_count, witness_pair

from _reference import (RefField, assembly_differs, classify, count_isotropic_transfer, full_codes,
                        isotropic_vectors, vectors)

ROW_CASES = [(n, q) for q in SUPPORTED_Q for n in (2, 3)] + [(4, 2), (4, 3)]
MATRIX_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
# the acceptance suite's oracle grid
ORACLE_GRID = [(n, q) for q in (2, 3) for n in (2, 3, 4, 5) if (n, q) != (5, 3)]
DRAW_CASES = [(2, 2), (3, 2), (4, 2), (2, 3)]
# every (n, q) that ``check_parameters`` admits
ADMITTED = [(n, q) for q in SUPPORTED_Q for n in range(2, max_dimension(q) + 1)]
SCAN_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def _numpy_ids(cases):
    # the ids keep the "numpy-" prefix of the earlier two-backend suite
    return [f"numpy-{n}-{q}" for n, q in cases]


@pytest.mark.parametrize("n,q", SCAN_CASES)
def test_scan_same_on_both_backends(n, q):
    """The meet-in-the-middle scan equals the scalar oracle."""
    ft = build_field(q)
    blocks, _, _ = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                          isotropic_count(n, q))
    whole = full_codes(blocks, ft.order, n)
    ref = RefField(q)
    oracle = []
    for vec in isotropic_vectors(ref, n):
        code = 0
        for c in vec:
            code = code * ft.order + ref.id_of(c)
        oracle.append(code)
    assert whole.tolist() == oracle


@pytest.mark.parametrize("n,q", [(8, 2), (4, 3), (3, 9)])
def test_scan_codes_increase_and_are_isotropic(n, q):
    ft = build_field(q)
    blocks, _, _ = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                          isotropic_count(n, q))
    codes = full_codes(blocks, ft.order, n)
    assert codes.size == isotropic_count(n, q)
    assert (np.diff(codes) > 0).all() and codes[0] > 0
    # the self-product of every decoded vector, summed coordinate by coordinate
    acc = np.zeros(codes.size, dtype=np.int64)
    for column in kernels.digits(codes, ft.order, n).T:
        acc = ft.add_table[acc, ft.norm_table[column]]
    assert not acc.any()


@pytest.mark.parametrize("n,q", SCAN_CASES + [(8, 2), (3, 9)])
def test_scan_block_codes_are_the_code_halves(n, q):
    """Column 0 is the code of the first n // 2 coordinates (the padded
    block's leading digit is 0) and column 1 of the last ceil(n/2), as
    read-only column-major uint16; point i is start[head] + rank[tail]."""
    ft = build_field(q)
    blocks, start, rank = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                                 isotropic_count(n, q))
    assert blocks.dtype == np.uint16 and blocks.shape == (isotropic_count(n, q), 2)
    assert blocks.flags.f_contiguous and not blocks.flags.writeable
    assert (blocks[:, 0] < ft.order ** (n // 2)).all()
    assert (blocks[:, 1] < ft.order ** -(-n // 2)).all()
    assert start.shape == (ft.order ** (n // 2),) and rank.shape == (ft.order ** -(-n // 2),)
    assert not start.flags.writeable and not rank.flags.writeable
    assert np.array_equal(start[blocks[:, 0]] + rank[blocks[:, 1]], np.arange(len(blocks)))


@pytest.mark.parametrize("n,q", SCAN_CASES)
def test_matrix_same_on_both_backends(n, q, get_space):
    """The block-table matrix equals the scalar path on every ordered pair."""
    us = get_space(n, q)
    M = kernels.classify_matrix(us.block_codes, us.tables)
    points = [tuple(int(c) for c in v) for v in vectors(us)]
    expected = [[classify_pair(us, x, y).index for y in points] for x in points]
    assert M.tolist() == expected


@pytest.mark.parametrize("n,q", ROW_CASES)
@settings(max_examples=3, deadline=None)
@given(pick=st.integers(min_value=0, max_value=2**31))
def test_classify_row_matches_classify_pair(n, q, pick, get_space):
    us = get_space(n, q)
    x = tuple(int(c) for c in vectors(us)[pick % us.size])
    rows = kernels.classify_row(x, us.block_codes, us.tables)
    assert rows.dtype == np.uint8
    expected = [classify_pair(us, x, tuple(int(c) for c in z)).index for z in vectors(us)]
    assert rows.tolist() == expected


@pytest.mark.parametrize("n,q", MATRIX_CASES, ids=_numpy_ids(MATRIX_CASES))
def test_vector_kernels_agree_with_scalar_classification(n, q, get_space):
    us = get_space(n, q)
    M = kernels.classify_matrix(us.block_codes, us.tables)
    conj = kernels.label_maps(q)[0]
    for a in range(us.size):
        x = us.point(a)
        rows = kernels.classify_row(x, us.block_codes, us.tables)
        cols = conj[rows]  # (y, x) lies in the converse of the relation of (x, y)
        assert np.array_equal(rows, M[a, :])
        assert np.array_equal(cols, M[:, a])
        for b in range(0, us.size, 5):
            y = us.point(b)
            assert classify_pair(us, x, y).index == M[a, b]
            assert classify_pair(us, y, x).index == cols[b]


@pytest.mark.parametrize("n,q,width,blocks", [
    (2, 2, 1, 2),   # two blocks of ceil(n/2) coordinates, whatever N is
    (2, 9, 1, 2),
    (3, 3, 2, 2),   # 3 = 1 + 2: the first block padded by one zero
    (3, 9, 2, 2),
    (4, 2, 2, 2),
    (5, 2, 3, 2),
    (8, 2, 4, 2),
])
def test_block_layout(n, q, width, blocks, get_space):
    us = get_space(n, q)
    t = us.tables
    assert t.width == width
    codes = us.block_codes
    assert codes.dtype == np.uint16 and codes.shape == (us.size, blocks)
    assert not codes.flags.writeable
    # the block digits are the vectors, zero-padded in front
    padded = t.digits[codes].reshape(us.size, blocks * width)
    assert not padded[:, :blocks * width - n].any()
    assert np.array_equal(padded[:, blocks * width - n:], vectors(us))


@pytest.mark.parametrize("n,q", [(5, 2), (8, 2)])
def test_rows_across_short_blocks(n, q, get_space):
    us = get_space(n, q)
    rng = random.Random(n)
    for a in (0, us.size - 1, rng.randrange(us.size)):
        x = us.point(a)
        rows = kernels.classify_row(x, us.block_codes, us.tables)
        for b in range(0, us.size, 97):
            y = us.point(b)
            assert rows[b] == classify_pair(us, x, y).index


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_conj_labels_follow_conjugate_index(q):
    """``label_maps``' conj, which ``conjugate_index`` reads, is the relation
    of each reversed witness pair of dimension 4, classified by the
    schoolbook oracle."""
    F = RefField(q)
    conj = kernels.label_maps(q)[0]
    assert conj.size == scheme_rank(4, q)
    for l in range(conj.size):
        x, y = witness_pair(l, 4, q)
        assert classify(F, [F.elements[c] for c in y], [F.elements[c] for c in x]) == conj[l]


def test_row_kernel_rejects_non_points(get_space):
    us = get_space(3, 2)
    with pytest.raises(ValueError, match="not a nonzero isotropic vector"):
        kernels.classify_row((1, 0, 0), us.block_codes, us.tables)


def test_row_kernel_rejects_a_non_point_inside_a_stack(get_space):
    us = get_space(3, 2)
    t = us.tables
    stack = np.stack([kernels._blocked(x, t) for x in (us.point(0), (1, 0, 0), us.point(1))])
    with pytest.raises(ValueError, match="not a nonzero isotropic vector"):
        kernels._row_labels(stack, us.block_codes, t)


@pytest.mark.parametrize("n,q", ROW_CASES + [(8, 2)])
def test_stacked_rows_match_single_rows(n, q, get_space):
    """A stack longer than one group gives, row by row, the one-vector passes."""
    us = get_space(n, q)
    t = us.tables
    group = kernels.group_size(us.size)
    rng = random.Random(n * q)
    picks = [rng.randrange(us.size) for _ in range(group + 2)]
    stack = t.digits[us.block_codes[picks]]
    rows = kernels._row_labels(stack, us.block_codes, t)
    assert rows.shape == (len(picks), us.size)
    single = {}
    for a in picks:
        if a not in single:
            single[a] = kernels.classify_row(us.point(a), us.block_codes, t)
    assert np.array_equal(rows, np.stack([single[a] for a in picks]))


@pytest.mark.parametrize("n,q,spot_checks", [(4, 2, 5), (3, 3, 2), (2, 4, 5), (8, 2, 1)])
def test_bruteforce_tensor_row_passes(n, q, spot_checks, get_space, monkeypatch):
    monkeypatch.setattr(scheme_mod, "SAMPLES_PER_RELATION", spot_checks)
    us = get_space(n, q)
    rank = scheme_rank(n, q)
    stacks = []
    row_labels = kernels._row_labels

    def counting(*args):
        stacks.append(len(args[0]))
        return row_labels(*args)

    monkeypatch.setattr(kernels, "_row_labels", counting)
    scheme_mod._bruteforce_tensor(us, rank, seed=3)
    # row(x), row(v) and, with a perpendicular relation, row(y) at the
    # witnesses; the samples are counted without the kernel
    assert sum(stacks) == (3 if n >= 4 else 2)
    assert stacks == [1] * len(stacks)  # one vector per kernel call


def _moved_count(tensor, h):
    """``tensor`` with one count moved within the histogram of relation h,
    keeping its row sums."""
    moved = tensor.copy()
    i, j = np.argwhere(tensor[h] > 0)[0]
    moved[h, i, j] -= 1
    moved[h, i, (j + 1) % tensor.shape[0]] += 1
    return moved


@pytest.mark.parametrize("n,q,h", [(4, 2, 1), (4, 2, 4), (4, 2, 6), (3, 3, 5), (3, 3, 12),
                                   (4, 3, 6), (4, 3, 7), (4, 3, 16), (2, 4, 29)],
                         ids=["scalar", "product", "perp", "scalar-n3", "product-n3",
                              "group-end", "group-start", "last-group", "last-of-one-group"])
def test_spot_check_catches_a_wrong_histogram(n, q, h, get_descriptor):
    # the last four ids name the column groups of an earlier, stacked check
    tensor = get_descriptor(n, q).tensor
    scheme_mod._spot_check(n, q, tensor, seed=0)  # the true counts pass
    with pytest.raises(AssertionError,
                       match=f"depend on the representative of relation {h}$"):
        scheme_mod._spot_check(n, q, _moved_count(tensor, h), seed=0)


@pytest.mark.parametrize("n,q", [(4, 3), (2, 4), (5, 2)])
def test_spot_check_names_every_relation(n, q, get_descriptor):
    """A count moved within any one relation is caught and named."""
    tensor = get_descriptor(n, q).tensor
    for h in range(tensor.shape[0]):
        with pytest.raises(AssertionError,
                           match=f"depend on the representative of relation {h}$"):
            scheme_mod._spot_check(n, q, _moved_count(tensor, h), seed=h)


@pytest.mark.parametrize("n,q", [(4, 3), (3, 3)])
def test_spot_check_samples_fresh_pairs(n, q, get_space, get_descriptor, monkeypatch):
    """Each sample counts at (a, b) and, when n >= 4, at (a, c) for a newly
    drawn point a, with (a, b) in product relation 0 and (a, c) in the
    perpendicular relation; all of them in one count."""
    us = get_space(n, q)
    tensor = get_descriptor(n, q).tensor  # built before the count is recorded
    stacks = []
    count = kernels.count_isotropic

    def recording(ft, xs, ys):
        stacks.append((xs.tolist(), ys.tolist()))
        return count(ft, xs, ys)

    monkeypatch.setattr(kernels, "count_isotropic", recording)
    scheme_mod._spot_check(n, q, tensor, seed=1)
    assert len(stacks) == 1
    width = 2 if n >= 4 else 1  # partners per sample
    xs, ys = stacks[0]
    assert len(xs) == width * scheme_mod.SAMPLES_PER_RELATION
    nrel = q * q - 1
    rng = random.Random(1)
    samples = []
    for k in range(0, len(xs), width):
        a = xs[k]
        assert xs[k:k + width] == [a] * width
        assert [classify_pair(us, a, y).index for y in ys[k:k + width]] == [nrel, 2 * nrel][:width]
        # each sample draws a new a, then its partners, from the seed's stream
        assert tuple(a) == scheme_mod._draw(us.ft, n, rng)
        for y, h in zip(ys[k:k + width], (nrel, 2 * nrel)):
            assert tuple(y) == scheme_mod._draw(us.ft, n, rng, tuple(a), h)
        samples.append(tuple(a))
    assert len(set(samples)) > 1


@pytest.mark.parametrize("n,q", [(4, 3), (3, 3)])
def test_scaled_product_pairs_count_like_direct_passes(n, q, get_space):
    """At pairs (a, b) with <a, b> = 1, and for every e, the joint histogram
    of row(a) relabelled by scale_e and col(b) is the histogram counted from
    row(g^e a) and col(b), and (g^e a, b) lies in product relation e."""
    us = get_space(n, q)
    ft, t = us.ft, us.tables
    conj, scale, _ = kernels.label_maps(q)
    nrel = ft.order - 1
    rank = scheme_rank(n, q)
    rng = random.Random(n * q)
    for _ in range(3):
        a = us.point(rng.randrange(us.size))
        row = kernels.classify_row(a, us.block_codes, t)
        b = scheme_mod._draw(ft, n, rng, a, nrel)
        assert us.hermitian_inner(a, b) == ft.one
        col = conj[kernels.classify_row(b, us.block_codes, t)]
        for e in range(nrel):
            ga = us.scalar_multiple(ft.exp(e), a)
            direct = kernels.label_counts(kernels.classify_row(ga, us.block_codes, t), rank, col)
            relabelled = kernels.label_counts(scale[e][row], rank, col)
            assert np.array_equal(relabelled, direct)
            assert classify_pair(us, ga, b).index == nrel + e


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_classify_row_refuses_non_points(n, q, get_space):
    """The zero vector (index -1), a non-isotropic vector, and a
    non-isotropic vector whose computed index start[head] + rank[tail] lands
    on another point with the same first half are refused by a row pass and
    a stack pass that holds one of them among points."""
    us = get_space(n, q)
    t = us.tables

    def index(vec):
        head, tail = kernels._blocked(vec, t) @ t.place
        return int(t.start[head] + t.rank[tail])

    zero = (0,) * n
    others = [v for v in itertools.product(range(us.ft.order), repeat=n)
              if any(v) and not us.is_isotropic(v)]
    lands = next(v for v in others
                 if 0 <= index(v) < us.size and us.point(index(v))[:n // 2] == v[:n // 2])
    assert index(zero) == -1 and us.point(index(lands)) != lands
    point = us.point(us.size // 2)
    for bad in (zero, others[0], lands):
        with pytest.raises(ValueError, match="^x is not a nonzero isotropic vector$"):
            kernels.classify_row(bad, us.block_codes, t)
        stack = np.stack([kernels._blocked(x, t) for x in (point, bad, point)])
        with pytest.raises(ValueError, match="^x is not a nonzero isotropic vector$"):
            kernels._row_labels(stack, us.block_codes, t)


def test_classify_row_copies_no_block_codes(get_space):
    """A row pass over the 4 197 375 points of (6, 4) allocates its uint8
    output and under 2 MB more, far below the 16 MB a copy of the block
    codes would take."""
    us = get_space(6, 4)
    x = us.point(us.size // 3)
    kernels.classify_row(x, us.block_codes, us.tables)
    tracemalloc.start()
    try:
        row = kernels.classify_row(x, us.block_codes, us.tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (us.size,) and row[us.size // 3] == 0
    assert peak <= row.nbytes + (2 << 20) < us.block_codes.nbytes


def test_block_tables_refuse_packed_sums_beyond_uint16():
    # (8, 9): packed sums below 17^4 = 83521; (4, 8): below 5^6 = 15625, the
    # largest the scan budget admits
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^packed sums below 17\\^4 = 83521 do not fit uint16"):
        kernels.block_tables(build_field(9), 8, empty, empty)
    assert kernels.block_tables(build_field(8), 4, empty, empty).products.dtype == np.uint16


def test_block_tables_refuse_codes_beyond_uint16():
    """(15, 4) would need tables of 16^8 entries; it is refused before any
    is made."""
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^block codes below 16\\^8 = 4294967296 do not fit uint16"):
        kernels.block_tables(build_field(4), 15, empty, empty)


def test_scan_budget_admits_only_uint16_block_codes():
    """Every (n, q) the scan budget admits has block codes below 2^16; the
    largest, 25^3 = 15625, is at (5, 5)."""
    limit = BUDGETS["scan"][1]
    largest = {}
    for q in SUPPORTED_Q:
        n = 2
        while isotropic_count(n, q) <= limit:
            largest[n, q] = (q * q) ** -(-n // 2)
            n += 1
    assert max(largest.values()) == largest[5, 5] == 15625 <= 1 << 16


def test_scan_count_mismatch_is_detected():
    ft = build_field(2)
    with pytest.raises(AssertionError, match="scan found 9 isotropic vectors, expected 10"):
        kernels.isotropic_scan(2, ft.order, ft.norm_table, ft.add_table, 10)


@pytest.mark.parametrize("n,q", ROW_CASES)
def test_scaled_rows_are_relabelled_rows(n, q, get_space):
    """row(lam x) is row(x) under the label permutation of log(lam)."""
    us = get_space(n, q)
    ft, t = us.ft, us.tables
    x = us.point(random.Random(n * q).randrange(us.size))
    rows = kernels.classify_row(x, us.block_codes, t)
    for lam in range(1, ft.order):
        scaled = kernels.classify_row(us.scalar_multiple(lam, x), us.block_codes, t)
        assert np.array_equal(scaled, kernels.label_maps(q)[1][ft.log(lam)][rows])


def _every_vector(ft, n):
    """All of F^n, zero included, as an (order^n, n) array in lexicographic order."""
    return kernels.digits(np.arange(ft.order**n), ft.order, n)


def _products(ft, x, vs):
    """<x, v> for every row v of ``vs``, one coordinate at a time."""
    acc = np.zeros(len(vs), dtype=np.int64)
    for k, c in enumerate(x):
        acc = ft.add_table[acc, ft.mul_table[c, ft.conj_table[vs[:, k]]]]
    return acc


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4),
                                 (3, 4)])
def test_count_isotropic_matches_enumeration(n, q):
    """Any x and y, zero coordinates and zero vectors included: the count
    is the histogram of (<x, z>, <z, y>) over the isotropic z of F^n."""
    ft = build_field(q)
    zs = _every_vector(ft, n)
    norms = np.zeros(len(zs), dtype=np.int64)
    for k in range(n):
        norms = ft.add_table[norms, ft.norm_table[zs[:, k]]]
    isotropic = zs[norms == 0]
    rng = random.Random(n * q)
    xs = [[rng.randrange(ft.order) if rng.random() < 0.6 else 0 for _ in range(n)]
          for _ in range(7)] + [[0] * n]
    ys = [[rng.randrange(ft.order) if rng.random() < 0.6 else 0 for _ in range(n)]
          for _ in range(7)] + [[1] + [0] * (n - 1)]
    got = kernels.count_isotropic(ft, np.array(xs), np.array(ys))
    assert got.shape == (8, ft.order, ft.order) and got.dtype == np.int64
    for x, y, counts in zip(xs, ys, got):
        alpha = _products(ft, x, isotropic)
        beta = ft.conj_table[_products(ft, y, isotropic)]  # <z, y> = conj(<y, z>)
        want = np.bincount(alpha * ft.order + beta, minlength=ft.order**2)
        assert np.array_equal(counts.ravel(), want), (x, y)


@pytest.mark.parametrize("n,q", ORACLE_GRID)
def test_counted_histograms_equal_enumeration(n, q, get_space):
    """The spot check's oracle: at the same random a, b and c, the histograms
    counted over coordinates equal ``label_counts`` of row(a) and the
    columns of the partners, the partners' rows read through conj, and give
    the same tensor as ``_witness_tensor``."""
    us = get_space(n, q)
    ft, t = us.ft, us.tables
    nrel = ft.order - 1
    rank = scheme_rank(n, q)
    rng = random.Random(n * q)
    for _ in range(3):
        a = scheme_mod._draw(ft, n, rng)
        partners = [scheme_mod._draw(ft, n, rng, a, h) for h in range(nrel, rank, nrel)]
        counted = scheme_mod._counted_histograms(ft, [(a, y) for y in partners], rank)
        row = kernels.classify_row(a, us.block_codes, t)
        conj = kernels.label_maps(q)[0].astype(np.uint8)
        enumerated = np.stack([
            kernels.label_counts(row, rank, conj[kernels.classify_row(y, us.block_codes, t)])
            for y in partners])
        assert np.array_equal(counted, enumerated)
        assert np.array_equal(scheme_mod._tensor_from_histograms(q, counted)[0],
                              scheme_mod._witness_tensor(us, row, partners)[0])


def _bincount_oracle(a, rank, b=None):
    """``kernels.label_counts`` as one whole ``bincount`` of int64 codes, each
    row of the stack offset to its own cells."""
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]).astype(np.int64)
    codes, cells = (rows, rank) if b is None else (
        rows * rank + b.reshape(rows.shape).astype(np.int64), rank * rank)
    codes += np.arange(len(rows))[:, None] * cells
    counts = np.bincount(codes.ravel(), minlength=len(rows) * cells)
    return counts.reshape(*a.shape[:-1], *(rank,) * (1 if b is None else 2))


@pytest.mark.parametrize("n,q", [(4, 3), (8, 2), (3, 9)])
def test_column_counts_match_joint_histogram(n, q, get_space):
    """The witness histogram of two rows by ``label_counts`` equals one
    ``bincount`` over all points, in one chunk at (4, 3) and across chunk
    boundaries at (8, 2) and (3, 9), rank 160."""
    us = get_space(n, q)
    t = us.tables
    rank = scheme_rank(n, q)
    rng = random.Random(n * q)
    row = kernels.classify_row(us.point(rng.randrange(us.size)), us.block_codes, t)
    col = kernels.classify_row(us.point(rng.randrange(us.size)), us.block_codes, t)
    assert row.dtype == col.dtype == np.uint8
    got = kernels.label_counts(row, rank, col)
    assert got.dtype == np.int64
    assert np.array_equal(got, _bincount_oracle(row, rank, col))
    assert got.sum() == us.size


@pytest.mark.parametrize("length", [0, 1, kernels.CHUNK - 1, kernels.CHUNK, kernels.CHUNK + 1,
                                    3 * kernels.CHUNK + 5])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
def test_label_counts_match_one_bincount(length, lead, dtype):
    """Label and label-pair histograms of 1-D, 2-D and 3-D stacks equal one
    whole ``bincount``, for empty rows, within one chunk, at its edges and
    across several chunks, with rows grouped below ``CHUNK`` labels; rank 30
    makes codes up to 899, which a uint8 code would wrap."""
    rank = 30
    rng = np.random.default_rng(length)
    a, b = rng.integers(0, rank, (2, *lead, length)).astype(dtype)
    for other in (None, b):
        got = kernels.label_counts(a, rank, other)
        assert got.dtype == np.int64
        assert np.array_equal(got, _bincount_oracle(a, rank, other))


@pytest.mark.parametrize("shape_b", [(30, 20), (5, 30, 20)], ids=["2d", "stack"])
def test_matmul_in_one_piece_equals_split(shape_b, monkeypatch):
    """``_matmul`` returns the one product when a BLAS call covers it, and
    the same array from a's rows split three at a time."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 100, (40, 30)).astype(float)
    b = rng.integers(0, 100, shape_b).astype(float)
    whole = kernels._matmul(a, b)
    monkeypatch.setattr(kernels, "BLAS_CALL", 3 * 30 * 20)
    split = kernels._matmul(a, b)
    assert np.array_equal(whole, a @ b)
    assert np.array_equal(split, whole)


def test_label_counts_memory_stays_chunked():
    """Two uint8 rows of 10^7 labels are counted, as a pair and as a stack,
    in O(``CHUNK``) memory: intp codes of all the labels would take 80 MB."""
    rank = 30
    rows = np.random.default_rng(0).integers(0, rank, (2, 10**7), dtype=np.uint8)
    tracemalloc.start()
    try:
        pair = kernels.label_counts(rows[0], rank, rows[1])
        single = kernels.label_counts(rows, rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.sum() == single[0].sum() == 10**7
    assert np.array_equal(pair.sum(axis=1), single[0])
    assert peak <= 32 * kernels.CHUNK


@pytest.mark.parametrize("n,q", DRAW_CASES)
def test_draws_accept_exactly_their_target_sets(n, q, get_space):
    """Every vector of F^n as a candidate: the point draw keeps exactly the
    points, and the partner draws at any point a keep exactly the points
    in product relation 0 or the perpendicular relation with a.  With
    uniform candidates, each draw is uniform on its target set."""
    us = get_space(n, q)
    ft = us.ft
    nrel = ft.order - 1
    every = [tuple(v) for v in _every_vector(ft, n).tolist()]
    points = [tuple(v) for v in vectors(us).tolist()]
    assert [v for v in every if scheme_mod._accepts(ft, v)] == points
    for a, row in zip(points, kernels.classify_matrix(us.block_codes, us.tables)):
        for h in range(nrel, scheme_rank(n, q), nrel):
            target = [p for p, l in zip(points, row.tolist()) if l == h]
            assert [v for v in every if scheme_mod._accepts(ft, v, a, h)] == target


@pytest.mark.parametrize("n,q", DRAW_CASES)
def test_hyperplane_points_cover_each_hyperplane_once(n, q, get_space):
    """Solving a's pivot coordinate maps F^(n-1) one to one onto each
    hyperplane <a, v> = value, so uniform free coordinates give uniform
    candidates on it."""
    us = get_space(n, q)
    ft = us.ft
    every = _every_vector(ft, n)
    free = _every_vector(ft, n - 1).tolist()
    for index in range(0, us.size, max(1, us.size // 7)):
        a = us.point(index)
        products = _products(ft, a, every)
        for value in (ft.zero, ft.one):
            images = sorted(tuple(scheme_mod._hyperplane_point(ft, a, f, value)) for f in free)
            assert images == [tuple(v) for v in every[products == value].tolist()]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_count_isotropic_stays_inside_int64(q):
    """Each prime is a prime = 1 (mod 210) below 2^22, so it has p-th roots of
    unity for every p and a matrix product of 81 residues is exact in
    float64; at the largest admitted n the primes' product exceeds every
    count, and so does the bound by which the kernel picks its primes."""
    for prime in kernels.PRIMES:
        assert prime < 2**22 and prime % 210 == 1
        assert all(prime % d for d in range(2, math.isqrt(prime) + 1))
        assert 81 * (prime - 1) ** 2 < 2**51
    n = max_dimension(q)
    assert isotropic_count(n, q) + 1 < 2**63 < math.prod(kernels.PRIMES)
    assert (q**n + 1) * (q ** (n - 1) + 1) < math.prod(kernels.PRIMES)


@pytest.mark.parametrize("n,q", ADMITTED)
def test_count_isotropic_matches_transfer_matrix(n, q):
    """At every admitted (n, q), the character sum equals the transfer-matrix
    count, dtype included, at two pairs drawn as the spot check draws them
    and one pair with zero coordinates."""
    ft = build_field(q)
    nrel = ft.order - 1
    rng = random.Random(n * q)
    pairs = []
    while len(pairs) < 2:
        a = scheme_mod._draw(ft, n, rng)
        pairs += [(a, scheme_mod._draw(ft, n, rng, a, h))
                  for h in range(nrel, scheme_rank(n, q), nrel)]
    pairs = pairs[:2] + [tuple([rng.randrange(ft.order) if rng.random() < 0.5 else 0
                                for _ in range(n)] for _ in range(2))]
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    got = kernels.count_isotropic(ft, xs, ys)
    want = count_isotropic_transfer(ft, xs, ys)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_one_count_sorts_every_isotropic_vector():
    """One pair's counts at (8, 9) add up to every isotropic vector and zero."""
    ft = build_field(9)
    rng = random.Random(0)
    a = scheme_mod._draw(ft, 8, rng)
    b = scheme_mod._draw(ft, 8, rng, a, ft.order - 1)
    counts = kernels.count_isotropic(ft, np.array([a]), np.array([b]))
    assert int(counts.sum()) == isotropic_count(8, 9) + 1 == 205891170358401


@pytest.mark.parametrize("n,q", [(4, 2), (3, 2), (3, 3), (4, 3), (2, 4), (4, 4)])
def test_assembly_check_matches_the_assembled_tensor(n, q, get_descriptor):
    """Slice by slice, the spot check's assembly check flags exactly the
    relations at which the whole assembled tensor differs, for an entry
    raised, lowered below zero or moved, in every relation, one relation
    or two at a time."""
    tensor = get_descriptor(n, q, "closed").tensor
    rank = tensor.shape[0]
    assert not scheme_mod._assembly_differs(q, tensor).any()
    rng = random.Random(n * q)
    for h in range(rank):
        for change in (1, -1 - int(tensor.max()), 0):
            changed = _moved_count(tensor, h) if change == 0 else tensor.copy()
            i, j = rng.randrange(rank), rng.randrange(rank)
            changed[h, i, j] += change
            if h % 3 == 0:
                changed[rng.randrange(rank), rng.randrange(rank), rng.randrange(rank)] += 1
            wrong = scheme_mod._assembly_differs(q, changed)
            assert np.array_equal(wrong, assembly_differs(q, changed)), (h, i, j, change)


@pytest.mark.parametrize("n,q", [(4, 3), (3, 3), (2, 4)])
def test_spot_check_names_the_first_assembled_difference(n, q, get_descriptor):
    # every relation but product 0 and the perpendicular one passes the
    # samples and is caught by the assembly check
    tensor = get_descriptor(n, q).tensor
    nrel = q * q - 1
    for h in range(tensor.shape[0]):
        if h % nrel == 0 and h >= nrel:
            continue
        changed = tensor.copy()
        changed[h, 0, 0] += 1
        changed[2 * nrel - 1, 1, 1] += h % 2  # the last product relation too, at odd h
        first = int(assembly_differs(q, changed).argmax())
        assert first == h
        with pytest.raises(AssertionError,
                           match=f"depend on the representative of relation {first}$"):
            scheme_mod._spot_check(n, q, changed, seed=0)


def test_spot_check_holds_no_second_tensor():
    """At rank 160 the spot check allocates under a quarter of the 31 MB
    tensor it checks: the samples are counted a coordinate at a time and the
    assembly is checked slice by slice.  At rank 161 it stays within 7.9 MiB
    at (4, 9) and 9.4 MiB at (10, 9), which a count gathering the cells of
    every coordinate at once passes."""
    for n, limit in ((3, None), (4, 7.9), (10, 9.4)):
        tensor = scheme_mod._closed_tensor(n, 9)
        tracemalloc.start()
        try:
            scheme_mod._spot_check(n, 9, tensor, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tensor.nbytes // 4 if limit is None else limit * 2**20), n

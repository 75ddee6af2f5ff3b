import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_schemes import kernels
from unitary_schemes import scheme as scheme_mod
from unitary_schemes.fields import SUPPORTED_Q, build_field
from unitary_schemes.scheme import classify_pair, conjugate_index, max_dimension, scheme_rank
from unitary_schemes.space import BUDGETS, enumerate_isotropic, isotropic_count

from _reference import RefField, assembly_differs, isotropic_vectors, vectors

ROW_CASES = [(n, q) for q in SUPPORTED_Q for n in (2, 3)] + [(4, 2), (4, 3)]
MATRIX_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
# the acceptance suite's oracle grid
ORACLE_GRID = [(n, q) for q in (2, 3) for n in (2, 3, 4, 5) if (n, q) != (5, 3)]
DRAW_CASES = [(2, 2), (3, 2), (4, 2), (2, 3)]
SCAN_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def _numpy_ids(cases):
    # the ids keep the "numpy-" prefix of the earlier two-backend suite
    return [f"numpy-{n}-{q}" for n, q in cases]


@pytest.mark.parametrize("n,q", SCAN_CASES)
def test_scan_same_on_both_backends(n, q):
    """The meet-in-the-middle scan equals the scalar oracle."""
    ft = build_field(q)
    whole, _ = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                      isotropic_count(n, q))
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
    codes, _ = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                      isotropic_count(n, q))
    assert codes.size == isotropic_count(n, q)
    assert (np.diff(codes) > 0).all() and codes[0] > 0
    # the self-product of every decoded vector, summed coordinate by coordinate
    acc = np.zeros(codes.size, dtype=np.int64)
    for column in kernels.digits(codes, ft.order, n).T:
        acc = ft.add_table[acc, ft.norm_table[column]]
    assert not acc.any()


@pytest.mark.parametrize("n,q", SCAN_CASES + [(8, 2), (3, 9)])
def test_scan_block_codes_are_the_code_halves(n, q):
    """Column 0 is each code's first ceil(n/2)-coordinate digit block and
    column 1 its second, as read-only column-major uint16."""
    ft = build_field(q)
    codes, blocks = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                           isotropic_count(n, q))
    assert blocks.dtype == np.uint16 and blocks.shape == (codes.size, 2)
    assert blocks.flags.f_contiguous and not blocks.flags.writeable
    scale = ft.order ** -(-n // 2)
    assert np.array_equal(blocks[:, 0], codes // scale)
    assert np.array_equal(blocks[:, 1], codes % scale)


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
    for a in range(us.size):
        x = us.point(a)
        rows = kernels.classify_row(x, us.block_codes, us.tables)
        cols = kernels.classify_col(x, us.block_codes, us.tables)
        assert np.array_equal(rows, M[a, :])
        assert np.array_equal(cols, M[:, a])
        for b in range(0, us.size, 5):
            y = us.point(b)
            assert classify_pair(us, x, y).index == M[a, b]


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
    us = enumerate_isotropic(2, q)
    rank = scheme_rank(4, q)
    assert us.tables.conj_labels.tolist() == [conjugate_index(l, 4, q) for l in range(rank)]


def test_row_kernel_rejects_non_points(get_space):
    us = get_space(3, 2)
    with pytest.raises(ValueError, match="not a nonzero isotropic vector"):
        kernels.classify_row((1, 0, 0), us.block_codes, us.tables)


def test_row_kernel_rejects_a_non_point_inside_a_stack(get_space):
    us = get_space(3, 2)
    t = us.tables
    stack = np.stack([kernels._blocked(x, t) for x in (us.point(0), (1, 0, 0), us.point(1))])
    for converse in (0, 1):
        with pytest.raises(ValueError, match="not a nonzero isotropic vector"):
            kernels._row_labels(stack, us.block_codes, t, converse)


@pytest.mark.parametrize("n,q", ROW_CASES + [(8, 2)])
def test_stacked_rows_match_single_rows(n, q, get_space):
    """A stack longer than one group gives, row by row, the one-vector passes."""
    us = get_space(n, q)
    t = us.tables
    group = kernels.group_size(us.size)
    rng = random.Random(n * q)
    picks = [rng.randrange(us.size) for _ in range(group + 2)]
    stack = t.digits[us.block_codes[picks]]
    rows = kernels._row_labels(stack, us.block_codes, t, 0)
    cols = kernels._row_labels(stack, us.block_codes, t, 1)
    assert rows.shape == cols.shape == (len(picks), us.size)
    single = {}
    for a in picks:
        if a not in single:
            x = us.point(a)
            single[a] = (kernels.classify_row(x, us.block_codes, t),
                         kernels.classify_col(x, us.block_codes, t))
    assert np.array_equal(rows, np.stack([single[a][0] for a in picks]))
    assert np.array_equal(cols, np.stack([single[a][1] for a in picks]))


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
    # row(x), col(v) and, with a perpendicular relation, col(y) at the
    # witnesses; the samples are counted without the kernel
    witness_vectors = 3 if n >= 4 else 2
    assert witness_vectors == scheme_mod.classified_vectors(n)
    assert sum(stacks) == witness_vectors
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
    width = scheme_mod.classified_vectors(n) - 1  # partners per sample
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
    nrel = ft.order - 1
    rank = scheme_rank(n, q)
    rng = random.Random(n * q)
    for _ in range(3):
        a = us.point(rng.randrange(us.size))
        row = kernels.classify_row(a, us.block_codes, t)
        b = scheme_mod._draw(ft, n, rng, a, nrel)
        assert us.hermitian_inner(a, b) == ft.one
        col = kernels.classify_col(b, us.block_codes, t)
        for e in range(nrel):
            ga = us.scalar_multiple(ft.exp(e), a)
            direct = scheme_mod._joint_histogram(
                kernels.classify_row(ga, us.block_codes, t), col, rank)
            relabelled = scheme_mod._joint_histogram(t.scale_labels[e][row], col, rank)
            assert np.array_equal(relabelled, direct)
            assert classify_pair(us, ga, b).index == nrel + e


def test_block_tables_refuse_packed_sums_beyond_uint16():
    # (8, 9): packed sums below 17^4 = 83521; (4, 8): below 5^6 = 15625, the
    # largest the scan budget admits
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^packed sums below 17\\^4 = 83521 do not fit uint16"):
        kernels.block_tables(build_field(9), 8, empty)
    assert kernels.block_tables(build_field(8), 4, empty).products.dtype == np.uint16


def test_block_tables_refuse_codes_beyond_uint16():
    """(15, 4) would need tables of 16^8 entries; it is refused before any
    is made."""
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^block codes below 16\\^8 = 4294967296 do not fit uint16"):
        kernels.block_tables(build_field(4), 15, empty)


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
        assert np.array_equal(scaled, t.scale_labels[ft.log(lam)][rows])


def _every_vector(ft, n):
    """All of F^n, zero included, as an (order^n, n) array in lexicographic order."""
    return kernels.digits(np.arange(ft.order**n), ft.order, n)


def _products(ft, x, vs):
    """<x, v> for every row v of ``vs``, one coordinate at a time."""
    acc = np.zeros(len(vs), dtype=np.int64)
    for k, c in enumerate(x):
        acc = ft.add_table[acc, ft.mul_table[c, ft.conj_table[vs[:, k]]]]
    return acc


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
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
    counted over coordinates equal ``_column_counts`` of row(a) and the
    columns of the partners, and give the same tensor as
    ``_witness_tensor``."""
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
        enumerated = np.stack([
            scheme_mod._column_counts(row, kernels.classify_col(y, us.block_codes, t), rank)
            for y in partners])
        assert np.array_equal(counted, enumerated)
        assert np.array_equal(scheme_mod._tensor_from_histograms(q, counted)[0],
                              scheme_mod._witness_tensor(us, row, partners)[0])


@pytest.mark.parametrize("n,q", [(4, 3), (8, 2), (3, 9)])
def test_column_counts_match_joint_histogram(n, q, get_space):
    """The chunked witness histogram equals one ``bincount`` over all points,
    in one chunk at (4, 3) and across chunk boundaries at (8, 2) and (3, 9),
    rank 160."""
    us = get_space(n, q)
    t = us.tables
    rank = scheme_rank(n, q)
    rng = random.Random(n * q)
    row = kernels.classify_row(us.point(rng.randrange(us.size)), us.block_codes, t)
    col = kernels.classify_col(us.point(rng.randrange(us.size)), us.block_codes, t)
    assert row.dtype == col.dtype == np.uint8
    assert np.array_equal(scheme_mod._column_counts(row, col, rank),
                          scheme_mod._joint_histogram(row, col, rank))


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
    """At the largest admitted n, a count before the last coordinate is at
    most q^(2n-2) <= 0.17 * 2^63, and one after it at most the isotropic
    vectors and zero, below 2^63."""
    n = max_dimension(q)
    assert 100 * q ** (2 * n - 2) <= 17 * 2**63
    assert isotropic_count(n, q) + 1 < 2**63


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
    tensor it checks: the samples are counted in bounded stacks and the
    assembly is checked slice by slice."""
    tensor = scheme_mod._closed_tensor(3, 9)
    tracemalloc.start()
    try:
        scheme_mod._spot_check(3, 9, tensor, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor.nbytes // 4


@pytest.mark.parametrize("chunk,cells", [(8, 1), (64, 600), (1 << 14, 1 << 30)])
def test_count_isotropic_in_stacks_and_blocks(chunk, cells, monkeypatch):
    """The counts do not depend on how the pairs are split into stacks or
    how each value's gathered counts are split into blocks."""
    n, q = 4, 3
    ft = build_field(q)
    rng = random.Random(5)
    xs = np.array([[rng.randrange(ft.order) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(9)] + [[0] * n])
    ys = np.array([[rng.randrange(ft.order) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(10)])
    zs = _every_vector(ft, n)
    norms = np.zeros(len(zs), dtype=np.int64)
    for k in range(n):
        norms = ft.add_table[norms, ft.norm_table[zs[:, k]]]
    isotropic = zs[norms == 0]
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    monkeypatch.setattr(kernels, "STACK_CELLS", cells)
    got = kernels.count_isotropic(ft, xs, ys)
    for x, y, counts in zip(xs, ys, got):
        alpha = _products(ft, x, isotropic)
        beta = ft.conj_table[_products(ft, y, isotropic)]
        want = np.bincount(alpha * ft.order + beta, minlength=ft.order**2)
        assert np.array_equal(counts.ravel(), want), (x, y)

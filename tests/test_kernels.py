import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_schemes import kernels
from unitary_schemes import scheme as scheme_mod
from unitary_schemes.fields import SUPPORTED_Q, build_field
from unitary_schemes.scheme import classify_pair, conjugate_index, scheme_rank
from unitary_schemes.space import enumerate_isotropic, isotropic_count

from _reference import RefField, isotropic_vectors

ROW_CASES = [(n, q) for q in SUPPORTED_Q for n in (2, 3)] + [(4, 2), (4, 3)]
MATRIX_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
SCAN_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def _numpy_ids(cases):
    # the ids keep the "numpy-" prefix of the earlier two-backend suite
    return [f"numpy-{n}-{q}" for n, q in cases]


@pytest.mark.parametrize("n,q", SCAN_CASES)
def test_scan_same_on_both_backends(n, q):
    """The chunked numpy scan equals a single pass and the scalar oracle."""
    ft = build_field(q)
    expected = isotropic_count(n, q)
    whole = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table, expected)
    # an odd chunk makes the chunk edges fall between codes of every width
    chunked = kernels.isotropic_scan(n, ft.order, ft.norm_table, ft.add_table,
                                     expected, chunk=7)
    assert np.array_equal(chunked, whole)
    ref = RefField(q)
    oracle = []
    for vec in isotropic_vectors(ref, n):
        code = 0
        for c in vec:
            code = code * ft.order + ref.id_of(c)
        oracle.append(code)
    assert whole.tolist() == oracle


@pytest.mark.parametrize("n,q", SCAN_CASES)
def test_matrix_same_on_both_backends(n, q, get_space):
    """The block-table matrix equals the scalar path on every ordered pair."""
    us = get_space(n, q)
    M = kernels.classify_matrix(us.block_codes, us.tables)
    points = [tuple(int(c) for c in v) for v in us.vectors]
    expected = [[classify_pair(us, x, y).index for y in points] for x in points]
    assert M.tolist() == expected


@pytest.mark.parametrize("n,q", ROW_CASES)
@settings(max_examples=3, deadline=None)
@given(pick=st.integers(min_value=0, max_value=2**31))
def test_classify_row_matches_classify_pair(n, q, pick, get_space):
    us = get_space(n, q)
    x = tuple(int(c) for c in us.vectors[pick % us.size])
    rows = kernels.classify_row(x, us.block_codes, us.tables)
    assert rows.dtype == np.int64
    expected = [classify_pair(us, x, tuple(int(c) for c in z)).index for z in us.vectors]
    assert rows.tolist() == expected


@pytest.mark.parametrize("n,q", MATRIX_CASES, ids=_numpy_ids(MATRIX_CASES))
def test_vector_kernels_agree_with_scalar_classification(n, q, get_space):
    us = get_space(n, q)
    M = kernels.classify_matrix(us.block_codes, us.tables)
    for a in range(us.size):
        x = tuple(int(c) for c in us.vectors[a])
        rows = kernels.classify_row(x, us.block_codes, us.tables)
        cols = kernels.classify_col(x, us.block_codes, us.tables)
        assert np.array_equal(rows, M[a, :])
        assert np.array_equal(cols, M[:, a])
        for b in range(0, us.size, 5):
            y = tuple(int(c) for c in us.vectors[b])
            assert classify_pair(us, x, y).index == M[a, b]


@pytest.mark.parametrize("order,count,width", [
    (4, 9, 1), (16, 75, 1), (81, 800, 1), (4, 16, 2), (4, 135, 3),
    (4, 32895, 6), (9, 2240, 3), (81, 58400, 2), (4, 10**6, 6), (9, 10**6, 4),
])
def test_block_width(order, count, width):
    assert kernels.block_width(order, count) == width


@pytest.mark.parametrize("n,q,width,blocks", [
    (2, 2, 1, 2),   # N = 9 < 16: one coordinate per block
    (2, 9, 1, 2),
    (3, 3, 2, 2),   # 3 = 1 + 2: a short first block
    (4, 2, 3, 2),
    (5, 2, 4, 2),
    (8, 2, 6, 2),
])
def test_block_layout(n, q, width, blocks, get_space):
    us = get_space(n, q)
    t = us.tables
    assert (t.width, t.blocks) == (width, blocks)
    codes = us.block_codes
    assert codes.dtype == np.uint16 and codes.shape == (us.size, blocks)
    assert not codes.flags.writeable
    # the block digits are the vectors, zero-padded in front
    padded = t.digits[codes].reshape(us.size, blocks * width)
    assert not padded[:, :blocks * width - n].any()
    assert np.array_equal(padded[:, blocks * width - n:], us.vectors)


@pytest.mark.parametrize("n,q", [(5, 2), (8, 2)])
def test_rows_across_short_blocks(n, q, get_space):
    us = get_space(n, q)
    rng = random.Random(n)
    for a in (0, us.size - 1, rng.randrange(us.size)):
        x = tuple(int(c) for c in us.vectors[a])
        rows = kernels.classify_row(x, us.block_codes, us.tables)
        for b in range(0, us.size, 97):
            y = tuple(int(c) for c in us.vectors[b])
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


@pytest.mark.parametrize("n,q,spot_checks", [(4, 2, 5), (3, 3, 2)])
def test_bruteforce_tensor_row_passes(n, q, spot_checks, get_space, monkeypatch):
    monkeypatch.setattr(scheme_mod, "SAMPLES_PER_RELATION", spot_checks)
    us = get_space(n, q)
    rank = scheme_rank(n, q)
    calls = []
    row_labels = kernels._row_labels

    def counting(*args):
        calls.append(1)
        return row_labels(*args)

    monkeypatch.setattr(kernels, "_row_labels", counting)
    scheme_mod._bruteforce_tensor(us, rank, seed=3)
    assert len(calls) == 2 * rank * (1 + spot_checks)


@pytest.mark.parametrize("chunk", [1 << 18], ids=["numpy"])
def test_scan_count_mismatch_is_detected(chunk):
    ft = build_field(2)
    with pytest.raises(AssertionError):
        kernels.isotropic_scan(2, ft.order, ft.norm_table, ft.add_table, 10, chunk=chunk)

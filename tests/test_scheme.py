import dataclasses
import inspect
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from unitary_schemes import kernels
from unitary_schemes import scheme as scheme_mod
from unitary_schemes.fields import SUPPORTED_Q
from unitary_schemes.scheme import (
    build_adjacency_matrices,
    build_descriptor,
    classify_pair,
    conjugate_index,
    conjugate_relation,
    fuse_relation_matrix,
    intersection_matrices,
    intersection_number_closed,
    is_commutative,
    max_dimension,
    relation_matrix,
    scheme_from_relation_matrix,
    scheme_rank,
    verify_relation_matrix,
    verify_scheme_axioms,
)
from unitary_schemes.fusion import canonical_fusions
from unitary_schemes.space import isotropic_count, witness_pair

from _reference import (RefField, assert_matches_decomposition, assert_same_structure,
                        intersection_number_bruteforce, isotropic_vectors,
                        sample_representatives, sampled_constancy, structure,
                        tensor as reference_tensor, triple_counts)


def test_rank_formula():
    assert scheme_rank(2, 2) == scheme_rank(3, 2) == 6
    assert scheme_rank(4, 2) == scheme_rank(6, 2) == 7
    assert scheme_rank(2, 3) == 16
    assert scheme_rank(4, 3) == 17
    assert scheme_rank(2, 5) == 48
    with pytest.raises(ValueError):
        scheme_rank(1, 2)


def test_classify_examples(get_space):
    us = get_space(4, 2)
    x = (1, 1, 0, 0)
    assert classify_pair(us, x, x).index == 0
    lam = us.ft.generator
    ax = us.scalar_multiple(lam, x)
    label = classify_pair(us, x, ax)
    assert (label.kind, label.exponent, label.index) == ("scalar", 1, 1)
    label = classify_pair(us, x, (0, 0, 1, 1))
    assert (label.kind, label.index) == ("perp", 6)
    with pytest.raises(ValueError):
        classify_pair(us, (1, 0, 0, 0), x)  # not isotropic


def test_classify_product_exponent(get_space):
    us = get_space(2, 3)
    for e in range(8):
        x, y = witness_pair(8 + e, 2, 3)
        label = classify_pair(us, x, y)
        assert (label.kind, label.exponent, label.index) == ("product", e, 8 + e)


def test_conjugate_index_formula():
    assert conjugate_index(0, 4, 2) == 0
    assert conjugate_index(6, 4, 2) == 6
    assert conjugate_index(1, 4, 3) == 7  # -1 mod 8
    assert conjugate_index(1, 2, 2) == 2
    # product range: exponent e goes to q e mod q^2-1
    assert conjugate_index(8 + 1, 4, 3) == 8 + 3


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_conjugate_index_against_pair_reversal(n, q, get_space):
    us = get_space(n, q)
    for l in range(scheme_rank(n, q)):
        x, y = witness_pair(l, n, q)
        assert classify_pair(us, y, x).index == conjugate_index(l, n, q)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)])
def test_witness_classification_roundtrip(n, q, get_space):
    us = get_space(n, q)
    for l in range(scheme_rank(n, q)):
        x, y = witness_pair(l, n, q)
        assert classify_pair(us, x, y).index == l


def test_conjugate_relation_uses_descriptor(get_descriptor):
    sd = get_descriptor(4, 2)
    assert [conjugate_relation(sd, l) for l in range(7)] == [0, 2, 1, 3, 5, 4, 6]
    with pytest.raises(ValueError):
        conjugate_relation(sd, 7)


def test_range_preservation(get_descriptor):
    sd = get_descriptor(4, 3)
    nrel = 8
    for l, lp in enumerate(sd.conj_map):
        assert (l < nrel) == (lp < nrel)
        assert (l == 16) == (lp == 16)


def test_bruteforce_valency_slices(get_space, get_descriptor):
    us = get_space(4, 2)
    sd = get_descriptor(4, 2)
    for i in range(7):
        assert intersection_number_bruteforce(us, 0, i, sd.conj_map[i]) == sd.valencies[i]
    assert intersection_number_bruteforce(us, 0, 6, 6) == 36


def test_bruteforce_commutativity_witness(get_space):
    us = get_space(4, 3)
    assert intersection_number_bruteforce(us, 3, 8, 9) == 3**5
    assert intersection_number_bruteforce(us, 3, 9, 8) == 0


def test_closed_formula_cells():
    # three scalar indices hit exactly when the exponents add up
    assert intersection_number_closed(4, 2, 0, 1, 2) == 1
    assert intersection_number_closed(4, 2, 1, 1, 2) == 0
    assert intersection_number_closed(4, 2, 6, 6, 6) == 9
    assert intersection_number_closed(5, 2, 3, 6, 6) == 27
    assert intersection_number_closed(4, 3, 3, 8, 9) == 3**5
    assert intersection_number_closed(4, 3, 3, 9, 8) == 0


def test_closed_formula_rejections():
    with pytest.raises(ValueError, match="dimension"):
        intersection_number_closed(3, 2, 6, 0, 0)
    with pytest.raises(ValueError):
        intersection_number_closed(4, 2, 7, 0, 0)
    with pytest.raises(ValueError):
        intersection_number_closed(4, 2, -1, 0, 0)
    for q in (1, 6):
        with pytest.raises(ValueError, match=f"q must be a prime power, got {q}"):
            intersection_number_closed(2, q, 0, 0, 0)


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in SUPPORTED_Q for n in range(2, max_dimension(q) + 1)])
def test_closed_tensor_matches_orthogonal_decomposition(n, q):
    sd = build_descriptor(n, q, mode="closed")
    rank = scheme_rank(n, q)
    assert isinstance(sd.tensor, np.ndarray)
    assert sd.tensor.dtype == np.int64
    assert sd.tensor.shape == (rank, rank, rank)
    assert not sd.tensor.flags.writeable
    assert_matches_decomposition(sd.tensor, n, q)
    assert type(sd.p(rank - 1, rank - 1, rank - 1)) is int


def test_closed_tensor_makes_no_second_tensor():
    """Each congruence block is written at its solutions, so the closed
    tensor allocates little beside itself: no rank^3 array of exponents or
    congruence flags (31 MB at rank 160)."""
    tracemalloc.start()
    try:
        tensor = scheme_mod._closed_tensor(3, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * tensor.nbytes


@pytest.mark.parametrize("q,largest", [(2, 31), (3, 20), (4, 16), (5, 14),
                                       (7, 11), (8, 11), (9, 10)])
@pytest.mark.parametrize("mode", ["closed", "bruteforce", "both", "scalar"])
def test_int64_dimension_bound(q, largest, mode):
    with pytest.raises(ValueError, match=f"largest n for q = {q} is {largest}$"):
        if mode == "scalar":
            intersection_number_closed(largest + 1, q, 0, 0, 0)
        else:
            build_descriptor(largest + 1, q, mode=mode)


def test_oracle_reports_first_mismatch(monkeypatch):
    honest = scheme_mod._closed_tensor

    def skewed(n, q):
        t = honest(n, q).copy()
        t[3, 4, 5] += 1
        t[4, 0, 1] += 1
        return t

    monkeypatch.setattr(scheme_mod, "_closed_tensor", skewed)
    with pytest.raises(scheme_mod.OracleMismatch) as info:
        build_descriptor(2, 2, mode="both")
    assert info.value.triple == (3, 4, 5)


def test_descriptor_check_reports_first_bad_row_sum(get_descriptor):
    sd = get_descriptor(2, 2)
    tensor = sd.tensor.copy()
    tensor[4, 1, 0] += 1
    tensor[2, 3, 5] += 1
    with pytest.raises(AssertionError, match=r"^row sum at \(h,i\)=\(2,3\) is not"):
        scheme_mod._check_descriptor(dataclasses.replace(sd, tensor=tensor))
    scheme_mod._check_descriptor(sd)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_tensor_matches_independent_reference(n, q, get_descriptor):
    ref = RefField(q)
    vectors = isotropic_vectors(ref, n)
    rank = scheme_rank(n, q)
    expected = reference_tensor(ref, vectors, rank)
    sd = get_descriptor(n, q)
    for h in range(rank):
        assert [list(row) for row in sd.tensor[h]] == expected[h]


@pytest.mark.parametrize(
    "n,q,valencies",
    [
        (2, 2, (1, 1, 1, 2, 2, 2)),
        (3, 2, (1, 1, 1, 8, 8, 8)),
        (4, 2, (1, 1, 1, 32, 32, 32, 36)),
        (5, 2, (1, 1, 1, 128, 128, 128, 108)),
    ],
)
def test_valencies(n, q, valencies, get_descriptor):
    assert get_descriptor(n, q).valencies == valencies


def test_build_rejections():
    with pytest.raises(ValueError):
        build_descriptor(1, 2)
    with pytest.raises(ValueError):
        build_descriptor(4, 2, mode="fast")
    with pytest.raises(ValueError):
        build_descriptor(4, 6)


@pytest.mark.parametrize("n,q,rank", [(2, 4, 30), (2, 5, 48)])
def test_oracle_agreement_beyond_small_q(n, q, rank):
    # prime-power q and odd q exercise the embedding and the parity offset
    sd = build_descriptor(n, q, mode="both")
    assert sd.rank == rank
    assert sd.parity_offset == (0 if q % 2 == 0 else (q + 1) // 2)


def test_closed_mode_no_enumeration():
    sd = build_descriptor(10, 2, mode="closed")
    assert sd.rank == 7
    assert sd.valencies[3] == 2**17
    assert sd.valencies[6] == 4 * sd.sub_count
    ok, _ = is_commutative(sd)
    assert ok


def test_intersection_matrices_display_entries(get_descriptor):
    sd = get_descriptor(4, 2)
    mats = intersection_matrices(sd)
    assert mats[0] == [[int(i == j) for j in range(7)] for i in range(7)]
    assert mats[6][6][6] == 9      # (q^2-1)^2 + q^4 * count(n-4)
    assert mats[3][3][3] == 10     # sub_count + 1
    assert mats[6][6][0] == 4 * sd.sub_count


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2)])
def test_intersection_matrix_algebra_closure(n, q, get_descriptor):
    sd = get_descriptor(n, q)
    mats = [np.array(m, dtype=object) for m in intersection_matrices(sd)]
    for i in range(sd.rank):
        for j in range(sd.rank):
            lhs = mats[i] @ mats[j]
            rhs = sum(sd.tensor[h][i][j] * mats[h] for h in range(sd.rank))
            assert (lhs == rhs).all(), (i, j)


def test_intersection_matrix_antihomomorphism_when_noncommutative(get_descriptor):
    # with rows indexed by j and columns by h, i -> B_i reverses products, so
    # the closure coefficients come from the swapped pair unless commutative
    sd = get_descriptor(2, 3)
    mats = [np.array(m, dtype=object) for m in intersection_matrices(sd)]
    for i in range(sd.rank):
        for j in range(sd.rank):
            lhs = mats[i] @ mats[j]
            rhs = sum(sd.tensor[h][j][i] * mats[h] for h in range(sd.rank))
            assert (lhs == rhs).all(), (i, j)


def test_commutativity_dichotomy(get_descriptor):
    for n in (2, 3, 4):
        ok, witness = is_commutative(get_descriptor(n, 2))
        assert ok and witness is None
    for n in (2, 3, 4):
        sd = get_descriptor(n, 3)
        ok, witness = is_commutative(sd)
        assert not ok
        h, i, j = witness
        assert sd.p(h, i, j) != sd.p(h, j, i)
        assert witness == (1, 8, 11)  # first triple in scan order
        assert sd.p(3, 8, 9) == 3 ** (2 * n - 3)
        assert sd.p(3, 9, 8) == 0


@pytest.mark.parametrize("n,q", [(2, 2), (4, 2), (3, 3)])
def test_axioms_exhaustive(n, q, get_space, get_descriptor):
    us = get_space(n, q)
    sd = get_descriptor(n, q)
    report = verify_scheme_axioms(us, sd)
    assert report.passed, report.failing()


def test_axioms_refuse_a_descriptor_of_another_space(get_space, get_descriptor):
    with pytest.raises(ValueError, match=r"^the descriptor of \(n, q\) = \(3, 2\) does not "
                                         r"describe the space of \(n, q\) = \(2, 2\)$"):
        verify_scheme_axioms(get_space(2, 2), get_descriptor(3, 2))


def test_axiom_budget(get_space):
    us = get_space(4, 3)
    with pytest.raises(ValueError, match="^5017600 pairs exceed the pairs budget of 5000000$"):
        verify_scheme_axioms(us)


def test_relation_sizes(get_space, get_descriptor):
    us = get_space(4, 2)
    sd = get_descriptor(4, 2)
    M = relation_matrix(us)
    for l in range(sd.rank):
        assert int((M == l).sum()) == sd.valencies[l] * us.size


def test_relation_matrix_memory_stays_near_its_output(get_space):
    """The stacked matrix pass builds each group's tables only when the group
    runs: its peak stays within the (N, N) uint8 output plus 4 MB at (6, 2)
    (about 0.35 MB above it)."""
    us = get_space(6, 2)
    tracemalloc.start()
    try:
        M = relation_matrix(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (us.size, us.size) and M.dtype == np.uint8
    assert peak <= M.nbytes + (4 << 20)


def test_adjacency_matrices(get_space, get_descriptor):
    us = get_space(2, 2)
    mats = build_adjacency_matrices(us, get_descriptor(2, 2))
    assert len(mats) == 6
    assert np.array_equal(sum(mats), np.ones((9, 9), dtype=np.int64))
    assert np.array_equal(mats[1].T, mats[2])  # conjugate scalar relations
    # closure is verified inside; (4,2) exercises the non-trivial sizes
    build_adjacency_matrices(get_space(4, 2), get_descriptor(4, 2))


def test_adjacency_refuses_a_descriptor_of_another_space(get_space, get_descriptor):
    with pytest.raises(ValueError, match=r"^the descriptor of \(n, q\) = \(3, 2\) does not "
                                         r"describe the space of \(n, q\) = \(2, 2\)$"):
        build_adjacency_matrices(get_space(2, 2), get_descriptor(3, 2))


@pytest.mark.parametrize("call,name,good,bad", [
    (lambda n: isotropic_count(n, 2), "n", 3, 2.5),
    (lambda n: isotropic_count(n, 2), "n", 3, True),
    (lambda n: scheme_rank(n, 2), "n", 4, 2.5),
    (lambda n: canonical_fusions(n), "n", 3, 2.5),
    (lambda l: witness_pair(l, 2, 2), "l", 1, 1.5),
    (lambda l: witness_pair(l, 2, 2), "l", 1, True),
    (lambda l: conjugate_index(l, 2, 2), "l", 1, 1.0),
    (lambda l: conjugate_index(l, 2, 2), "l", 1, True),
    (lambda h: intersection_number_closed(2, 2, h, 0, 0), "h", 0, np.float64(0)),
    (lambda j: intersection_number_closed(2, 2, 0, 0, j), "j", 1, 1.0),
], ids=["count-float", "count-bool", "rank-float", "fusions-float", "witness-float",
        "witness-bool", "conjugate-float", "conjugate-bool", "closed-h-numpy-float",
        "closed-j-float"])
def test_integer_arguments_are_checked_not_coerced(call, name, good, bad):
    """An int or a numpy integer is taken as it is; a float, a numpy float or
    a bool is refused with a ``ValueError`` naming the argument, even where
    it equals an integer (and ``witness_pair`` has cached that integer)."""
    assert call(np.int64(good)) == call(good)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(bad))}$"):
        call(bad)


def test_adjacency_budget(get_space, get_descriptor):
    with pytest.raises(ValueError, match="^2079 points exceed the dense budget of 512$"):
        build_adjacency_matrices(get_space(6, 2), get_descriptor(6, 2))


def test_dense_budget_checked_before_structure(monkeypatch):
    def structure(M, rank):
        raise AssertionError("a pass over an over-budget matrix")

    monkeypatch.setattr(scheme_mod, "_structure", structure)
    with pytest.raises(ValueError, match="^513 points exceed the dense budget of 512$"):
        scheme_from_relation_matrix(np.zeros((513, 513), dtype=np.int64))


def test_scheme_from_relation_matrix_roundtrip(get_space, get_descriptor):
    us = get_space(2, 2)
    sd = get_descriptor(2, 2)
    rank, valencies, conj, tensor = scheme_from_relation_matrix(relation_matrix(us))
    assert rank == sd.rank
    assert valencies == sd.valencies
    assert conj == sd.conj_map
    assert np.array_equal(tensor, sd.tensor)


def test_scheme_from_relation_matrix_rejects_garbage():
    bad = np.zeros((4, 4), dtype=np.int64)  # everything in relation 0
    with pytest.raises(ValueError):
        scheme_from_relation_matrix(bad)
    M = np.array([[0, 1], [1, 0]])
    scheme_from_relation_matrix(M)  # the 2-point scheme is fine
    with pytest.raises(ValueError):
        scheme_from_relation_matrix(np.array([[0, 1, 1], [1, 0, 1]]))


def test_representative_independence(get_space, get_descriptor):
    # recounting from random representatives happens inside the build; make
    # sure an explicit off-witness pair gives the same number
    us = get_space(3, 2)
    sd = get_descriptor(3, 2)
    M = relation_matrix(us)
    xs, ys = np.nonzero(M == 4)
    for k in range(0, xs.size, xs.size // 7):
        pair = (us.point(xs[k]), us.point(ys[k]))
        assert intersection_number_bruteforce(us, 4, 3, 4, pair=pair) == sd.p(4, 3, 4)


def test_sample_representatives_stream(get_space):
    us = get_space(3, 2)
    pairs = sample_representatives(us, 4, 3, random.Random(7))
    # the draws are fixed by the seed: one randrange per point, one per partner
    assert pairs == [((1, 0, 2), (0, 3, 1)), ((1, 1, 0), (0, 3, 1)), ((0, 1, 3), (0, 2, 3))]
    assert all(classify_pair(us, x, y).index == 4 for x, y in pairs)


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_scheme_from_relation_matrix_matches_descriptor(n, q, get_space, get_descriptor):
    us = get_space(n, q)
    sd = get_descriptor(n, q)
    rank, valencies, conj, tensor = scheme_from_relation_matrix(relation_matrix(us))
    assert (rank, valencies, conj) == (sd.rank, sd.valencies, sd.conj_map)
    assert tensor == tuple(tuple(map(tuple, mat)) for mat in sd.tensor.tolist())
    mats = build_adjacency_matrices(us, sd)
    assert [int(m.sum()) for m in mats] == [k * us.size for k in sd.valencies]


@pytest.mark.parametrize("entry", ["verify", "recover"])
@pytest.mark.parametrize("M,rank,message", [
    (np.array([[0, 1, 1], [1, 0, 1]]), None, "square"),
    (np.array([0, 1]), None, "square"),
    (np.array([[0, 2], [2, 0]]), 2, "lie in 0..1|cannot all meet"),
    (np.array([[0, -1], [-1, 0]]), None, "lie in 0..0"),
    (np.zeros((0, 0), dtype=np.int64), None, "empty"),
    (np.array([[0, 5], [5, 0]]), None, "6 relations cannot all meet each row of 2 points"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), None, "integers"),
], ids=["non-square", "one-dimensional", "beyond-rank", "negative", "empty",
        "more-relations-than-points", "float"])
def test_malformed_relation_matrices_raise_value_error(entry, M, rank, message):
    with pytest.raises(ValueError, match=message):
        if entry == "verify":
            verify_relation_matrix(M, rank=rank)
        else:
            scheme_from_relation_matrix(M)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
def test_relation_matrix_integer_dtypes(dtype, get_space):
    M = relation_matrix(get_space(2, 2))
    assert scheme_from_relation_matrix(M.astype(dtype)) == scheme_from_relation_matrix(M)
    assert verify_relation_matrix(M.astype(dtype)).checks == verify_relation_matrix(M).checks


def test_sampled_check_widens_narrow_labels(get_space, get_descriptor):
    # at rank 30 a uint8 pair code M[x, z] * 30 + M[z, y] would wrap past 255
    M = relation_matrix(get_space(2, 4))
    sd = get_descriptor(2, 4)
    report = verify_relation_matrix(M.astype(np.uint8), sd=sd)
    assert report.passed and report.checks == verify_relation_matrix(M, sd=sd).checks


def _tamper_diagonal(M):
    T = M.copy()
    T[1, 1] = 3
    return T


def _tamper_converse(M):
    x, y = np.argwhere(M == 3)[0]
    T = M.copy()
    T[y, x] = 5  # (x, y) stays in relation 3, its reverse leaves conj(3) = 3
    return T


def _tamper_partition(M):
    return np.where(M == 1, 2, M)


def _tamper_constancy(M):
    return fuse_relation_matrix(M, ((0,), (1, 2), (3, 6), (4, 5)))  # not a fusion


@pytest.mark.parametrize("tamper,check,message", [
    (_tamper_diagonal, "identity", "exactly the diagonal"),
    (_tamper_converse, "converse", "reversed pairs of relation 3"),
    (_tamper_partition, "partition", "every label present"),
    (_tamper_constancy, "constancy", r"\(h,i,j\)=\(2,1,2\) is not constant"),
], ids=["identity", "converse", "partition", "constancy"])
def test_validators_detect_tampered_matrices(tamper, check, message, get_space):
    T = tamper(relation_matrix(get_space(4, 2)))
    for seed in range(5):
        report = verify_relation_matrix(T, seed=seed)
        assert not report.passed
        assert check in [name for name, _, _ in report.failing()]
    with pytest.raises(ValueError, match=message):
        scheme_from_relation_matrix(T)


def test_verify_rejects_rank_other_than_descriptor(get_space, get_descriptor):
    M = relation_matrix(get_space(2, 2))
    with pytest.raises(ValueError, match="rank 7 differs from the descriptor's rank 6"):
        verify_relation_matrix(M, rank=7, sd=get_descriptor(2, 2))


def test_adjacency_rejects_tampered_descriptor(get_space, get_descriptor):
    us = get_space(4, 2)
    sd = get_descriptor(4, 2)
    tensor = sd.tensor.copy()
    tensor[3, 4, 5] += 1
    with pytest.raises(AssertionError, match="A_4 A_5 does not decompose"):
        build_adjacency_matrices(us, dataclasses.replace(sd, tensor=tensor))
    for field, value in (("valencies", tuple(reversed(sd.valencies))),
                         ("conj_map", tuple(range(sd.rank)))):
        with pytest.raises(AssertionError, match="valencies or conjugation map"):
            build_adjacency_matrices(us, dataclasses.replace(sd, **{field: value}))


def test_adjacency_refuses_a_split_converse(get_space, get_descriptor, monkeypatch):
    """Constant triple counts do not imply the converse axiom, so a matrix
    whose reversed pairs of relation 3 fall in two relations is refused
    before its triple counts are taken."""
    us, sd = get_space(4, 2), get_descriptor(4, 2)
    classify = kernels.classify_matrix
    monkeypatch.setattr(kernels, "classify_matrix",
                        lambda codes, t: _tamper_converse(classify(codes, t)))

    def triple_counts(M, st):
        raise AssertionError("triple counts of a matrix with a split converse")

    monkeypatch.setattr(scheme_mod, "_triple_counts", triple_counts)
    with pytest.raises(AssertionError, match="^reversed pairs of relation 3 fall in 2 relations$"):
        build_adjacency_matrices(us, sd)


def test_sampled_pairs_follow_row_major_order(get_space):
    # the sampled check draws the p-th pair of relation h in np.nonzero order
    M = relation_matrix(get_space(4, 2))
    relation, xs, ys = scheme_mod._sampled_pairs(M, scheme_mod._structure(M, None), 3)
    rng = random.Random(3)
    expected = []
    for h in range(7):
        hx, hy = np.nonzero(M == h)
        expected += [(h, hx[p], hy[p]) for p in [rng.randrange(hx.size) for _ in range(5)]]
    assert len(expected) == 35
    assert list(zip(relation.tolist(), xs.tolist(), ys.tolist())) == expected


def _single_edits(M, count, seed):
    """``count`` copies of M, each with one entry set to a random label."""
    rng = random.Random(seed)
    size, labels = M.shape[0], int(M.max()) + 1
    for _ in range(count):
        T = M.copy()
        T[rng.randrange(size), rng.randrange(size)] = rng.randrange(labels)
        yield T


def _constancy(report):
    return next((ok, detail) for name, ok, detail in report.checks if name == "constancy")


@pytest.mark.parametrize("n,q", [(4, 2), (2, 3)])
def test_sampled_constancy_matches_one_pick_at_a_time(n, q, get_space, get_descriptor):
    _assert_sampled_constancy_matches_reference(n, q, get_space, get_descriptor)


@pytest.mark.parametrize("chunk", [16, 1000, 4096])
@pytest.mark.parametrize("n,q", [(4, 2), (2, 3)])
def test_sampled_constancy_in_groups_matches_one_pick_at_a_time(n, q, chunk, get_space,
                                                               get_descriptor, monkeypatch):
    # relations per group: 1 at 16; at 1000, 4 of rank 7 and 1 of rank 16;
    # at 4096, all 7 of rank 7 and 3 of rank 16
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    _assert_sampled_constancy_matches_reference(n, q, get_space, get_descriptor)


def test_sampled_constancy_memory_stays_grouped(get_space):
    """At (2, 8), rank 126, the histograms of all 630 samples take 80 MB, and
    163 MB at the peak when they are compared at once; counted a few
    relations at a time, the check stays within 16 MiB."""
    M = relation_matrix(get_space(2, 8))
    tracemalloc.start()
    try:
        report = verify_relation_matrix(M, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20


def _assert_sampled_constancy_matches_reference(n, q, get_space, get_descriptor):
    M = relation_matrix(get_space(n, q))
    sd = get_descriptor(n, q)
    off = sd.tensor.copy()
    off[3, 1, 2] += 1
    mats = [M, *_single_edits(M, 3, n * q)] + ([_tamper_constancy(M)] if n == 4 else [])
    details = set()
    for T in mats:
        st = scheme_mod._structure(T, sd.rank)
        for seed in range(5):
            for tensor in (None, sd.tensor, off):
                report = verify_relation_matrix(
                    T, seed=seed, sd=None if tensor is None else dataclasses.replace(sd, tensor=tensor))
                assert _constancy(report) == sampled_constancy(T, st, tensor, seed)
                details.add(_constancy(report)[1].split(" relation ")[0])
    assert details >= {"triple counts differ between representatives of",
                       "triple counts at"}


def _assert_triple_counts_match_reference(M):
    st = scheme_mod._structure(M, None)
    tensor, varies = scheme_mod._triple_counts(M, st)
    want_tensor, want_varies = triple_counts(M, st)
    assert np.array_equal(tensor, want_tensor)
    assert np.array_equal(varies, want_varies)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_triple_counts_match_row_histograms(n, q, get_space):
    M = relation_matrix(get_space(n, q))
    _assert_triple_counts_match_reference(M)
    for T in _single_edits(M, 3, n * q):
        _assert_triple_counts_match_reference(T)


def test_triple_counts_span_digit_groups(get_space):
    # (2, 4): base 5, rank 30; (3, 3): base 28, rank 16; B^rank > 2^53 in both,
    # so the counts of one row are packed in two groups of relations j
    for n, q in ((2, 4), (3, 3)):
        st = scheme_mod._structure(relation_matrix(get_space(n, q)), None)
        assert (int(st.rows.max()) + 1) ** st.rank > 2**53


@pytest.mark.parametrize("tamper", [_tamper_diagonal, _tamper_converse, _tamper_partition,
                                    _tamper_constancy])
def test_triple_counts_match_row_histograms_on_tampered_matrices(tamper, get_space):
    T = tamper(relation_matrix(get_space(4, 2)))
    _assert_triple_counts_match_reference(T)
    assert scheme_mod._triple_counts(T, scheme_mod._structure(T, None))[1].any()


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
def test_triple_counts_integer_dtypes(dtype, get_space):
    M = relation_matrix(get_space(4, 2))
    for T in (M, _tamper_constancy(M), *_single_edits(M, 2, 5)):
        _assert_triple_counts_match_reference(T.astype(dtype))


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_triple_counts_row_blocks_match_reference(n, q, get_space, monkeypatch):
    """The mirrored blocks of ``_triple_counts`` match the reference on
    relation matrices and single edits, whether a block holds one row
    (``kernels.CHUNK`` = 16), a few rows or every row; (2, 2), (3, 2) and
    (2, 3), one block at the default ``CHUNK``, span several here.  The
    matrices are classified before ``CHUNK`` is patched."""
    M = relation_matrix(get_space(n, q))
    mats = [M, *_single_edits(M, 3, n * q)]
    for cells in (16, 1000, 1 << 16):
        monkeypatch.setattr(kernels, "CHUNK", cells)
        for T in mats:
            _assert_triple_counts_match_reference(T)


@pytest.mark.parametrize("n,q", [(4, 2), (2, 4)])
def test_triple_counts_match_reference_on_converse_preserving_edits(n, q, get_space):
    """Edits that set M[x, y] = l and M[y, x] = conj l keep the converse
    axiom exact, so ``_triple_counts`` takes the mirrored path over several
    blocks (at (2, 4) in two digit groups); the counts that vary after the
    edit match the reference and the full products.  So do matrices with
    one more relation, the single unordered pair {0, y} across blocks: the
    representative (0, y) is the pair's only directly counted orientation,
    so where its counts are not those of (y, 0) under the converse map,
    only the mirrored tensor marks them."""
    M = relation_matrix(get_space(n, q))
    st = scheme_mod._structure(M, None)
    assert kernels.group_size(M.shape[0] * st.rank) < M.shape[0]
    rng = random.Random(n * q)
    mats = []
    for _ in range(4):
        x, y = rng.sample(range(M.shape[0]), 2)
        l = rng.choice([l for l in range(st.rank) if l != M[x, y]])
        T = M.copy()
        T[x, y], T[y, x] = l, st.conj[l]
        mats.append(T)
    for y in range(M.shape[0] - 5, M.shape[0]):
        T = M.copy()
        T[0, y] = T[y, 0] = st.rank
        mats.append(T)
    for T in mats:
        edited = scheme_mod._structure(T, None)
        assert edited.split is None
        tensor, varies = scheme_mod._triple_counts(T, edited)
        want_tensor, want_varies = triple_counts(T, edited)
        assert np.array_equal(tensor, want_tensor) and np.array_equal(varies, want_varies)
        assert varies.any()
        full = scheme_mod._triple_counts(T, dataclasses.replace(edited, split=0))
        assert np.array_equal(tensor, full[0]) and np.array_equal(varies, full[1])


@pytest.mark.parametrize("n,q,bound", [(4, 2, 0.6), (5, 2, 0.55)])
def test_triple_counts_mirror_saves_products(n, q, bound, get_space, monkeypatch):
    """On a converse-closed matrix the mirrored path gives the full
    products' output with at most ``bound`` of their multiply-adds, summed
    as m k n over the calls of ``kernels._matmul``; ``split`` = 0 forces the
    full products."""
    M = relation_matrix(get_space(n, q))
    st = scheme_mod._structure(M, None)
    assert st.split is None
    matmul = kernels._matmul
    work = []

    def counted(a, b):
        batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        work[-1] += batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
        return matmul(a, b)

    monkeypatch.setattr(kernels, "_matmul", counted)
    results = []
    for s in (st, dataclasses.replace(st, split=0)):
        work.append(0)
        results.append(scheme_mod._triple_counts(M, s))
    (tensor, varies), (full_tensor, full_varies) = results
    assert np.array_equal(tensor, full_tensor) and np.array_equal(varies, full_varies)
    assert work[0] <= bound * work[1]


@pytest.mark.parametrize("cells", [16, 1000, 1 << 16])
def test_structure_row_blocks_match_whole_matrix(cells, get_space, monkeypatch):
    """``_structure`` over row blocks equals the whole-matrix oracle on
    relation matrices, edited and tampered ones and their copies in other
    integer dtypes, with a rank above the largest label as well, whether a
    block holds one row counted in chunks of 16 labels (every matrix here
    has more points), a few rows with a shorter last block, or every row; a
    rank below a label is refused by both with the same message.
    ``kernels.CHUNK`` sets the blocks, so the matrices are classified before
    it is patched."""
    mats = []
    for n, q in ((3, 2), (4, 2), (2, 3)):
        M = relation_matrix(get_space(n, q))
        mats += [M, *_single_edits(M, 3, n * q)]
        if n == 4:
            mats += [tamper(M) for tamper in (_tamper_diagonal, _tamper_converse,
                                              _tamper_partition, _tamper_constancy)]
    monkeypatch.setattr(kernels, "CHUNK", cells)
    blocked = inspect.unwrap(scheme_mod._structure)
    for T in mats:
        for dtype in (np.uint8, np.int16, np.int64, np.uint64):
            A = T.astype(dtype)
            for rank in (None, int(A.max()) + 2):
                assert_same_structure(blocked(A, rank), structure(A, rank))
            with pytest.raises(ValueError, match="^relation labels must lie in 0"):
                blocked(A, int(A.max()))


def test_structure_memory_stays_below_its_matrix(get_space):
    """``_structure`` counts ``kernels.CHUNK`` labels at a time: at (6, 2) it
    peaks under 3 MB, below the 4.3 MB uint8 matrix it reads, where the
    whole-matrix oracle's int64 copies peak at 66 MB."""
    M = relation_matrix(get_space(6, 2))
    blocked = inspect.unwrap(scheme_mod._structure)
    tracemalloc.start()
    try:
        st = blocked(M, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.present == st.rank == 7 and st.identity
    assert peak <= 3 << 20


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3)])
def test_triple_counts_memory(n, q, get_space):
    """Peak at most c rank N^2 8 bytes with c = 2: two N x N arrays (the
    labels and one digit group's powers), a row block's indicator stack of
    at most max(``kernels.CHUNK``, N rank) entries and its products.  The
    row-histogram kernel of ``_reference.triple_counts`` holds N rank^2
    counts per row instead."""
    M = relation_matrix(get_space(n, q))
    st = scheme_mod._structure(M, None)
    tracemalloc.start()
    try:
        scheme_mod._triple_counts(M, st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * st.rank * M.shape[0] ** 2 * 8

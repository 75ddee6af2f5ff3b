import re

import numpy as np
import pytest

from unitary_schemes.chartable import CharTable, reconstruct_intersection, verify_orthogonality
from unitary_schemes.fusion import (
    FusionError,
    canonical_fusions,
    coarse_partition,
    fuse,
    symmetrization_partition,
)
from unitary_schemes.scheme import (
    conjugate_index,
    fuse_relation_matrix,
    relation_matrix,
    scheme_from_relation_matrix,
    scheme_rank,
)

from _reference import zw_rows


def rows(ct):
    """The entries of ``ct`` as nested lists of integer pairs (A, B) of A + B w."""
    return [[ct.entry(i, j) for j in range(ct.size)] for i in range(ct.size)]


def expected_symmetrization(n):
    """Fused table in canonical dual-block order {0},{1,2},{3},{4,5}(,{6})."""
    if n == 2:
        rows = [[1, 2, 2, 4], [1, -1, 2, -2], [1, 2, -1, -2], [1, -1, -1, 1]]
        return zw_rows(rows), (1, 2, 2, 4)
    if n == 3:
        rows = [[1, 2, 8, 16], [1, -1, -4, 4], [1, 2, -1, -2], [1, -1, 2, -2]]
        return zw_rows(rows), (1, 6, 8, 12)
    a, b, c = (-2) ** (n - 1), (-2) ** (n - 2), (-2) ** (n - 3)
    rows = [
        [1, 2, 2 ** (2 * n - 3), 2 ** (2 * n - 2), 2 ** (2 * n - 3) - a - 4],
        [1, -1, -a, a, 0],
        [1, 2, -b, a, 3 * b - 3],
        [1, -1, -b, b, 0],
        [1, 2, -c, b, 3 * c - 3],
    ]
    m12 = (2 ** (2 * n) + (-2) ** n - 2) // 9
    s = (-1) ** n
    m3 = 4 * (2**n - s) * (2 ** (n - 3) + s) // 9
    m6 = 8 * (2 ** (n - 1) + s) * (2 ** (n - 2) - s) // 9
    return zw_rows(rows), (1, m12, m3, 2 * m12, m6)


def expected_coarse(n):
    """Fused table in canonical dual-block order {0},{1,2,4,5},{3}(,{6})."""
    if n == 2:
        return zw_rows([[1, 2, 6], [1, -1, 0], [1, 2, -3]]), (1, 6, 2)
    if n == 3:
        return zw_rows([[1, 2, 24], [1, -1, 0], [1, 2, -3]]), (1, 18, 8)
    a, b, c = (-2) ** (n - 1), (-2) ** (n - 2), (-2) ** (n - 3)
    rows = [
        [1, 2, 3 * 2 ** (2 * n - 3), 2 ** (2 * n - 3) - a - 4],
        [1, -1, 0, 0],
        [1, 2, -3 * b, 3 * b - 3],
        [1, 2, -3 * c, 3 * c - 3],
    ]
    merged = (2 ** (2 * n) + (-2) ** n - 2) // 3
    s = (-1) ** n
    m3 = 4 * (2**n - s) * (2 ** (n - 3) + s) // 9
    m6 = 8 * (2 ** (n - 1) + s) * (2 ** (n - 2) - s) // 9
    return zw_rows(rows), (1, merged, m3, m6)


def test_canonical_partitions():
    assert symmetrization_partition(2, 2) == ((0,), (1, 2), (3,), (4, 5))
    assert symmetrization_partition(4, 2) == ((0,), (1, 2), (3,), (4, 5), (6,))
    assert coarse_partition(3) == ((0,), (1, 2), (3, 4, 5))
    assert coarse_partition(5) == ((0,), (1, 2), (3, 4, 5), (6,))
    names = [name for name, _ in canonical_fusions(4)]
    assert names == ["symmetrize", "coarse"]


def test_identity_fusion(get_table, get_descriptor):
    ct = get_table(3)
    singletons = tuple((l,) for l in range(6))
    fused = fuse(ct, get_descriptor(3, 2), singletons)
    assert fused.table.p.tolist() == ct.p.tolist()
    assert fused.table.multiplicities == ct.multiplicities
    assert fused.dual_blocks == singletons


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symmetrization_tables(n, get_table, get_descriptor):
    fused = fuse(get_table(n), get_descriptor(n, 2), symmetrization_partition(n, 2))
    entries, mult = expected_symmetrization(n)
    assert rows(fused.table) == entries
    assert fused.table.multiplicities == mult
    assert sum(mult) == fused.table.order
    ok, witness = verify_orthogonality(fused.table)
    assert ok, witness


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coarse_tables(n, get_table, get_descriptor):
    fused = fuse(get_table(n), get_descriptor(n, 2), coarse_partition(n))
    entries, mult = expected_coarse(n)
    assert rows(fused.table) == entries
    assert fused.table.multiplicities == mult
    ok, witness = verify_orthogonality(fused.table)
    assert ok, witness


def test_three_class_fusion_merged_multiplicity(get_table, get_descriptor):
    fused = fuse(get_table(4), get_descriptor(4, 2), coarse_partition(4))
    assert fused.table.multiplicities[1] == 90  # (2^8 + 16 - 2) / 3
    assert fused.dual_blocks == ((0,), (1, 2, 4, 5), (3,), (6,))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["symmetrize", "coarse"])
def test_relation_level_fusion_agrees(n, kind, get_space, get_table, get_descriptor):
    us = get_space(n, 2)
    sd = get_descriptor(n, 2)
    blocks = dict(canonical_fusions(n))[kind]
    fused = fuse(get_table(n), sd, blocks)
    merged = fuse_relation_matrix(relation_matrix(us), blocks)
    rank, valencies, conj, tensor = scheme_from_relation_matrix(merged)
    assert rank == len(blocks)
    assert valencies == fused.table.valencies
    for h in range(rank):
        for i in range(rank):
            for j in range(rank):
                assert reconstruct_intersection(fused.table, h, i, j) == tensor[h][i][j]


def test_malformed_partitions(get_table, get_descriptor):
    ct = get_table(4)
    sd = get_descriptor(4, 2)
    with pytest.raises(FusionError, match="block 0"):
        fuse(ct, sd, ((0, 1), (2,), (3, 4, 5), (6,)))
    with pytest.raises(FusionError, match="partition"):
        fuse(ct, sd, ((0,), (1, 2), (3, 4), (6,)))
    with pytest.raises(FusionError, match="conjugation"):
        fuse(ct, sd, ((0,), (1, 3), (2,), (4, 5), (6,)))


@pytest.mark.parametrize("entry", [1.7, "1", True, np.float64(1)])
def test_partition_entries_must_be_integers(entry, get_table):
    """Entries are checked, not coerced: 1.7 would otherwise fuse as 1."""
    with pytest.raises(FusionError, match=f"^block 1 entry must be an integer, not {re.escape(repr(entry))}$"):
        fuse(get_table(3), [0, 2, 1, 3, 5, 4], [(0,), (entry, 2), (3,), (4, 5)])


@pytest.mark.parametrize("conj", [[0, 2, 1, 3, 5], [0, 2, 1, 3, 5, 4, 9]], ids=["short", "long"])
def test_conjugation_map_must_cover_the_relations(conj, get_table):
    with pytest.raises(FusionError, match=f"^the conjugation map has {len(conj)} entries for 6 "
                                          "relations$"):
        fuse(get_table(3), conj, [(0,), (1, 2), (3,), (4, 5)])
    assert fuse(get_table(3), conj[:5] + [4], [(0,), (1, 2), (3,), (4, 5)]).blocks == (
        (0,), (1, 2), (3,), (4, 5))


@pytest.mark.parametrize("n,blocks,empty", [
    (2, ((0,), (1, 2), (), (3, 4, 5)), 2),
    (2, ((0,), (1, 2), (3, 4, 5), ()), 3),
    (4, ((0,), (1, 2), (), (3, 4, 5), (6,)), 2),
    (4, ((0,), (1, 2), (3, 4, 5), (6,), ()), 4),
], ids=["n2-middle", "n2-end", "n4-middle", "n4-end"])
def test_empty_blocks_are_refused(n, blocks, empty, get_table, get_descriptor):
    with pytest.raises(FusionError, match=f"^block {empty} is empty$"):
        fuse(get_table(n), get_descriptor(n, 2), blocks)


def test_unfusable_partition_reports_sum_vectors(get_table, get_descriptor):
    # conjugation-closed, but the row sums cannot become block-constant
    with pytest.raises(FusionError, match="^no dual partition gives constant row sums with row 0 "
                                          "alone: the rows have 5 distinct sum vectors over 4 blocks$"):
        fuse(get_table(4), get_descriptor(4, 2), ((0,), (1, 2), (3, 6), (4, 5)))


def copy_row(p, src, dst):
    p[:, dst] = p[:, src]


def add_omega(p, i, j):
    p[1, i, j] += 1


@pytest.mark.parametrize("tamper,blocks,groups", [
    (lambda p: copy_row(p, 0, 1), ((0,), (1, 2), (3, 4, 5)), 3),  # row 0 in company
    (lambda p: add_omega(p, 4, 1), ((0,), (1, 2), (3, 4, 5)), 4),  # row 4 sums as row 1 but for B
    (lambda p: copy_row(p, 1, 2), tuple((l,) for l in range(6)), 5),  # P singular
], ids=["row-0-in-company", "omega-part-only", "singular"])
def test_tampered_tables_do_not_fuse(tamper, blocks, groups, get_table, get_descriptor):
    ct = get_table(2)
    p = ct.p.copy()
    tamper(p)
    table = CharTable(p=p, multiplicities=ct.multiplicities, valencies=ct.valencies,
                      order=ct.order)
    message = (f"^no dual partition gives constant row sums with row 0 alone: the rows "
               f"have {groups} distinct sum vectors over {len(blocks)} blocks$")
    with pytest.raises(FusionError, match=message):
        fuse(table, get_descriptor(2, 2), blocks)


def closed_partitions(rank, conj):
    """Every partition of 0..rank-1 with {0} alone that conjugation maps onto
    itself, each once."""

    def partitions(items):
        if not items:
            yield []
            return
        for rest in partitions(items[1:]):
            for k in range(len(rest)):
                yield rest[:k] + [(items[0],) + rest[k]] + rest[k + 1:]
            yield [(items[0],)] + rest

    for tail in partitions(tuple(range(1, rank))):
        blocks = ((0,),) + tuple(tail)
        sets = set(map(frozenset, blocks))
        if all(frozenset(conj[l] for l in b) in sets for b in blocks):
            yield blocks


def test_closed_partitions_fuse_exactly_as_the_relations_do(get_space, get_table):
    # the table criterion against the independent relation-level validator
    fusions = tried = 0
    for n in (2, 3, 4):
        rank = scheme_rank(n, 2)
        conj = [conjugate_index(l, n, 2) for l in range(rank)]
        M = relation_matrix(get_space(n, 2))
        for blocks in closed_partitions(rank, conj):
            tried += 1
            try:
                fused = fuse(get_table(n), conj, blocks)
            except FusionError:
                fused = None
            try:
                _, valencies, _, _ = scheme_from_relation_matrix(fuse_relation_matrix(M, blocks))
            except ValueError:
                valencies = None
            assert (fused is None) == (valencies is None), blocks
            if fused is not None:
                fusions += 1
                assert fused.table.valencies == valencies
                assert verify_orthogonality(fused.table) == (True, None)
    assert (tried, fusions) == (55, 22)


def test_relation_level_fusion_needs_every_label(get_space):
    M = relation_matrix(get_space(2, 2))
    with pytest.raises(ValueError, match="^relation 3 lies in no block$"):
        fuse_relation_matrix(M, [(0,), (1, 2)])


@pytest.mark.parametrize("M,blocks,message", [
    ([[0, -1], [1, 0]], ((0,), (1,)), "^relation labels must be non-negative, not -1$"),
    ([[0, 1], [1, 0]], ((0, 1), (1,)), "^relation 1 lies in blocks 0 and 1$"),
    (np.zeros((0, 0), dtype=np.int64), ((0,),), "^relation matrix is empty$"),
    ([[0.0, 1.0], [1.0, 0.0]], ((0,), (1,)), "^relation labels must be integers$"),
    ([[0, 1], [1, 0]], ((0,), (5,), (1,)), r"^relation 5 is not a label of the matrix, 0\.\.1$"),
    ([[0, 1], [1, 0]], [["a"], [1]], "^block 0 entry must be an integer, not 'a'$"),
    ([[0, 1], [1, 0]], ((0,), (1.0,)), "^block 1 entry must be an integer, not 1.0$"),
    ([[0, 1], [1, 0]], ((0,), (True,)), "^block 1 entry must be an integer, not True$"),
], ids=["negative", "two-blocks", "empty", "float", "beyond-labels", "string-entry",
        "float-entry", "bool-entry"])
def test_relation_level_fusion_rejects_bad_input(M, blocks, message):
    with pytest.raises(ValueError, match=message):
        fuse_relation_matrix(np.array(M), blocks)

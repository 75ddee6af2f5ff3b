"""Acceptance suite: one test per criterion, every check exact (tolerance
zero), with the stated runtime budgets asserted where given.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion."""

import random
import time

import numpy as np

from unitary_schemes.chartable import (
    closed_multiplicity_formulas,
    minimal_polynomial_annihilates,
    reconstruct_intersection,
    second_eigenmatrix,
    verify_homomorphism,
    verify_orthogonality,
)
from unitary_schemes.fusion import canonical_fusions, coarse_partition, fuse
from unitary_schemes.scheme import (
    build_descriptor,
    classify_pair,
    fuse_relation_matrix,
    intersection_matrices,
    is_commutative,
    relation_matrix,
    scheme_from_relation_matrix,
    scheme_rank,
    verify_relation_matrix,
)
from unitary_schemes.serialize import parse_relation_matrix, render_relation_matrix
from unitary_schemes.space import enumerate_isotropic, isotropic_count, witness_pair

from _reference import W, WB, zw, zw_rows


def report(number, name, passed):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {name}")
    assert passed, f"criterion {number}: {name}"


COUNT_GRID = {
    (2, 2): 9, (3, 2): 27, (4, 2): 135, (5, 2): 495, (6, 2): 2079,
    (2, 3): 32, (3, 3): 224, (4, 3): 2240,
}


def test_criterion_01_counting():
    start = time.monotonic()
    ok = True
    for (n, q), expected in COUNT_GRID.items():
        ok &= isotropic_count(n, q) == expected
        ok &= enumerate_isotropic(n, q).size == expected
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(1, f"counting matches enumeration on the full grid ({elapsed:.2f}s)", ok)


RANKS = {(2, 2): 6, (3, 2): 6, (4, 2): 7, (5, 2): 7, (6, 2): 7,
         (2, 3): 16, (3, 3): 16, (4, 3): 17}


def test_criterion_02_rank(get_space):
    ok = True
    for (n, q), rank in RANKS.items():
        ok &= scheme_rank(n, q) == rank
        us = get_space(n, q)
        if us.size**2 <= 5_000_000:
            labels = np.unique(relation_matrix(us))
            ok &= labels.size == rank and labels.min() == 0 and labels.max() == rank - 1
        else:
            # witness non-emptiness: all classes realised and correctly labelled
            for l in range(rank):
                x, y = witness_pair(l, n, q)
                ok &= classify_pair(us, x, y).index == l
            rng = random.Random(0)
            for _ in range(20_000):
                a = rng.randrange(us.size)
                b = rng.randrange(us.size)
                label = classify_pair(us, us.point(a), us.point(b))
                ok &= 0 <= label.index < rank
    report(2, "ranks 6/7/16/17 via exhaustive classification or witnesses", ok)


ORACLE_GRID = [(n, q) for q in (2, 3) for n in (2, 3, 4, 5) if (n, q) != (5, 3)]


def test_criterion_03_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for n, q in ORACLE_GRID:
        sd = build_descriptor(n, q, mode="both")  # raises on any mismatch
        ok &= sd.mode == "both"
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    report(3, f"closed formulas equal brute force on the grid ({elapsed:.2f}s)", ok)


def test_criterion_04_valencies(get_descriptor):
    expected = {
        (2, 2): (1, 1, 1, 2, 2, 2),
        (3, 2): (1, 1, 1, 8, 8, 8),
        (4, 2): (1, 1, 1, 32, 32, 32, 36),
        (5, 2): (1, 1, 1, 128, 128, 128, 108),
    }
    ok = all(get_descriptor(n, q).valencies == v for (n, q), v in expected.items())
    report(4, "valencies at (2,2), (3,2), (4,2), (5,2)", ok)


def test_criterion_05_commutativity(get_descriptor):
    ok = True
    for n in (2, 3, 4, 5, 6):
        ok &= is_commutative(get_descriptor(n, 2))[0]
    for n in (2, 3, 4):
        sd = get_descriptor(n, 3)
        commutative, _ = is_commutative(sd)
        ok &= not commutative
        ok &= sd.p(3, 8, 9) == 3 ** (2 * n - 3) and sd.p(3, 9, 8) == 0
    ok &= get_descriptor(4, 3).p(3, 8, 9) == 243
    report(5, "commutative iff q=2; witness (3,8,9) gives (243, 0) at n=4", ok)


def displayed_intersection_matrices(n):
    """The seven matrices for q=2 as printed, as functions of n."""
    s = 2 ** (2 * n - 5) - (-2) ** (n - 3) - 1
    A = 2 ** (2 * n - 3)
    B = 2 ** (2 * n - 5)
    u = s - (-2) ** (n - 2) + 1
    b0 = [[int(i == j) for j in range(7)] for i in range(7)]
    b1 = [[0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 0, 0, 1]]
    b2 = [[0, 0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 1]]
    b3 = [[0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0],
          [A, 0, 0, s + 1, u, u, B], [0, 0, A, u, s + 1, u, B],
          [0, A, 0, u, u, s + 1, B], [0, 0, 0, s, s, s, B]]
    b4 = [[0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0],
          [0, 0, A, u, s + 1, u, B], [0, A, 0, u, u, s + 1, B],
          [A, 0, 0, s + 1, u, u, B], [0, 0, 0, s, s, s, B]]
    b5 = [[0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0, 0],
          [0, A, 0, u, u, s + 1, B], [A, 0, 0, s + 1, u, u, B],
          [0, 0, A, u, s + 1, u, B], [0, 0, 0, s, s, s, B]]
    b6 = [[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1],
          [0, 0, 0, s, s, s, B], [0, 0, 0, s, s, s, B], [0, 0, 0, s, s, s, B],
          [4 * s, 4 * s, 4 * s, s, s, s, 2 ** (2 * n - 5) - (-2) ** (n - 1) - 7]]
    return [b0, b1, b2, b3, b4, b5, b6]


def test_criterion_06_intersection_matrices(get_descriptor):
    ok = True
    for n in (4, 5, 6):
        sd = get_descriptor(n, 2)
        ok &= sd.sub_count == 2 ** (2 * n - 5) - (-2) ** (n - 3) - 1
        mats = intersection_matrices(sd)
        ok &= mats == displayed_intersection_matrices(n)
        arrays = [np.array(m, dtype=object) for m in mats]
        for i in range(7):
            for j in range(7):
                lhs = arrays[i] @ arrays[j]
                rhs = sum(sd.tensor[h][i][j] * arrays[h] for h in range(7))
                ok &= bool((lhs == rhs).all())
    report(6, "intersection matrices match the displayed forms for n=4,5,6", ok)


def table_rows(ct):
    """The entries of ``ct`` as nested lists of integer pairs (A, B) of A + B w."""
    return [[ct.entry(i, j) for j in range(ct.size)] for i in range(ct.size)]


def frozen_table(n):
    if n == 2:
        rows = [[1, 1, 1, 2, 2, 2], [1, W, WB, 2, zw(2, WB), zw(2, W)],
                [1, WB, W, 2, zw(2, W), zw(2, WB)], [1, 1, 1, -1, -1, -1],
                [1, W, WB, -1, zw(-1, WB), zw(-1, W)], [1, WB, W, -1, zw(-1, W), zw(-1, WB)]]
        mult = (1, 1, 1, 2, 2, 2)
    elif n == 3:
        rows = [[1, 1, 1, 8, 8, 8], [1, W, WB, -4, zw(-4, WB), zw(-4, W)],
                [1, WB, W, -4, zw(-4, W), zw(-4, WB)], [1, 1, 1, -1, -1, -1],
                [1, W, WB, 2, zw(2, WB), zw(2, W)], [1, WB, W, 2, zw(2, W), zw(2, WB)]]
        mult = (1, 3, 3, 8, 6, 6)
    else:
        big = 2 ** (2 * n - 3)
        e1, e3, e6 = -((-2) ** (n - 1)), -((-2) ** (n - 2)), -((-2) ** (n - 3))
        rows = [[1, 1, 1, big, big, big, big - (-2) ** (n - 1) - 4],
                [1, W, WB, e1, zw(e1, WB), zw(e1, W), 0],
                [1, WB, W, e1, zw(e1, W), zw(e1, WB), 0],
                [1, 1, 1, e3, e3, e3, 3 * (-2) ** (n - 2) - 3],
                [1, W, WB, e3, zw(e3, WB), zw(e3, W), 0],
                [1, WB, W, e3, zw(e3, W), zw(e3, WB), 0],
                [1, 1, 1, e6, e6, e6, 3 * (-2) ** (n - 3) - 3]]
        mult = closed_multiplicity_formulas(n)
    return zw_rows(rows), mult


def test_criterion_07_character_tables(get_table):
    ok = True
    for n in (2, 3, 4, 5, 6):
        ct = get_table(n)
        entries, mult = frozen_table(n)
        ok &= table_rows(ct) == entries
        ok &= ct.multiplicities == mult
        ok &= sum(ct.multiplicities) == isotropic_count(n, 2)
        ok &= all(m > 0 for m in ct.multiplicities)
    ok &= get_table(4).multiplicities == (1, 15, 15, 20, 30, 30, 24)
    report(7, "character tables and multiplicities for n=2..6", ok)


def test_criterion_08_identity_suite(get_table, get_descriptor):
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4, 5, 6):
        ct = get_table(n)
        sd = get_descriptor(n, 2)
        ok &= verify_orthogonality(ct)[0]
        ok &= verify_homomorphism(ct, sd)[0]
        ok &= all(
            reconstruct_intersection(ct, h, i, j) == sd.tensor[h][i][j]
            for h in range(sd.rank) for i in range(sd.rank) for j in range(sd.rank)
        )
        second_eigenmatrix(ct)  # raises unless P Q = Q P = order * I
        ok &= minimal_polynomial_annihilates(ct, intersection_matrices(sd))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(8, f"orthogonality/homomorphism/reconstruction/PQ/minpoly ({elapsed:.2f}s)", ok)


def fused_expectations(n, kind):
    """Printed fusion tables, stated per dual block and assembled here in the
    canonical order (dual blocks sorted by smallest row index)."""
    s = (-1) ** n
    if kind == "symmetrize":
        if n == 2:
            return ([[1, 2, 2, 4], [1, -1, 2, -2], [1, 2, -1, -2], [1, -1, -1, 1]],
                    (1, 2, 2, 4))
        if n == 3:
            return ([[1, 2, 8, 16], [1, -1, -4, 4], [1, 2, -1, -2], [1, -1, 2, -2]],
                    (1, 6, 8, 12))
        a, b, c = (-2) ** (n - 1), (-2) ** (n - 2), (-2) ** (n - 3)
        rows = [[1, 2, 2 ** (2 * n - 3), 2 ** (2 * n - 2), 2 ** (2 * n - 3) - a - 4],
                [1, -1, -a, a, 0],
                [1, 2, -b, a, 3 * b - 3],
                [1, -1, -b, b, 0],
                [1, 2, -c, b, 3 * c - 3]]
        mult = (1,
                (2 ** (2 * n) + (-2) ** n - 2) // 9,
                4 * (2**n - s) * (2 ** (n - 3) + s) // 9,
                (2 ** (2 * n + 1) + 2 * (-2) ** n - 4) // 9,
                8 * (2 ** (n - 1) + s) * (2 ** (n - 2) - s) // 9)
        return rows, mult
    if n == 2:
        return [[1, 2, 6], [1, -1, 0], [1, 2, -3]], (1, 6, 2)
    if n == 3:
        return [[1, 2, 24], [1, -1, 0], [1, 2, -3]], (1, 18, 8)
    b, c = (-2) ** (n - 2), (-2) ** (n - 3)
    rows = [[1, 2, 3 * 2 ** (2 * n - 3), 2 ** (2 * n - 3) - (-2) ** (n - 1) - 4],
            [1, -1, 0, 0],
            [1, 2, -3 * b, 3 * b - 3],
            [1, 2, -3 * c, 3 * c - 3]]
    mult = (1,
            (2 ** (2 * n) + (-2) ** n - 2) // 3,
            4 * (2**n - s) * (2 ** (n - 3) + s) // 9,
            8 * (2 ** (n - 1) + s) * (2 ** (n - 2) - s) // 9)
    return rows, mult


def test_criterion_09_fusion(get_space, get_table, get_descriptor):
    ok = True
    for n in (2, 3):
        for kind, blocks in canonical_fusions(n):
            fused = fuse(get_table(n), get_descriptor(n, 2), blocks)
            rows, mult = fused_expectations(n, kind)
            ok &= table_rows(fused.table) == zw_rows(rows)
            ok &= fused.table.multiplicities == mult
    for n in (4, 5, 6):
        for kind, blocks in canonical_fusions(n):
            fused = fuse(get_table(n), get_descriptor(n, 2), blocks)
            rows, mult = fused_expectations(n, kind)
            ok &= table_rows(fused.table) == zw_rows(rows)
            ok &= fused.table.multiplicities == mult
    fused = fuse(get_table(4), get_descriptor(4, 2), coarse_partition(4))
    ok &= fused.table.multiplicities[1] == 90
    # relation-level fusion agrees with the table-level fusion
    for n in (2, 3, 4):
        us = get_space(n, 2)
        M = relation_matrix(us)
        for kind, blocks in canonical_fusions(n):
            fused = fuse(get_table(n), get_descriptor(n, 2), blocks)
            rank, valencies, _, tensor = scheme_from_relation_matrix(
                fuse_relation_matrix(M, blocks))
            ok &= valencies == fused.table.valencies
            ok &= all(
                reconstruct_intersection(fused.table, h, i, j) == tensor[h][i][j]
                for h in range(rank) for i in range(rank) for j in range(rank)
            )
    report(9, "printed fusion tables and relation-level agreement", ok)


def test_criterion_10_roundtrip(get_space, get_descriptor):
    ok = True
    for n in (2, 3, 4, 5):
        us = get_space(n, 2)
        sd = get_descriptor(n, 2)
        text = render_relation_matrix(relation_matrix(us), sd.rank)
        again = render_relation_matrix(relation_matrix(enumerate_isotropic(n, 2)), sd.rank)
        ok &= text == again  # byte-stable across runs
        matrix, rank = parse_relation_matrix(text)
        ok &= rank == sd.rank
        rep = verify_relation_matrix(matrix, sd=sd)
        ok &= rep.passed
    report(10, "relation-matrix export re-imports and passes the axioms", ok)

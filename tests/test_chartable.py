from fractions import Fraction

import pytest

from unitary_schemes.chartable import (
    CharTable,
    char_table_closed,
    closed_multiplicity_formulas,
    idempotents,
    minimal_polynomial_annihilates,
    multiplicities,
    reconstruct_intersection,
    second_eigenmatrix,
    verify_homomorphism,
    verify_orthogonality,
    verify_reconstruction,
)
from unitary_schemes.eisenstein import OMEGA, Eisenstein
from unitary_schemes.scheme import build_adjacency_matrices, intersection_matrices

from _reference import RefField, isotropic_vectors, tensor as reference_tensor

W = OMEGA
WB = OMEGA.conj()


def E(x):
    return x if isinstance(x, Eisenstein) else Eisenstein(x)


def test_rejects_dimension_below_2():
    with pytest.raises(ValueError):
        char_table_closed(1)


def test_table_n2_verbatim(get_table):
    ct = get_table(2)
    expected = [
        [1, 1, 1, 2, 2, 2],
        [1, W, WB, 2, 2 * WB, 2 * W],
        [1, WB, W, 2, 2 * W, 2 * WB],
        [1, 1, 1, -1, -1, -1],
        [1, W, WB, -1, -WB, -W],
        [1, WB, W, -1, -W, -WB],
    ]
    assert [list(r) for r in ct.entries] == [[E(x) for x in r] for r in expected]
    assert ct.entries[3][3] == -1
    assert ct.multiplicities == (1, 1, 1, 2, 2, 2)
    assert ct.order == 9


def test_table_n3_verbatim(get_table):
    ct = get_table(3)
    expected = [
        [1, 1, 1, 8, 8, 8],
        [1, W, WB, -4, -4 * WB, -4 * W],
        [1, WB, W, -4, -4 * W, -4 * WB],
        [1, 1, 1, -1, -1, -1],
        [1, W, WB, 2, 2 * WB, 2 * W],
        [1, WB, W, 2, 2 * W, 2 * WB],
    ]
    assert [list(r) for r in ct.entries] == [[E(x) for x in r] for r in expected]
    assert ct.entries[1][3] == -4
    assert ct.multiplicities == (1, 3, 3, 8, 6, 6)
    assert ct.order == 27


def test_table_n4_entries(get_table):
    ct = get_table(4)
    assert ct.entries[0][6] == 36
    assert ct.entries[1][3] == 8        # -(-2)^3
    assert ct.entries[1][4] == 8 * WB
    assert ct.entries[3][6] == 9        # 3*(-2)^2 - 3
    assert ct.entries[6][6] == -9
    assert ct.valencies == (1, 1, 1, 32, 32, 32, 36)
    assert ct.multiplicities == (1, 15, 15, 20, 30, 30, 24)


@pytest.mark.parametrize("n", range(4, 9))
def test_multiplicities_match_closed_formulas(n, get_table):
    ct = get_table(n)
    assert ct.multiplicities == closed_multiplicity_formulas(n)
    assert sum(ct.multiplicities) == ct.order
    assert ct.multiplicities[0] == 1


def tampered(ct, rows=None, multiplicities=None):
    """``ct`` with its rows and/or multiplicities replaced."""
    rows = ct.entries if rows is None else tuple(tuple(r) for r in rows)
    return CharTable(entries=rows, multiplicities=multiplicities or ct.multiplicities,
                     valencies=ct.valencies, order=ct.order)


def with_entry(ct, i, j, value):
    rows = [list(r) for r in ct.entries]
    rows[i][j] = value
    return tampered(ct, rows)


def test_multiplicity_failure_on_wrong_table(get_table):
    ct = get_table(2)
    broken = tuple(tuple(2 * x for x in row) for row in ct.entries)
    with pytest.raises(ArithmeticError, match="^multiplicity of row 0 is 1/4, not"):
        multiplicities(broken, ct.valencies, ct.order)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orthogonality(n, get_table):
    ok, witness = verify_orthogonality(get_table(n))
    assert ok, witness


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_row_structure(n, get_table):
    ct = get_table(n)
    assert all(x == 1 for x in (row[0] for row in ct.entries))
    assert ct.entries[0] == tuple(Eisenstein(k) for k in ct.valencies)
    for row in ct.entries[1:]:
        assert sum(row, Eisenstein(0)) == 0


def test_orthogonality_detects_row_multiplicity_mismatch(get_table):
    # swapping two rows of unequal multiplicity against the original
    # assignment must break the relations
    ct = get_table(4)
    rows = list(ct.entries)
    rows[1], rows[3] = rows[3], rows[1]
    assert verify_orthogonality(tampered(ct, rows)) == (False, ("rows", 1, 1))


@pytest.mark.parametrize("n", [2, 4])
def test_identities_on_non_integral_table(n, get_table, get_descriptor):
    # entries outside Z[w] are cleared by their common denominator, with the
    # same verdicts and witnesses as exact rational arithmetic gives
    ct = with_entry(get_table(n), 1, 1, OMEGA / 2)
    assert verify_orthogonality(ct) == (False, ("rows", 0, 1))
    assert verify_homomorphism(ct, get_descriptor(n, 2, "closed")) == (False, (1, 1, 1))
    with pytest.raises(ArithmeticError, match="^multiplicity of row 1 is "):
        multiplicities(ct.entries, ct.valencies, ct.order)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_homomorphism(n, get_table, get_descriptor):
    ok, witness = verify_homomorphism(get_table(n), get_descriptor(n, 2))
    assert ok, witness


@pytest.mark.parametrize("n", [2, 4, 6])
def test_homomorphism_witness_on_changed_entry(n, get_table, get_descriptor):
    ct = get_table(n)
    changed = with_entry(ct, 2, 4, ct.entries[2][4] + 1)
    assert verify_homomorphism(changed, get_descriptor(n, 2, "closed")) == (False, (2, 1, 4))


def test_homomorphism_row0_is_counting_identity(get_table, get_descriptor):
    ct = get_table(4)
    sd = get_descriptor(4, 2)
    for i in range(7):
        for j in range(7):
            assert ct.valencies[i] * ct.valencies[j] == sum(
                sd.tensor[l][i][j] * ct.valencies[l] for l in range(7)
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reconstruction_full(n, get_table, get_descriptor):
    ct = get_table(n)
    sd = get_descriptor(n, 2)
    for h in range(ct.size):
        for i in range(ct.size):
            for j in range(ct.size):
                assert reconstruct_intersection(ct, h, i, j) == sd.tensor[h][i][j]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reconstruction_array_matches_scalar(n, get_table, get_descriptor):
    ct = get_table(n)
    sd = get_descriptor(n, 2, "closed")
    assert verify_reconstruction(ct, sd) == (True, None)
    assert all(reconstruct_intersection(ct, h, i, j) == sd.p(h, i, j)
               for h in range(ct.size) for i in range(ct.size) for j in range(ct.size))
    # on a tampered table the array names the scalar form's first failure
    # (a wrong rational, or a w part where the scalar form raises)
    changed = with_entry(ct, 2, 4, ct.entries[2][4] + 1)

    def scalar_fails(h, i, j):
        try:
            return reconstruct_intersection(changed, h, i, j) != sd.p(h, i, j)
        except ValueError:
            return True

    first = next((h, i, j) for h in range(ct.size) for i in range(ct.size)
                 for j in range(ct.size) if scalar_fails(h, i, j))
    assert verify_reconstruction(changed, sd) == (False, first)


def test_reconstruction_examples(get_table, get_descriptor):
    ct = get_table(4)
    sd = get_descriptor(4, 2)
    for i in range(7):
        assert reconstruct_intersection(ct, 0, i, sd.conj_map[i]) == sd.valencies[i]
    assert reconstruct_intersection(ct, 6, 6, 6) == 9


def test_reconstruction_against_independent_oracle(get_table):
    ref = RefField(2)
    vectors = isotropic_vectors(ref, 2)
    expected = reference_tensor(ref, vectors, 6)
    ct = get_table(2)
    for h in range(6):
        for i in range(6):
            for j in range(6):
                assert reconstruct_intersection(ct, h, i, j) == expected[h][i][j]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_second_eigenmatrix(n, get_table):
    ct = get_table(n)
    q_matrix = second_eigenmatrix(ct)  # raises if P Q != order I
    for i in range(ct.size):
        assert q_matrix[i][0] == 1


@pytest.mark.parametrize("n", [2, 4])
def test_second_eigenmatrix_rejects_tampered_table(n, get_table):
    ct = get_table(n)
    doubled = tampered(ct, [[2 * x for x in row] for row in ct.entries])
    rows = list(ct.entries)
    rows[1], rows[3] = rows[3], rows[1]
    for table in (doubled, tampered(ct, rows), with_entry(ct, 2, 4, ct.entries[2][4] + 1)):
        with pytest.raises(AssertionError, match="^P Q = Q P = order \\* I fails$"):
            second_eigenmatrix(table)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_minimal_polynomials(n, get_table, get_descriptor):
    ct = get_table(n)
    mats = intersection_matrices(get_descriptor(n, 2))
    assert minimal_polynomial_annihilates(ct, mats)


def test_minimal_polynomials_detect_missing_eigenvalue(get_table, get_descriptor):
    # dropping a genuine eigenvalue from a column leaves its factor out of
    # the product, which then cannot vanish
    ct = get_table(2)
    rows = [list(r) for r in ct.entries]
    for i in (3, 4, 5):
        rows[i][3] = Eisenstein(2)
    tampered = CharTable(entries=tuple(tuple(r) for r in rows),
                         multiplicities=ct.multiplicities,
                         valencies=ct.valencies, order=ct.order)
    mats = intersection_matrices(get_descriptor(2, 2))
    assert not minimal_polynomial_annihilates(tampered, mats)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_eigenvalue_bound(n, get_table):
    ct = get_table(n)
    for row in ct.entries:
        for x, k in zip(row, ct.valencies):
            assert x.abs_square() <= Fraction(k * k)


@pytest.mark.parametrize("n", [2, 3])
def test_idempotents(n, get_table, get_space, get_descriptor):
    ct = get_table(n)
    adj = build_adjacency_matrices(get_space(n, 2), get_descriptor(n, 2))
    ems = idempotents(ct, adj)  # raises unless idempotent with trace m_i
    assert len(ems) == 6


def test_idempotents_mutually_orthogonal(get_table, get_space, get_descriptor):
    # E_i E_j = 0 as a product of Z[w] integer matrices (denominators cleared)
    from unitary_schemes.chartable import _differs, _matmul, _pair

    ct = get_table(2)
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    ems = [_pair(e)[0] for e in idempotents(ct, adj)]
    for i in range(6):
        for j in range(6):
            product = _matmul(ems[i], ems[j])
            assert _differs(product, 0).any() == (i == j)


def test_idempotents_reject_tampered_input(get_table, get_space, get_descriptor):
    ct = get_table(2)
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    doubled = tampered(ct, [[2 * x for x in row] for row in ct.entries])
    with pytest.raises(AssertionError, match="^P Q = Q P = order \\* I fails$"):
        idempotents(doubled, adj)
    swapped = [adj[0], adj[3], adj[2], adj[1]] + adj[4:]
    with pytest.raises(AssertionError, match="^E_1 is not idempotent$"):
        idempotents(ct, swapped)


def test_idempotents_budget(get_table):
    with pytest.raises(ValueError, match="^135 points exceed the idempotents budget of 27$"):
        idempotents(get_table(4), [])

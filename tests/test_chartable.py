import math
import random
from fractions import Fraction

import numpy as np
import pytest

from unitary_schemes import build_descriptor, cli
from unitary_schemes.chartable import (
    CharTable,
    _matmul,
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
from unitary_schemes.serialize import (
    chartable_from_document,
    document_from_chartable,
    parse_document,
    render_document,
)

import _reference as ref
from _reference import RefField, isotropic_vectors, tensor as reference_tensor

W = OMEGA
WB = OMEGA.conj()


def E(x):
    return x if isinstance(x, Eisenstein) else Eisenstein(x)


def rows(ct):
    """The entries of ``ct`` as nested lists of Eisenstein values."""
    return [[ct.entry(i, j) for j in range(ct.size)] for i in range(ct.size)]


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
    assert rows(ct) == [[E(x) for x in r] for r in expected]
    assert ct.entry(3, 3) == -1
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
    assert rows(ct) == [[E(x) for x in r] for r in expected]
    assert ct.entry(1, 3) == -4
    assert ct.multiplicities == (1, 3, 3, 8, 6, 6)
    assert ct.order == 27


def test_table_n4_entries(get_table):
    ct = get_table(4)
    assert ct.entry(0, 6) == 36
    assert ct.entry(1, 3) == 8          # -(-2)^3
    assert ct.entry(1, 4) == 8 * WB
    assert ct.entry(3, 6) == 9          # 3*(-2)^2 - 3
    assert ct.entry(6, 6) == -9
    assert ct.valencies == (1, 1, 1, 32, 32, 32, 36)
    assert ct.multiplicities == (1, 15, 15, 20, 30, 30, 24)


@pytest.mark.parametrize("n", range(4, 9))
def test_multiplicities_match_closed_formulas(n, get_table):
    ct = get_table(n)
    assert ct.multiplicities == closed_multiplicity_formulas(n)
    assert sum(ct.multiplicities) == ct.order
    assert ct.multiplicities[0] == 1


def tampered(ct, p):
    """``ct`` with P replaced by the (2, r, r) array ``p``."""
    return CharTable(p=p, multiplicities=ct.multiplicities,
                     valencies=ct.valencies, order=ct.order)


def with_entry(ct, i, j, value):
    """``ct`` with P[i][j] replaced by the Z[w] value ``value``."""
    p = ct.p.copy()
    p[:, i, j] = int(value.a), int(value.b)
    return tampered(ct, p)


def swapped_rows(ct, i, j):
    order = list(range(ct.size))
    order[i], order[j] = j, i
    return tampered(ct, ct.p[:, order])


def test_multiplicity_failure_on_wrong_table(get_table):
    ct = get_table(2)
    with pytest.raises(ArithmeticError, match="^multiplicity of row 0 is 1/4, not"):
        multiplicities(2 * ct.p, ct.valencies, ct.order)
    with pytest.raises(ArithmeticError, match="^multiplicity of row 0 is 0, not"):
        multiplicities(ct.p, ct.valencies, 0)


def test_multiplicity_of_a_zero_row_is_its_own_failure(get_table):
    ct = get_table(2)
    p = ct.p.copy()
    p[:, 5] = 0
    with pytest.raises(ArithmeticError, match="^multiplicity of row 5 is undefined: the row is zero$"):
        multiplicities(p, ct.valencies, ct.order)


def test_table_holds_integer_parts_read_only(get_table):
    ct = get_table(3)
    assert ct.p.shape == (2, 6, 6) and ct.p.dtype == object
    assert all(type(x) is int for x in ct.p.flat)
    with pytest.raises(ValueError):
        ct.p[0, 0, 0] = 2
    # the table keeps a private copy of the array it is given
    p = ct.p.copy()
    table = tampered(ct, p)
    p[0, 1, 1] = 7
    assert table.entry(1, 1) == OMEGA
    assert verify_orthogonality(table) == (True, None)


@pytest.mark.parametrize("bad", [
    [[[Fraction(1, 2)]], [[0]]],
    [[[0.5]], [[0]]],
    [[[OMEGA]], [[0]]],
    [[[1, 1]], [[0, 0]]],
    [[1]],
], ids=["fraction", "float", "eisenstein", "not-square", "one-part"])
def test_table_refuses_anything_but_integer_parts(bad):
    with pytest.raises(ValueError, match="^P must be a \\(2, r, r\\) array of integers"):
        CharTable(p=bad, multiplicities=(1,), valencies=(1,), order=1)


def test_table_beyond_int64():
    ct = char_table_closed(40)
    assert ct.entry(0, 3) == 2**77
    assert type(ct.p[0, 0, 3]) is int and ct.p[0, 0, 3] == 2**77
    assert ct.multiplicities == closed_multiplicity_formulas(40)
    assert max(ct.multiplicities) > 2**63
    assert verify_orthogonality(ct) == (True, None)
    second_eigenmatrix(ct)  # raises unless P Q = Q P = order * I
    assert cli.main(["chartable", "--n", "40"]) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orthogonality(n, get_table):
    ok, witness = verify_orthogonality(get_table(n))
    assert ok, witness


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_row_structure(n, get_table):
    ct = get_table(n)
    assert all(row[0] == 1 for row in rows(ct))
    assert rows(ct)[0] == [Eisenstein(k) for k in ct.valencies]
    for row in rows(ct)[1:]:
        assert sum(row, Eisenstein(0)) == 0


def test_orthogonality_detects_row_multiplicity_mismatch(get_table):
    # swapping two rows of unequal multiplicity against the original
    # assignment must break the relations
    ct = get_table(4)
    assert verify_orthogonality(swapped_rows(ct, 1, 3)) == (False, ("rows", 1, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_homomorphism(n, get_table, get_descriptor):
    ok, witness = verify_homomorphism(get_table(n), get_descriptor(n, 2))
    assert ok, witness


@pytest.mark.parametrize("n", [2, 4, 6])
def test_homomorphism_witness_on_changed_entry(n, get_table, get_descriptor):
    ct = get_table(n)
    changed = with_entry(ct, 2, 4, ct.entry(2, 4) + 1)
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
    changed = with_entry(ct, 2, 4, ct.entry(2, 4) + 1)

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
    lq, lcm = second_eigenmatrix(ct)  # raises if P Q != order I
    assert lcm == math.lcm(*ct.valencies)
    assert lq.shape == (2, ct.size, ct.size)
    assert (lq[0][:, 0] == lcm).all() and (lq[1][:, 0] == 0).all()  # Q[i][0] = 1
    assert (lq[0][0] == lcm * np.array(ct.multiplicities)).all()  # Q[0][j] = m_j


@pytest.mark.parametrize("n", [2, 4])
def test_second_eigenmatrix_rejects_tampered_table(n, get_table):
    ct = get_table(n)
    doubled = tampered(ct, 2 * ct.p)
    for table in (doubled, swapped_rows(ct, 1, 3), with_entry(ct, 2, 4, ct.entry(2, 4) + 1)):
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
    p = ct.p.copy()
    p[:, 3:6, 3] = [[2], [0]]
    mats = intersection_matrices(get_descriptor(2, 2))
    assert not minimal_polynomial_annihilates(tampered(ct, p), mats)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_eigenvalue_bound(n, get_table):
    ct = get_table(n)
    for row in rows(ct):
        for x, k in zip(row, ct.valencies):
            assert x.abs_square() <= k * k


@pytest.mark.parametrize("n", [2, 3])
def test_idempotents(n, get_table, get_space, get_descriptor):
    ct = get_table(n)
    adj = build_adjacency_matrices(get_space(n, 2), get_descriptor(n, 2))
    ems = idempotents(ct, adj)  # raises unless idempotent with trace m_i
    assert len(ems) == 6


def test_idempotents_mutually_orthogonal(get_table, get_space, get_descriptor):
    # E_i E_j = 0 as a product of Z[w] integer matrices (denominators cleared)
    from unitary_schemes.chartable import _differs, _matmul

    ct = get_table(2)
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    values = idempotents(ct, adj)
    d = math.lcm(*(f.denominator for e in values for row in e for x in row for f in (x.a, x.b)))
    ems = [np.array([[[int(getattr(x, part) * d) for x in row] for row in e] for part in "ab"],
                    dtype=object) for e in values]
    for i in range(6):
        for j in range(6):
            product = _matmul(ems[i], ems[j])
            assert _differs(product, 0).any() == (i == j)


def test_idempotents_reject_tampered_input(get_table, get_space, get_descriptor):
    ct = get_table(2)
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    doubled = tampered(ct, 2 * ct.p)
    with pytest.raises(AssertionError, match="^P Q = Q P = order \\* I fails$"):
        idempotents(doubled, adj)
    swapped = [adj[0], adj[3], adj[2], adj[1]] + adj[4:]
    with pytest.raises(AssertionError, match="^E_1 is not idempotent$"):
        idempotents(ct, swapped)


def test_idempotents_budget(get_table):
    with pytest.raises(ValueError, match="^135 points exceed the idempotents budget of 27$"):
        idempotents(get_table(4), [])


def test_chartable_paths_construct_no_fraction(monkeypatch, tmp_path):
    # P, its identities, the printer and the document writer and reader all
    # run on integer parts; Fraction is left to Eisenstein values
    text = render_document(document_from_chartable(char_table_closed(6), 6))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    runs = [["verify", "--n", "4", "--q", "2", "--mode", mode]
            for mode in ("both", "closed", "bruteforce")]
    runs += [["chartable", "--n", "6", "--fusion", "coarse", "--format", fmt,
              "--out", str(tmp_path / fmt)] for fmt in ("doc", "csv")]
    runs += [["export", "--n", "3", "--q", "2"]]
    for argv in runs:
        assert cli.main(argv) == 0, argv
        assert not made, argv
    table = chartable_from_document(parse_document(text))
    assert not made
    assert verify_orthogonality(table) == (True, None)
    Fraction(1, 2)
    assert made == [(1, 2)]  # the count sees a construction


# ---------------------------------------------------------------------------
# the batched Z[w] products against the one-product-at-a-time forms of
# ``_reference``


def outcome(f, *args):
    """``("ok", value)`` or the type and message of the error ``f`` raises."""
    try:
        return "ok", f(*args)
    except (AssertionError, ValueError) as error:
        return type(error).__name__, str(error)


def test_matmul_three_products_equal_four():
    rng = random.Random(18)
    for k, r, bits in [(1, 1, 3), (3, 4, 8), (2, 7, 70), (4, 5, 130)]:
        x, y = (np.array([rng.randrange(-2**bits, 2**bits) for _ in range(2 * k * r * r)],
                         dtype=object).reshape(2, k, r, r) for _ in range(2))
        product = _matmul(x, y)
        assert product.shape == (2, k, r, r)
        assert (product == ref.zw_matmul(x, y)).all()
        assert all(type(v) is int for v in product.flat)
    assert max(abs(v) for v in product.flat) > 2**64


@pytest.mark.parametrize("n", [*range(2, 13), 31])
def test_minimal_polynomials_match_sequential_products(n, get_table, get_descriptor):
    ct = get_table(n)
    mats = intersection_matrices(get_descriptor(n, 2, "closed"))
    assert minimal_polynomial_annihilates(ct, mats) is True
    assert ref.minimal_polynomial_annihilates(ct, mats) is True


@pytest.mark.parametrize("n", [2, 4, 12])
def test_minimal_polynomials_match_on_changed_matrices(n, get_table, get_descriptor):
    # one entry of one B_j raised by 1, at every entry of every B_j
    ct = get_table(n)
    mats = intersection_matrices(get_descriptor(n, 2, "closed"))
    for j in range(ct.size):
        for h in range(ct.size):
            for i in range(ct.size):
                changed = [[list(row) for row in b] for b in mats]
                changed[j][h][i] += 1
                result = minimal_polynomial_annihilates(ct, changed)
                assert result == ref.minimal_polynomial_annihilates(ct, changed)
                assert not result, (j, h, i)


@pytest.mark.parametrize("n", [2, 4])
def test_minimal_polynomials_match_on_tampered_tables(n, get_table, get_descriptor):
    ct = get_table(n)
    mats = intersection_matrices(get_descriptor(n, 2))
    p = ct.p.copy()
    p[:, 3:6, 3] = [[2], [0]]  # a genuine eigenvalue of column 3 dropped
    for table in (tampered(ct, p), with_entry(ct, 2, 4, ct.entry(2, 4) + 1),
                  swapped_rows(ct, 1, 3), tampered(ct, 2 * ct.p)):
        result = minimal_polynomial_annihilates(table, mats)
        assert result == ref.minimal_polynomial_annihilates(table, mats)
    assert not minimal_polynomial_annihilates(tampered(ct, p), mats)
    assert minimal_polynomial_annihilates(swapped_rows(ct, 1, 3), mats)  # same values


@pytest.mark.parametrize("n", [2, 3])
def test_idempotents_match_one_at_a_time(n, get_table, get_space, get_descriptor):
    ct = get_table(n)
    adj = build_adjacency_matrices(get_space(n, 2), get_descriptor(n, 2))
    values = idempotents(ct, adj)
    assert values == ref.idempotents(ct, adj)
    assert all(isinstance(x, Eisenstein) for e in values for row in e for x in row)


def test_idempotents_name_the_same_first_failure(get_table, get_space, get_descriptor):
    ct = get_table(2)
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    cases = [(ct, [adj[0] * 0, *adj[1:]]), (tampered(ct, 2 * ct.p), adj)]
    for i in range(6):
        for j in range(i + 1, 6):
            swapped = list(adj)
            swapped[i], swapped[j] = adj[j], adj[i]
            cases.append((ct, swapped))
    for table, matrices in cases:
        got = outcome(idempotents, table, matrices)
        assert got[0] != "ok" and got == outcome(ref.idempotents, table, matrices)
    swapped = [adj[0], adj[3], adj[2], adj[1]] + adj[4:]
    assert outcome(idempotents, ct, swapped) == ("AssertionError", "E_1 is not idempotent")


# ---------------------------------------------------------------------------
# inputs of the wrong size


def test_minimal_polynomials_refuse_too_few_matrices(get_table, get_descriptor):
    mats = intersection_matrices(get_descriptor(4, 2, "closed"))
    with pytest.raises(ValueError, match=r"^intersection matrices of shape \(6, 7, 7\) do not"
                                         r" fit a character table of size 7: expected"
                                         r" \(7, 7, 7\)$"):
        minimal_polynomial_annihilates(get_table(4), mats[:-1])


def test_idempotents_refuse_too_few_matrices(get_table, get_space, get_descriptor):
    adj = build_adjacency_matrices(get_space(2, 2), get_descriptor(2, 2))
    with pytest.raises(ValueError, match=r"^adjacency matrices of shape \(5, 9, 9\) do not"
                                         r" fit a character table of size 6: expected"
                                         r" \(6, 9, 9\)$"):
        idempotents(get_table(2), adj[:-1])


def test_homomorphism_refuses_another_rank(get_table):
    with pytest.raises(ValueError, match=r"^intersection numbers of shape \(7, 7, 7\) do not"
                                         r" fit a character table of size 6: expected"
                                         r" \(6, 6, 6\)$"):
        verify_homomorphism(get_table(2), build_descriptor(4, 2))


def test_reconstruction_refuses_another_rank(get_table):
    with pytest.raises(ValueError, match=r"^intersection numbers of shape \(16, 16, 16\) do"
                                         r" not fit a character table of size 6: expected"
                                         r" \(6, 6, 6\)$"):
        verify_reconstruction(get_table(2), build_descriptor(3, 3, "closed"))

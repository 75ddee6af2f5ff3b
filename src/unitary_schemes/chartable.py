"""Closed-form character tables of the commutative (q = 2) schemes.

The first eigenmatrix P has entry P[i][j] = eigenvalue of relation j on the
i-th common eigenspace; row 0 carries the valencies and column 0 is all ones.
Every entry lies in Q(w), and every identity here (orthogonality, the algebra
homomorphism property, parameter reconstruction, P Q = |X| I, and minimal
polynomial annihilation) is verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import OMEGA, Eisenstein
from .scheme import SchemeDescriptor
from .space import isotropic_count

Matrix = tuple[tuple[Eisenstein, ...], ...]


@dataclass(frozen=True, eq=False)
class CharTable:
    entries: Matrix
    multiplicities: tuple[int, ...]
    valencies: tuple[int, ...]
    order: int

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Eisenstein:
        return self.entries[i][j]


def _rows_n2() -> list[list]:
    w, wb = OMEGA, OMEGA.conj()
    return [
        [1, 1, 1, 2, 2, 2],
        [1, w, wb, 2, 2 * wb, 2 * w],
        [1, wb, w, 2, 2 * w, 2 * wb],
        [1, 1, 1, -1, -1, -1],
        [1, w, wb, -1, -wb, -w],
        [1, wb, w, -1, -w, -wb],
    ]


def _rows_n3() -> list[list]:
    w, wb = OMEGA, OMEGA.conj()
    return [
        [1, 1, 1, 8, 8, 8],
        [1, w, wb, -4, -4 * wb, -4 * w],
        [1, wb, w, -4, -4 * w, -4 * wb],
        [1, 1, 1, -1, -1, -1],
        [1, w, wb, 2, 2 * wb, 2 * w],
        [1, wb, w, 2, 2 * w, 2 * wb],
    ]


def _rows_general(n: int) -> list[list]:
    w, wb = OMEGA, OMEGA.conj()
    big = 2 ** (2 * n - 3)
    e1 = -((-2) ** (n - 1))
    e3 = -((-2) ** (n - 2))
    e6 = -((-2) ** (n - 3))
    return [
        [1, 1, 1, big, big, big, big - (-2) ** (n - 1) - 4],
        [1, w, wb, e1, e1 * wb, e1 * w, 0],
        [1, wb, w, e1, e1 * w, e1 * wb, 0],
        [1, 1, 1, e3, e3, e3, 3 * (-2) ** (n - 2) - 3],
        [1, w, wb, e3, e3 * wb, e3 * w, 0],
        [1, wb, w, e3, e3 * w, e3 * wb, 0],
        [1, 1, 1, e6, e6, e6, 3 * (-2) ** (n - 3) - 3],
    ]


def multiplicities(entries: Matrix, valencies, order: int) -> tuple[int, ...]:
    """Eigenspace dimensions m_i = order / sum_j |P[i][j]|^2 / k_j.

    A non-integer or non-positive result means the table is not the character
    table of a scheme of this order, so it is a hard failure.
    """
    out = []
    for i, row in enumerate(entries):
        denom = sum((x.abs_square() / k for x, k in zip(row, valencies)), Fraction(0))
        m = Fraction(order) / denom
        if m.denominator != 1 or m <= 0:
            raise ArithmeticError(f"multiplicity of row {i} is {m}, not a positive integer")
        out.append(int(m))
    return tuple(out)


def char_table_closed(n: int) -> CharTable:
    """The character table of the q = 2 scheme in dimension n (n >= 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        rows = _rows_n2()
    elif n == 3:
        rows = _rows_n3()
    else:
        rows = _rows_general(n)
    entries = tuple(
        tuple(x if isinstance(x, Eisenstein) else Eisenstein(x) for x in row)
        for row in rows
    )
    valencies = tuple(x.as_rational().numerator for x in entries[0])
    order = isotropic_count(n, 2)
    mult = multiplicities(entries, valencies, order)
    if sum(mult) != order:
        raise ArithmeticError("multiplicities do not sum to the number of points")
    return CharTable(entries=entries, multiplicities=mult,
                     valencies=valencies, order=order)


def closed_multiplicity_formulas(n: int) -> tuple[int, ...]:
    """Multiplicities by the closed product formulas (independent of P)."""
    if n == 2:
        return (1, 1, 1, 2, 2, 2)
    if n == 3:
        return (1, 3, 3, 8, 6, 6)
    s = (-1) ** n
    m12 = (2**n - s) * (2 ** (n - 1) + s) // 9
    m3 = 4 * (2**n - s) * (2 ** (n - 3) + s) // 9
    m45 = 2 * m12
    m6 = 8 * (2 ** (n - 1) + s) * (2 ** (n - 2) - s) // 9
    return (1, m12, m12, m3, m45, m45, m6)


# ---------------------------------------------------------------------------
# exact identity checks


def verify_orthogonality(ct: CharTable):
    """Both orthogonality relations, as exact equalities.

    Returns (True, None) or (False, (kind, i1, i2)) naming the first failure.
    """
    size = ct.size
    for i1 in range(size):
        for i2 in range(size):
            total = sum(
                (ct.entries[i1][j] * ct.entries[i2][j].conj() * Fraction(1, ct.valencies[j])
                 for j in range(size)),
                Eisenstein(0),
            )
            want = Fraction(ct.order, ct.multiplicities[i1]) if i1 == i2 else 0
            if total != Eisenstein(want):
                return False, ("rows", i1, i2)
    for j1 in range(size):
        for j2 in range(size):
            total = sum(
                (ct.entries[i][j1] * ct.entries[i][j2].conj() * ct.multiplicities[i]
                 for i in range(size)),
                Eisenstein(0),
            )
            want = ct.order * ct.valencies[j1] if j1 == j2 else 0
            if total != Eisenstein(want):
                return False, ("columns", j1, j2)
    return True, None


def verify_homomorphism(ct: CharTable, sd: SchemeDescriptor):
    """Each row is an algebra homomorphism: P[h][i] P[h][j] = sum_l p_ij^l P[h][l].

    Returns (True, None) or (False, (h, i, j)).
    """
    size = ct.size
    tensor = sd.tensor.tolist()  # Python ints: Eisenstein arithmetic stays exact
    for h in range(size):
        row = ct.entries[h]
        for i in range(size):
            for j in range(size):
                rhs = sum((tensor[l][i][j] * row[l] for l in range(size)),
                          Eisenstein(0))
                if row[i] * row[j] != rhs:
                    return False, (h, i, j)
    return True, None


def reconstruct_intersection(ct: CharTable, h: int, i: int, j: int) -> Fraction:
    """Recover p_ij^h from the table: (1/(order*k_h)) sum_l P_i(l) P_j(l) conj(P_h(l)) m_l."""
    total = sum(
        (ct.entries[l][i] * ct.entries[l][j] * ct.entries[l][h].conj() * ct.multiplicities[l]
         for l in range(ct.size)),
        Eisenstein(0),
    )
    value = total / (ct.order * ct.valencies[h])
    return value.as_rational()


def second_eigenmatrix(ct: CharTable) -> Matrix:
    """Q with Q[i][j] = m_j * conj(P[j][i]) / k_i; checks P Q = Q P = order * I."""
    size = ct.size
    q_matrix = tuple(
        tuple(ct.entries[j][i].conj() * Fraction(ct.multiplicities[j], ct.valencies[i])
              for j in range(size))
        for i in range(size)
    )
    identity = mat_scale(mat_identity(size), ct.order)
    if mat_mul(ct.entries, q_matrix) != identity or mat_mul(q_matrix, ct.entries) != identity:
        raise AssertionError("P Q = Q P = order * I fails")
    return q_matrix


# ---------------------------------------------------------------------------
# small exact matrices (entries support +, *, and int coercion via Eisenstein)


def mat_identity(size: int) -> Matrix:
    return tuple(tuple(Eisenstein(int(i == j)) for j in range(size)) for i in range(size))


def mat_scale(mat: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in mat)


def mat_mul(a, b) -> Matrix:
    size = len(a)
    return tuple(
        tuple(sum((a[i][l] * b[l][j] for l in range(size)), Eisenstein(0))
              for j in range(size))
        for i in range(size)
    )


def mat_sub(a, b) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def _lift(int_matrix) -> Matrix:
    return tuple(tuple(Eisenstein(int(x)) for x in row) for row in int_matrix)


def minimal_polynomial_annihilates(ct: CharTable, intersection_mats) -> bool:
    """prod over distinct column-j values v of (B_j - v I) must vanish, for
    every j; this certifies the column entries are exactly the eigenvalues."""
    size = ct.size
    identity = mat_identity(size)
    for j in range(size):
        values = []
        for i in range(size):
            if ct.entries[i][j] not in values:
                values.append(ct.entries[i][j])
        product = identity
        b = _lift(intersection_mats[j])
        for v in values:
            product = mat_mul(product, mat_sub(b, mat_scale(identity, v)))
        if not mat_is_zero(product):
            return False
    return True


def idempotents(ct: CharTable, adjacency) -> list[Matrix]:
    """The primitive idempotents E_i = (1/order) sum_j Q[j][i] A_j, verified
    idempotent with trace m_i.  Meant for small orders only."""
    if ct.order > 27:
        raise ValueError("idempotents are only materialised for order <= 27")
    q_matrix = second_eigenmatrix(ct)
    points = adjacency[0].shape[0]
    out = []
    for i in range(ct.size):
        acc = [[Eisenstein(0)] * points for _ in range(points)]
        for j in range(ct.size):
            coef = q_matrix[j][i] / ct.order
            a = adjacency[j]
            for r, c in zip(*a.nonzero()):
                acc[r][c] = acc[r][c] + coef
        e = tuple(tuple(row) for row in acc)
        if mat_mul(e, e) != e:
            raise AssertionError(f"E_{i} is not idempotent")
        trace = sum((e[r][r] for r in range(points)), Eisenstein(0))
        if trace != Eisenstein(ct.multiplicities[i]):
            raise AssertionError(f"E_{i} has trace {trace}, expected {ct.multiplicities[i]}")
        out.append(e)
    return out

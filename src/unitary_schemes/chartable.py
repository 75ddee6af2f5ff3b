"""Closed-form character tables of the commutative (q = 2) schemes.

The first eigenmatrix P has entry P[i][j] = eigenvalue of relation j on the
i-th common eigenspace; row 0 carries the valencies and column 0 is all ones.
Every entry lies in Z[w], so a table stores P once, as the integer parts A, B
of A + B w in one (2, r, r) array of Python ints, exact at any size.  Every
identity here (orthogonality, the algebra homomorphism property, parameter
reconstruction, P Q = |X| I, minimal polynomial annihilation and the
idempotents) is checked on that array as an equality of exact integer
matrices over Z[w], with the denominators cleared once by L = lcm(k).  A
Z[w] matrix product takes three integer products, and each identity is
checked for all its indices in one batch: the minimal polynomials as
integer combinations of the powers of the stacked intersection matrices,
the idempotents as one stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eisenstein import Eisenstein
from .scheme import SchemeDescriptor
from .space import check_budget, isotropic_count

Matrix = tuple[tuple[Eisenstein, ...], ...]


@dataclass(frozen=True, eq=False)
class CharTable:
    """``p`` is P = p[0] + p[1] w, a read-only (2, r, r) array of Python ints."""

    p: np.ndarray
    multiplicities: tuple[int, ...]
    valencies: tuple[int, ...]
    order: int

    def __post_init__(self):
        p = np.array(self.p, dtype=object)  # a private copy
        if (p.ndim != 3 or p.shape[0] != 2 or p.shape[1] != p.shape[2]
                or not all(isinstance(x, int) for x in p.flat)):
            raise ValueError("P must be a (2, r, r) array of integers A, B of A + B w")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return self.p.shape[1]

    def entry(self, i: int, j: int) -> Eisenstein:
        return Eisenstein(self.p[0, i, j], self.p[1, i, j])


# 1, w and w^2 = -1 - w as (A, B) columns, indexed by the power of w
_UNITS = np.array([[1, 0, -1], [0, 1, -1]], dtype=object)
# the power of w at each entry of a conjugate triple of rows
_TRIPLE = [[0, 0, 0, 0, 0, 0], [0, 1, 2, 0, 2, 1], [0, 2, 1, 0, 1, 2]]


def _eigenmatrix(n: int) -> np.ndarray:
    """P as a (2, r, r) array.  Its rows come in conjugate triples
    (1, 1, 1, e, e, e), (1, w, w^2, f, f w^2, f w), (1, w^2, w, f, f w, f w^2);
    from n = 4 on a seventh row (1, 1, 1, g, g, g) and the perpendicular
    column follow."""
    if n == 2:
        scales = (2, 2, 2, -1, -1, -1)
    elif n == 3:
        scales = (8, -4, -4, -1, 2, 2)
    else:
        big = 2 ** (2 * n - 3)
        e1, e3, e6 = (-((-2) ** (n - t)) for t in (1, 2, 3))
        scales = (big, e1, e1, e3, e3, e3, e6)
    powers = (_TRIPLE * 3)[:len(scales)]
    p = _UNITS[:, powers] * np.array([[1, 1, 1, s, s, s] for s in scales], dtype=object)
    if n >= 4:
        p = np.concatenate([p, np.zeros((2, 7, 1), dtype=object)], axis=2)
        p[0, :, 6] = big + e1 - 4, 0, 0, -3 * e3 - 3, 0, 0, -3 * e6 - 3
    return p


def char_table_closed(n: int) -> CharTable:
    """The character table of the q = 2 scheme in dimension n (n >= 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    p = _eigenmatrix(n)
    valencies = tuple(p[0, 0])
    order = isotropic_count(n, 2)
    mult = multiplicities(p, valencies, order)
    if sum(mult) != order:
        raise ArithmeticError("multiplicities do not sum to the number of points")
    return CharTable(p=p, multiplicities=mult, valencies=valencies, order=order)


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
# Z[w] integer matrices: the pair (A, B) of Python-int object arrays standing
# for A + B w, with w^2 = -1 - w, stacked as one array of shape (2, ...).  An
# integer factor (scaling, transpose, a product with an integer matrix) acts
# on both parts alike.


def _mul(x, y):
    (a, b), (c, d) = x, y
    return np.stack([a * c - b * d, a * d + b * c - b * d])


def _matmul(x, y):
    """By three integer products: AD + BC = (A + B)(C + D) - AC - BD."""
    (a, b), (c, d) = x, y
    ac, bd = a @ c, b @ d
    return np.stack([ac - bd, (a + b) @ (c + d) - ac - 2 * bd])


def _conj(x):
    return np.stack([x[0] - x[1], -x[1]])


def _differs(x, a, b=0) -> np.ndarray:
    """Mask of the entries at which x is not a + b w."""
    return (x[0] != a) | (x[1] != b)


def _verdict(mask: np.ndarray, *kind):
    """(True, None), or (False, kind + the first index of ``mask`` in C order)."""
    bad = np.argwhere(mask)
    return (False, (*kind, *(int(v) for v in bad[0]))) if bad.size else (True, None)


def _to_eisenstein(x, scale: int) -> list[Matrix]:
    """The Z[w] matrices x[:, i] / scale of a (2, k, N, N) stack as nested
    tuples of Eisenstein values, one value made per distinct entry."""
    value = functools.cache(lambda a, b: Eisenstein(Fraction(a, scale), Fraction(b, scale)))
    return [tuple(tuple(map(value, ra, rb)) for ra, rb in zip(*xi))
            for xi in x.transpose(1, 0, 2, 3).tolist()]


def _vector(values) -> np.ndarray:
    return np.array(values, dtype=object)


def _check_shape(what: str, shape, expected: tuple[int, ...], size: int) -> None:
    if shape != expected:
        raise ValueError(f"{what} of shape {shape} do not fit a character table"
                         f" of size {size}: expected {expected}")


# ---------------------------------------------------------------------------
# exact identity checks


def multiplicities(p: np.ndarray, valencies, order: int) -> tuple[int, ...]:
    """Eigenspace dimensions m_i = order / sum_j |P[i][j]|^2 / k_j of the
    (2, r, r) array ``p``, as the exact integer division
    order L / sum_j |P[i][j]|^2 (L / k_j).

    A non-integer or non-positive result means the table is not the character
    table of a scheme of this order, so it is a hard failure.
    """
    lcm = math.lcm(*valencies)
    numerator = order * lcm
    norms = _mul(p, _conj(p))[0]  # |x|^2 = x conj(x) is rational
    out = []
    for i, total in enumerate(norms @ (lcm // _vector(valencies))):
        if total == 0:
            raise ArithmeticError(f"multiplicity of row {i} is undefined: the row is zero")
        m, rest = divmod(numerator, total)
        if rest or m <= 0:
            g = math.gcd(numerator, total)
            ratio = f"{numerator // g}" + ("" if total == g else f"/{total // g}")
            raise ArithmeticError(f"multiplicity of row {i} is {ratio}, not a positive integer")
        out.append(m)
    return tuple(out)


def verify_orthogonality(ct: CharTable):
    """Both orthogonality relations, as exact equalities over Z[w]:
    diag(m) P diag(L/k) conj(P)^T = L |X| I and P^T diag(m) conj(P) = |X| diag(k).

    Returns (True, None) or (False, (kind, i1, i2)) naming the first failure.
    """
    p = ct.p
    lcm = math.lcm(*ct.valencies)
    m, k = _vector(ct.multiplicities)[:, None], _vector(ct.valencies)
    rows = _matmul(p * (lcm // k), _conj(p).transpose(0, 2, 1)) * m
    rows = _differs(rows, np.identity(ct.size, dtype=object) * (lcm * ct.order))
    columns = _matmul((p * m).transpose(0, 2, 1), _conj(p))
    columns = _differs(columns, np.diag(k) * ct.order)
    return _verdict(rows, "rows") if rows.any() else _verdict(columns, "columns")


def verify_homomorphism(ct: CharTable, sd: SchemeDescriptor):
    """Each row is an algebra homomorphism: P[h][i] P[h][j] = sum_l p_ij^l P[h][l],
    checked for every (h, i, j) at once.

    Returns (True, None) or (False, (h, i, j)).
    """
    _check_shape("intersection numbers", sd.tensor.shape, (ct.size,) * 3, ct.size)
    p = ct.p
    lhs = _mul(p[..., :, None], p[..., None, :])
    rhs = (p @ sd.tensor.reshape(ct.size, -1)).reshape(lhs.shape)
    return _verdict(_differs(lhs, *rhs))


def verify_reconstruction(ct: CharTable, sd: SchemeDescriptor):
    """The table recovers every intersection number (reconstruct_intersection
    over the whole tensor): sum_l m_l P[l][i] P[l][j] conj(P[l][h]) = |X| k_h p_ij^h.

    Returns (True, None) or (False, (h, i, j)).
    """
    _check_shape("intersection numbers", sd.tensor.shape, (ct.size,) * 3, ct.size)
    p = ct.p
    products = _mul(p[..., :, None], p[..., None, :]).reshape(2, ct.size, -1)
    weights = _conj(p).transpose(0, 2, 1) * _vector(ct.multiplicities)
    total = _matmul(weights, products).reshape(2, *sd.tensor.shape)
    scale = _vector(ct.valencies)[:, None, None] * ct.order
    return _verdict(_differs(total, sd.tensor * scale))


def reconstruct_intersection(ct: CharTable, h: int, i: int, j: int):
    """Recover p_ij^h from the table as an exact rational, (1/(order*k_h))
    sum_l P_i(l) P_j(l) conj(P_h(l)) m_l: the scalar form of verify_reconstruction."""
    total = sum(
        (ct.entry(l, i) * ct.entry(l, j) * ct.entry(l, h).conj() * ct.multiplicities[l]
         for l in range(ct.size)),
        Eisenstein(0),
    )
    value = total / (ct.order * ct.valencies[h])
    return value.as_rational()


def second_eigenmatrix(ct: CharTable) -> tuple[np.ndarray, int]:
    """Q with Q[i][j] = m_j conj(P[j][i]) / k_i, as the pair (L Q, L): L Q is
    a (2, r, r) Z[w] array.  Checks P Q = Q P = order * I as
    P (L Q) = (L Q) P = L order I."""
    p = ct.p
    lcm = math.lcm(*ct.valencies)
    lq = _conj(p).transpose(0, 2, 1) * np.outer(lcm // _vector(ct.valencies),
                                                 ct.multiplicities)
    target = np.identity(ct.size, dtype=object) * (lcm * ct.order)
    if _differs(_matmul(p, lq), target).any() or _differs(_matmul(lq, p), target).any():
        raise AssertionError("P Q = Q P = order * I fails")
    return lq, lcm


def _annihilator(values) -> list[tuple[int, int]]:
    """The coefficients (a_m, b_m) of prod_v (t - v), lowest degree first,
    over the Z[w] values v = (A, B) in ``values``."""
    coeffs = [(1, 0)]
    for va, vb in values:
        # (t - v) c(t): each c_m moves up one degree, and v c_m is taken off at m
        coeffs = [(sa - va * ca + vb * cb, sb - va * cb - vb * ca + vb * cb)
                  for (sa, sb), (ca, cb) in zip([(0, 0), *coeffs], [*coeffs, (0, 0)])]
    return coeffs


def minimal_polynomial_annihilates(ct: CharTable, intersection_mats) -> bool:
    """prod over distinct column-j values v of (B_j - v I) must vanish, for
    every j; this certifies the column entries are exactly the eigenvalues.

    Each product is sum_m c_m B_j^m, with c_m = a_m + b_m w the coefficients
    of prod_v (t - v).  B_j is an integer matrix, so the sum vanishes exactly
    when sum_m a_m B_j^m and sum_m b_m B_j^m both do; every column is
    evaluated at once on the powers of the whole stack of B_j.
    """
    size = ct.size
    b = np.asarray(intersection_mats, dtype=object)
    _check_shape("intersection matrices", b.shape, (size,) * 3, size)
    polys = [_annihilator(dict.fromkeys(zip(*column)))
             for column in ct.p.transpose(2, 0, 1).tolist()]
    # longest polynomial first, so that the columns needing B^m are a prefix
    order = sorted(range(size), key=lambda j: -len(polys[j]))
    polys, b = [polys[j] for j in order], b[order]
    terms = len(polys[0])
    coeffs = np.zeros((size, 2, terms), dtype=object)
    for row, poly in zip(coeffs, polys):
        row[:, :len(poly)] = list(zip(*poly))
    powers = np.zeros((size, terms, size, size), dtype=object)
    powers[:, 0] = np.identity(size, dtype=object)
    power = powers[:, 1] = b
    for m in range(2, terms):
        k = sum(len(poly) > m for poly in polys)
        power = powers[:k, m] = power[:k] @ b[:k]
    total = coeffs @ powers.reshape(size, terms, -1)
    return not (total != 0).any()


def idempotents(ct: CharTable, adjacency) -> list[Matrix]:
    """The primitive idempotents E_i = (1/order) sum_j Q[j][i] A_j, verified
    idempotent with trace m_i, as nested tuples of Eisenstein values.  Meant
    for small orders only; each A_j enters as the 0/1 pattern of its nonzero
    entries.

    With (L Q, L) from second_eigenmatrix, F_i = L order E_i is a Z[w]
    matrix, checked by F_i^2 = L order F_i and tr F_i = L order m_i, for all
    i in one stack; the first failure in i is raised.
    """
    check_budget("idempotents", ct.order)
    masks = np.asarray(adjacency) != 0
    _check_shape("adjacency matrices", masks.shape, (ct.size, ct.order, ct.order), ct.size)
    lq, lcm = second_eigenmatrix(ct)
    scale = lcm * ct.order
    f = lq.transpose(0, 2, 1) @ masks.reshape(ct.size, -1).astype(np.int64)
    f = f.reshape(2, *masks.shape)
    squares = _differs(_matmul(f, f), *(f * scale)).any(axis=(1, 2))
    traces = f.trace(axis1=2, axis2=3).T.tolist()
    for i, (wrong, trace) in enumerate(zip(squares, traces)):
        if wrong:
            raise AssertionError(f"E_{i} is not idempotent")
        if trace != [ct.multiplicities[i] * scale, 0]:
            raise AssertionError(f"E_{i} has trace {Eisenstein(*trace) / scale}, "
                                 f"expected {ct.multiplicities[i]}")
    return _to_eisenstein(f, scale)

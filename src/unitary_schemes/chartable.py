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

The integer matrices are int64 where that is provably exact and Python ints
elsewhere: each identity computes, in Python ints from its inputs, a
magnitude bound covering every intermediate and every scalar that meets its
arrays, and runs in int64 when the bound is below 2^63 (``_exact``).  With
r the size, P = max|p|, M = max|m|, K = max|k|, T = max p_ij^h and X = |X|,
each at least 1 (``_magnitude``), a Z[w] matmul of inner dimension r is
bounded by 7 r max|x| max|y| and an entrywise product by 3 max|x| max|y|.
The bounds, and the closed tables on which they give int64:

    multiplicities       6 r P^2 L                           n <= 8
    orthogonality        max(14 r L M P^2, L X K)            n <= 7
    homomorphism         max(3 P^2, r P T)                   n <= 16
    reconstruction       max(42 r M P^3, K X T)              n <= 8
    P Q = |X| I          max(14 r W P^2, L X),               n <= 7
                         W = max (L / k_i) m_j
    minimal polynomials  t C s^(t - 1), t terms, C = max|c_m|,
                         s >= 1 the smaller of the largest   n <= 4
                         absolute row and column sums of the B_j
    idempotents          max(7 X F^2, L X F), F = r max|L Q| n <= 3

Results keep their types: CharTable.p and L Q stay Python ints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eisenstein import Eisenstein, render
from .fields import check_int
from .scheme import INT64_LIMIT, SchemeDescriptor, intersection_matrices
from .space import check_budget, check_dimension, isotropic_count


@dataclass(frozen=True, eq=False)
class CharTable:
    """``p`` is P = p[0] + p[1] w, a read-only (2, r, r) array of Python ints;
    the other fields are integers (no bool, no float), kept as Python ints."""

    p: np.ndarray
    multiplicities: tuple[int, ...]
    valencies: tuple[int, ...]
    order: int

    def __post_init__(self):
        p = np.array(self.p, dtype=object)  # a private copy
        if (p.ndim != 3 or p.shape[0] != 2 or p.shape[1] != p.shape[2]
                or not set(map(type, p.flat)) <= {int}):  # no bool, no numpy integer
            raise ValueError("P must be a (2, r, r) array of integers A, B of A + B w")
        check_int("order", self.order)
        object.__setattr__(self, "order", int(self.order))
        for name in ("multiplicities", "valencies"):
            values = getattr(self, name)
            if len(values) != p.shape[1]:
                raise ValueError(f"{name} has {len(values)} entries, P has"
                                 f" {p.shape[1]} columns")
            if not set(map(type, values)) <= {int}:
                for k, value in enumerate(values):
                    check_int(f"{name}[{k}]", value)
                object.__setattr__(self, name, values := tuple(map(int, values)))
            if min(values, default=1) <= 0:
                raise ValueError(f"{name} must be positive, got {min(values)}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return self.p.shape[1]

    def entry(self, i: int, j: int) -> tuple[int, int]:
        """P[i][j] as the integer pair (A, B) of A + B w."""
        _check_indices(self, i=i, j=j)
        return self.p[0, i, j], self.p[1, i, j]


def _check_indices(ct: CharTable, **indices) -> None:
    """Refuse, naming it, an index that is not an integer in [0, ct.size)."""
    for name, index in indices.items():
        check_int(name, index)
        if not 0 <= index < ct.size:
            raise ValueError(f"{name} = {index} is outside [0, {ct.size})")


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
    check_dimension(n)
    order = isotropic_count(n, 2)
    check_budget("chartable", order)
    p = _eigenmatrix(n)
    valencies = tuple(p[0, 0])
    mult = multiplicities(p, valencies, order)
    if sum(mult) != order:
        raise ArithmeticError("multiplicities do not sum to the number of points")
    return CharTable(p=p, multiplicities=mult, valencies=valencies, order=order)


def closed_multiplicity_formulas(n: int) -> tuple[int, ...]:
    """Multiplicities by the closed product formulas (independent of P), n >= 2."""
    check_dimension(n)
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
# Z[w] integer matrices: the pair (A, B) of integer arrays (int64 or Python
# ints, as ``_exact`` chooses) standing for A + B w, with w^2 = -1 - w,
# stacked as one array of shape (2, ...).  An integer factor (scaling,
# transpose, a product with an integer matrix) acts on both parts alike.


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


def _magnitude(x) -> int:
    """The largest |entry| of an integer or integer array, and at least 1, so
    that a product of magnitudes bounds each of its factors.  A Python int,
    taken from the max and min: np.abs wraps at the int64 minimum."""
    x = np.asarray(x)
    return max(int(x.max()), -int(x.min()), 1) if x.size else 1


def _exact(bound: int, *arrays) -> list[np.ndarray]:
    """``arrays`` as int64 when ``bound`` < 2^63, else as object arrays of
    Python ints: the one dtype an identity computes in."""
    dtype = np.int64 if bound < INT64_LIMIT else object
    return [np.asarray(x).astype(dtype, copy=False) for x in arrays]


def _differs(x, a, b=0) -> np.ndarray:
    """Mask of the entries at which x is not a + b w."""
    return (x[0] != a) | (x[1] != b)


def _verdict(mask: np.ndarray, *kind):
    """(True, None), or (False, kind + the first index of ``mask`` in C order)."""
    bad = np.argwhere(mask)
    return (False, (*kind, *(int(v) for v in bad[0]))) if bad.size else (True, None)


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
    weights = lcm // _vector(valencies)
    p, weights = _exact(6 * len(weights) * _magnitude(p) ** 2 * lcm, p, weights)
    norms = _mul(p, _conj(p))[0]  # |x|^2 = x conj(x) is rational
    out = []
    for i, total in enumerate((norms @ weights).tolist()):
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
    lcm = math.lcm(*ct.valencies)
    m, k = _vector(ct.multiplicities), _vector(ct.valencies)
    bound = max(14 * ct.size * lcm * _magnitude(m) * _magnitude(ct.p) ** 2,
                lcm * _magnitude(ct.order) * _magnitude(k))
    p, m, k, weights = _exact(bound, ct.p, m[:, None], k, lcm // k)
    rows = _matmul(p * weights, _conj(p).transpose(0, 2, 1)) * m
    rows = _differs(rows, np.identity(ct.size, dtype=p.dtype) * (lcm * ct.order))
    columns = _matmul((p * m).transpose(0, 2, 1), _conj(p))
    columns = _differs(columns, np.diag(k) * ct.order)
    return _verdict(rows, "rows") if rows.any() else _verdict(columns, "columns")


def verify_homomorphism(ct: CharTable, sd: SchemeDescriptor):
    """Each row is an algebra homomorphism: P[h][i] P[h][j] = sum_l p_ij^l P[h][l],
    checked for every (h, i, j) at once.

    Returns (True, None) or (False, (h, i, j)).
    """
    _check_shape("intersection numbers", sd.tensor.shape, (ct.size,) * 3, ct.size)
    big = _magnitude(ct.p)
    p, tensor = _exact(max(3 * big**2, ct.size * big * _magnitude(sd.tensor)), ct.p, sd.tensor)
    lhs = _mul(p[..., :, None], p[..., None, :])
    rhs = (p @ tensor.reshape(ct.size, -1)).reshape(lhs.shape)
    return _verdict(_differs(lhs, *rhs))


def verify_reconstruction(ct: CharTable, sd: SchemeDescriptor):
    """The table recovers every intersection number (reconstruct_intersection
    over the whole tensor): sum_l m_l P[l][i] P[l][j] conj(P[l][h]) = |X| k_h p_ij^h.

    Returns (True, None) or (False, (h, i, j)).
    """
    _check_shape("intersection numbers", sd.tensor.shape, (ct.size,) * 3, ct.size)
    m, k = _vector(ct.multiplicities), _vector(ct.valencies)
    bound = max(42 * ct.size * _magnitude(m) * _magnitude(ct.p) ** 3,
                _magnitude(k) * _magnitude(ct.order) * _magnitude(sd.tensor))
    p, m, k, tensor = _exact(bound, ct.p, m, k, sd.tensor)
    products = _mul(p[..., :, None], p[..., None, :]).reshape(2, ct.size, -1)
    weights = _conj(p).transpose(0, 2, 1) * m
    total = _matmul(weights, products).reshape(2, *tensor.shape)
    return _verdict(_differs(total, tensor * (k[:, None, None] * ct.order)))


def reconstruct_intersection(ct: CharTable, h: int, i: int, j: int):
    """Recover p_ij^h from the table as an exact rational, (1/(order*k_h))
    sum_l P_i(l) P_j(l) conj(P_h(l)) m_l: the scalar reference form of
    verify_reconstruction, with its own product of Python-int pairs (A, B)."""
    _check_indices(ct, h=h, i=i, j=j)
    columns = (zip(*ct.p[:, :, c].tolist()) for c in (i, j, h))
    total_a = total_b = 0
    for (a, b), (c, d), (e, f), m in zip(*columns, ct.multiplicities):
        xa, xb = a * c - b * d, a * d + b * c - b * d  # w^2 = -1 - w
        total_a += m * (xa * (e - f) + xb * f)  # x conj(e + f w) = x ((e - f) - f w)
        total_b += m * (xb * e - xa * f)
    if total_b:
        raise ValueError(f"p^{h}_({i}, {j}) = ({render((total_a, total_b))})"
                         f"/{ct.order * ct.valencies[h]} is not rational")
    return Fraction(total_a, ct.order * ct.valencies[h])


def second_eigenmatrix(ct: CharTable) -> tuple[np.ndarray, int]:
    """Q with Q[i][j] = m_j conj(P[j][i]) / k_i, as the pair (L Q, L): L Q is
    a (2, r, r) Z[w] array.  Checks P Q = Q P = order * I as
    P (L Q) = (L Q) P = L order I."""
    lcm = math.lcm(*ct.valencies)
    weights = np.outer(lcm // _vector(ct.valencies), ct.multiplicities)
    bound = max(14 * ct.size * _magnitude(weights) * _magnitude(ct.p) ** 2,
                lcm * _magnitude(ct.order))
    p, weights = _exact(bound, ct.p, weights)
    lq = _conj(p).transpose(0, 2, 1) * weights
    target = np.identity(ct.size, dtype=p.dtype) * (lcm * ct.order)
    if _differs(_matmul(p, lq), target).any() or _differs(_matmul(lq, p), target).any():
        raise AssertionError("P Q = Q P = order * I fails")
    return lq.astype(object), lcm


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
    # every entry of B_j^m is at most s^m, s the smaller of the largest
    # absolute row sum and the largest absolute column sum of the B_j
    sums = np.abs(b)  # of Python ints, so exact
    s = _magnitude(min(sums.sum(axis=2).max(), sums.sum(axis=1).max()))
    coeffs, b = _exact(terms * _magnitude(coeffs) * s ** (terms - 1), coeffs, b)
    powers = np.zeros((size, terms, size, size), dtype=b.dtype)
    powers[:, 0] = np.identity(size, dtype=b.dtype)
    power = powers[:, 1] = b
    for m in range(2, terms):
        k = sum(len(poly) > m for poly in polys)
        power = powers[:k, m] = power[:k] @ b[:k]
    total = coeffs @ powers.reshape(size, terms, -1)
    return not (total != 0).any()


def verify_table(ct: CharTable, sd: SchemeDescriptor) -> tuple[str, bool, str]:
    """The character-table check of ``verify``, as (name, ok, text): the
    orthogonality, homomorphism, reconstruction, P Q = |X| I and minimal
    polynomial identities all hold, with the count of equalities of each."""
    try:
        second_eigenmatrix(ct)
        inverse = True
    except AssertionError:
        inverse = False
    oks = (verify_orthogonality(ct)[0], verify_homomorphism(ct, sd)[0],
           verify_reconstruction(ct, sd)[0], inverse,
           minimal_polynomial_annihilates(ct, intersection_matrices(sd)))
    square, cube = 2 * ct.size**2, sd.tensor.size
    return ("character table", all(oks),
            f"character table: {square} orthogonality, {cube} homomorphism, {cube} "
            f"reconstruction, {square} eigenmatrix inverse and {cube} minimal polynomial "
            "equalities")


def idempotents(ct: CharTable, adjacency) -> list[tuple[tuple, ...]]:
    """The primitive idempotents E_i = (1/order) sum_j Q[j][i] A_j, verified
    idempotent with trace m_i, as nested tuples of ``eisenstein`` values.  Meant
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
    big = ct.size * _magnitude(lq)  # bounds every entry of every F_i
    lq, = _exact(max(7 * ct.order * big**2, scale * big), lq)
    f = lq.transpose(0, 2, 1) @ masks.reshape(ct.size, -1).astype(np.int64)
    f = f.reshape(2, *masks.shape)
    squares = _differs(_matmul(f, f), *(f * scale)).any(axis=(1, 2))
    traces = f.trace(axis1=2, axis2=3).T.tolist()
    value = functools.cache(lambda a, b: Eisenstein(Fraction(a, scale), Fraction(b, scale)))
    for i, (wrong, trace) in enumerate(zip(squares, traces)):
        if wrong:
            raise AssertionError(f"E_{i} is not idempotent")
        if trace != [ct.multiplicities[i] * scale, 0]:
            raise AssertionError(f"E_{i} has trace {value(*trace)}, "
                                 f"expected {ct.multiplicities[i]}")
    return [tuple(tuple(map(value, ra, rb)) for ra, rb in zip(*fi))
            for fi in f.transpose(1, 0, 2, 3).tolist()]

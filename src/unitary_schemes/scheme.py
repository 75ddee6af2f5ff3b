"""Association-scheme construction for the unitary action on isotropic vectors.

Ordered pairs of isotropic vectors fall into three kinds of orbit: scalar
pairs (y = lam * x), product pairs (<x, y> = g^e nonzero) and, in dimension
at least 4, perpendicular independent pairs.  Sequential relation indices run
scalar exponents first, then product exponents, then the perpendicular class.

Intersection numbers are computed two ways: by exhaustive counting over the
enumerated vectors, and by closed formulas; mode "both" insists the two
routes agree entrywise.  The brute-force builds, and ``verify`` in closed
mode, also recount every relation at random pairs by a count over the
coordinates, without the points (``_spot_check``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import _check_ids, build_field
from .space import (
    UnitarySpace,
    _inner,
    _isotropic,
    check_budget,
    enumerate_isotropic,
    isotropic_count,
    witness_pair,
)

SCALAR = "scalar"
PRODUCT = "product"
PERP = "perp"

# Random pairs per relation in the representative spot checks of the
# brute-force tensor and in the constancy check of ``verify_relation_matrix``.
SAMPLES_PER_RELATION = 5

MODES = ("bruteforce", "closed", "both")

# Every tensor entry, row sum and valency is at most the number of points,
# so keeping that below 2^63 keeps all int64 tensor arithmetic exact.
INT64_LIMIT = 2**63

# Multiply-adds per BLAS product in ``_triple_counts``.  OpenBLAS runs a
# product of at most 4 * 65536 multiply-adds on the calling thread; a larger
# one wakes worker threads, which keep spinning after it returns.
BLAS_CALL = 2**17
# float64 entries in the indicator stack of one row block of
# ``_triple_counts`` (256 KB, so that a block stays in cache)
ROW_BLOCK = 2**15


def max_dimension(q: int) -> int:
    """Largest n whose isotropic-point count stays below ``INT64_LIMIT``."""
    n = 2
    while isotropic_count(n + 1, q) < INT64_LIMIT:
        n += 1
    return n


def check_parameters(n: int, q: int) -> None:
    """Reject n < 2, an unsupported q, and (n, q) with 2^63 points or more."""
    if n < 2:
        raise ValueError("n must be >= 2")
    build_field(q)  # validates q
    if isotropic_count(n, q) >= INT64_LIMIT:
        raise ValueError(
            f"(n, q) = ({n}, {q}) has at least 2^63 points, beyond the int64 tensor;"
            f" the largest n for q = {q} is {max_dimension(q)}"
        )


class OracleMismatch(AssertionError):
    """Closed-form and brute-force intersection numbers disagree."""

    def __init__(self, n, q, h, i, j, closed, brute):
        self.triple = (h, i, j)
        super().__init__(
            f"closed form {closed} != brute force {brute} at (h,i,j)=({h},{i},{j})"
            f" for (n,q)=({n},{q})"
        )


@dataclass(frozen=True)
class RelationLabel:
    """One orbit of ordered pairs, with its sequential index."""

    kind: str
    exponent: int | None
    index: int


@dataclass(frozen=True, eq=False)
class SchemeDescriptor:
    """Rank, valencies, intersection tensor and conjugation map of one scheme.

    ``tensor[h, i, j]`` counts, for any pair (x, y) in relation h, the vectors
    z with (x, z) in relation i and (z, y) in relation j.  The tensor is a
    read-only int64 array of shape (rank, rank, rank).
    """

    n: int
    q: int
    rank: int
    valencies: tuple[int, ...]
    tensor: np.ndarray
    conj_map: tuple[int, ...]
    sub_count: int
    parity_offset: int
    mode: str

    @property
    def order(self) -> int:
        return isotropic_count(self.n, self.q)

    def p(self, h: int, i: int, j: int) -> int:
        return int(self.tensor[h, i, j])


def scheme_rank(n: int, q: int) -> int:
    """Number of relations: 2q^2-2 in dimensions 2 and 3, 2q^2-1 above."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2 * q * q - 2 if n <= 3 else 2 * q * q - 1


def parity_offset(q: int) -> int:
    return 0 if q % 2 == 0 else (q + 1) // 2


def conjugate_index(l: int, n: int, q: int) -> int:
    """Index of the reversed relation: scalar e -> -e, product e -> q*e, perp fixed."""
    rank = scheme_rank(n, q)
    if not 0 <= l < rank:
        raise ValueError(f"relation index {l} out of range [0, {rank - 1}]")
    nrel = q * q - 1
    if l < nrel:
        return (-l) % nrel
    if l < 2 * nrel:
        return nrel + (q * (l - nrel)) % nrel
    return l


def conjugate_relation(sd: SchemeDescriptor, l: int) -> int:
    if not 0 <= l < sd.rank:
        raise ValueError(f"relation index {l} out of range [0, {sd.rank - 1}]")
    return sd.conj_map[l]


def classify_pair(us: UnitarySpace, x, y) -> RelationLabel:
    """The unique relation containing the ordered pair (x, y)."""
    ft = us.ft
    for v in (x, y):
        _check_ids(v, ft.order, us.n)
        if not _isotropic(ft, v):
            raise ValueError("classification requires nonzero isotropic vectors")
    l = _relation(ft, x, y)
    nrel = ft.order - 1
    if l < nrel:
        return RelationLabel(SCALAR, l, l)
    if l < 2 * nrel:
        return RelationLabel(PRODUCT, l - nrel, l)
    return RelationLabel(PERP, None, l)


def _relation(ft, x, y) -> int:
    """The relation index of (x, y), for points already checked."""
    ip = _inner(ft, x, y)
    nrel = ft.order - 1
    if ip != 0:
        return nrel + ft.log(ip)
    piv = next(i for i, c in enumerate(x) if c)
    lam = ft.div(y[piv], x[piv])
    if lam != 0 and all(yc == ft.mul(lam, xc) for xc, yc in zip(x, y)):
        return ft.log(lam)
    return 2 * nrel


# ---------------------------------------------------------------------------
# closed formulas


def closed_valencies(n: int, q: int) -> tuple[int, ...]:
    nrel = q * q - 1
    if n <= 3:
        k = isotropic_count(n, q) // nrel - 1
        return (1,) * nrel + (k,) * nrel
    return (1,) * nrel + (q ** (2 * n - 3),) * nrel + (q * q * isotropic_count(n - 2, q),)


def intersection_number_closed(n: int, q: int, h: int, i: int, j: int) -> int:
    """Closed-form intersection number p^h_ij for sequential indices (h, i, j).

    An index into ``_closed_tensor``, which builds all rank^3 entries on
    every call; read ``build_descriptor(n, q, mode="closed").tensor`` when
    many entries are needed.
    """
    check_parameters(n, q)
    rank = scheme_rank(n, q)
    last = 2 * (q * q - 1)
    for l in (h, i, j):
        if not 0 <= l < rank:
            if l == last and n <= 3:
                raise ValueError("perpendicular relation requires dimension >= 4")
            raise ValueError(f"relation index {l} out of range [0, {rank - 1}]")
    return int(_closed_tensor(n, q)[h, i, j])


def _closed_tensor(n: int, q: int) -> np.ndarray:
    """The whole closed-form tensor in one pass over the nine (i, j) kinds.

    This is the one transcription of the paper's formulas.  Congruences are
    taken on the scalar and product exponents modulo q^2-1, except in the
    all-product block, which works modulo q+1 with the parity offset.  The
    tests recount every entry, for every supported (n, q), by orthogonal
    decomposition of the space around a witness pair.
    """
    rank = scheme_rank(n, q)
    nrel = q * q - 1
    sub = isotropic_count(n - 2, q)
    e = np.arange(nrel, dtype=np.int64)
    eh, ei, ej = e[:, None, None], e[None, :, None], e[None, None, :]
    S, P, X = slice(0, nrel), slice(nrel, 2 * nrel), slice(2 * nrel, rank)
    t = np.zeros((rank, rank, rank), dtype=np.int64)

    t[S, S, S] = (ei + ej - eh) % nrel == 0
    t[P, S, P] = (eh + ei - ej) % nrel == 0
    t[P, P, S] = (ei + q * ej - eh) % nrel == 0
    t[S, P, P] = np.where((q * (eh + ei) - ej) % nrel == 0, q ** (2 * n - 3), 0)
    # q^(2n-5) + (-q)^(n-3); at n = 2 the two terms are 1/q - 1/q = 0
    offdiag = q ** (2 * n - 5) + (-q) ** (n - 3) if n >= 3 else 0
    t[P, P, P] = np.where((ei + ej - eh - parity_offset(q)) % (q + 1) == 0,
                          sub + 1, offdiag)
    if n >= 4:
        far = q ** (2 * n - 5)
        t[X, S, X] = t[X, X, S] = 1
        t[X, P, P] = t[X, P, X] = t[X, X, P] = far
        t[P, P, X] = t[P, X, P] = sub
        t[S, X, X] = q * q * sub
        t[P, X, X] = sub
        t[X, X, X] = (q * q - 1) ** 2 + q**4 * isotropic_count(n - 4, q)
    return t


# ---------------------------------------------------------------------------
# brute force


def _joint_histogram(rows: np.ndarray, cols: np.ndarray, rank: int) -> np.ndarray:
    """``H[..., i, j]`` counts the z with ``rows[..., z]`` = i and
    ``cols[..., z]`` = j, for label arrays of one shape."""
    lead = rows.shape[:-1]
    stack = math.prod(lead)
    codes = rows.astype(np.intp) * rank
    codes += cols.astype(np.intp, copy=False)
    codes += (np.arange(stack) * (rank * rank)).reshape(*lead, 1)
    return np.bincount(codes.ravel(), minlength=stack * rank * rank).reshape(*lead, rank, rank)


def _column_counts(row: np.ndarray, col: np.ndarray, rank: int) -> np.ndarray:
    """``H[i, j]`` counts the points z with uint8 label i in ``row`` and
    label j in ``col``.  The labels are joined into uint16 keys rank * i + j
    (below 2^16, as rank <= 2^8) ``CHUNK`` points at a time, so that neither
    the keys nor the intp copy ``bincount`` makes of them spans all N."""
    counts = np.zeros(rank * rank, dtype=np.int64)
    for start in range(0, row.size, kernels.CHUNK):
        keys = row[start:start + kernels.CHUNK] * np.uint16(rank)
        keys += col[start:start + kernels.CHUNK]
        counts += np.bincount(keys, minlength=rank * rank)
    return counts.reshape(rank, rank)


def classified_vectors(n: int) -> int:
    """Vectors classified per evaluation of ``_witness_tensor``: a row and
    the columns of one product partner and, when n >= 4, one perpendicular
    partner."""
    return 3 if n >= 4 else 2


def _tensor_from_histograms(q: int, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole tensor, and the valencies, from the histograms of one point
    x: ``counts[0]`` at (x, v) with <x, v> = 1 and, when there is a
    perpendicular relation, ``counts[1]`` at (x, y) with y perpendicular to
    x and independent of it.

    The pairs (x, g^e x), (g^e x, v) and (x, y) meet every relation.  Since
    (g^e x, z) has the label ``scale_labels[e]`` of (x, z), scalar relation e
    puts the count of label i at (i, conj(scale_e(i))), and product relation
    e is the histogram at (x, v) with its rows relabelled by scale_e.
    """
    conj_labels, scale_labels = kernels.label_maps(q)
    nrel = q * q - 1
    rank = counts.shape[-1]
    e = np.arange(nrel)[:, None]
    scale = scale_labels[:, :rank]
    valencies = counts[0].sum(axis=1)
    tensor = np.zeros((rank, rank, rank), dtype=np.int64)
    tensor[e, np.arange(rank), conj_labels[scale]] = valencies
    tensor[nrel + e, scale] = counts[0]
    tensor[2 * nrel:] = counts[1:]
    return tensor, valencies


def _witness_tensor(us: UnitarySpace, row: np.ndarray, partners) -> tuple[np.ndarray, np.ndarray]:
    """The whole tensor counted at the pairs one point x and its partners
    give, and the valencies; ``row`` is row(x).

    ``partners`` holds v with <x, v> = 1 and, when there is a perpendicular
    relation, a point y perpendicular to x and independent of it; their
    histograms are the joint histograms of row(x) and col(v), col(y).
    """
    rank = 2 * (us.ft.order - 1) + len(partners) - 1
    counts = np.stack([
        _column_counts(row, kernels.classify_col(y, us.block_codes, us.tables), rank)
        for y in partners])
    return _tensor_from_histograms(us.q, counts)


def _hyperplane_point(ft, a, free, value: int) -> list[int]:
    """The vector v with <a, v> = ``value`` whose coordinates other than
    a's first nonzero one, k, are ``free`` in order: conj(v_k) is solved from
    the rest.  A bijection from F^(n-1) onto that hyperplane."""
    k = next(i for i, c in enumerate(a) if c)
    v = [*free[:k], 0, *free[k:]]
    rest = _inner(ft, a, v)
    v[k] = ft.conj(ft.div(ft.sub(value, rest), a[k]))
    if _inner(ft, a, v) != value:  # fail here rather than reject every candidate
        raise AssertionError(f"pivot solve missed the hyperplane <a, v> = {value}")
    return v


def _accepts(ft, v, a=None, relation: int | None = None) -> bool:
    """Whether a draw keeps the candidate v: v is a point and, when ``a`` is
    given, (a, v) lies in ``relation``."""
    return _isotropic(ft, v) and (a is None or _relation(ft, a, v) == relation)


def _draw(ft, n: int, rng: random.Random, a=None, relation: int | None = None
          ) -> tuple[int, ...]:
    """A uniformly random point, or, given a point ``a`` and ``relation``
    (product relation 0 or the perpendicular one), a uniformly random point
    v with (a, v) in that relation, by rejection from ``rng``.

    A point's candidates are uniform over F^n.  A partner's are uniform over
    the hyperplane <a, v> = 1 or 0 that holds the relation, through
    ``_hyperplane_point``, and only the non-isotropic ones (and, at 0, the
    multiples of a) are rejected.  Keeping the candidates that lie in the
    target set makes each draw exactly uniform on it.
    """
    free = n if a is None else n - 1
    value = ft.one if relation == ft.order - 1 else ft.zero
    while True:
        # one uniform code gives ``free`` uniform coordinates
        code = rng.randrange(ft.order**free)
        v = [code // ft.order**k % ft.order for k in range(free - 1, -1, -1)]
        if a is not None:
            v = _hyperplane_point(ft, a, v, value)
        if _accepts(ft, v, a, relation):
            return tuple(v)


def _counted_histograms(ft, pairs, rank: int) -> np.ndarray:
    """``H[b, i, j]`` counts the points z with (x, z) in relation i and
    (z, y) in relation j, for each pair (x, y) of independent points, by
    ``kernels.count_isotropic`` and without the points.

    The count sorts every isotropic z, zero included, by <x, z> and <z, y>,
    which give the product label or, at 0, the perpendicular one.  Then
    z = 0 is taken out, and the 2(q^2-1) multiples of x and of y are moved
    to their scalar labels: (x, g^e x) has label e, and (g^e y, y) label -e.
    Below dimension 4 no count may be left perpendicular.
    """
    nrel = ft.order - 1
    perp = 2 * nrel
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    counts = kernels.count_isotropic(ft, xs, ys)
    # the label of a product alpha: perpendicular at 0, else nrel + log(alpha)
    label = np.concatenate(([perp], nrel + np.arange(nrel)))
    hist = np.zeros((len(pairs), perp + 1, perp + 1), dtype=np.int64)
    hist[:, label[:, None], label] = counts
    # g^e x has <x, g^e x> = 0 and <g^e x, y> = g^e <x, y>; g^e y has
    # <x, g^e y> = conj(g^e) <x, y> and <g^e y, y> = 0
    e = np.arange(nrel)
    g = ft.exp_table[e]
    b = np.arange(len(pairs))[:, None]
    ip = np.array([_inner(ft, x, y) for x, y in pairs])[:, None]
    at_x = label[ft.mul_table[g, ip]]
    at_y = label[ft.mul_table[ft.conj_table[g], ip]]
    np.add.at(hist, (b, perp, at_x), -1)
    np.add.at(hist, (b, e, at_x), 1)
    np.add.at(hist, (b, at_y, perp), -1)
    np.add.at(hist, (b, at_y, -e % nrel), 1)
    hist[:, perp, perp] -= 1
    if rank <= perp and (hist[:, perp].any() or hist[:, :, perp].any()):
        raise AssertionError(f"points counted perpendicular in dimension {len(xs[0])}")
    return hist[:, :rank, :rank]


def _assembly_differs(q: int, tensor: np.ndarray) -> np.ndarray:
    """Whether each relation's slice of ``tensor`` differs from the one
    ``_tensor_from_histograms`` assembles from its product-0 and
    perpendicular slices, checked a block of about ``kernels.CHUNK`` entries
    at a time rather than against a second whole tensor.

    Scalar relation e must hold valencies[i] at (i, conj(scale_e(i))) and
    zero elsewhere; product relation e must be the product-0 slice with its
    rows relabelled by scale_e.  The perpendicular slice is copied
    unchanged, so it cannot differ.
    """
    conj_labels, scale_labels = kernels.label_maps(q)
    nrel = q * q - 1
    rank = tensor.shape[0]
    scale = scale_labels[:, :rank]
    product = tensor[nrel]
    valencies = product.sum(axis=1)
    wrong = np.zeros(rank, dtype=bool)
    step = max(1, kernels.CHUNK // (rank * rank))
    for start in range(0, nrel, step):
        e = np.arange(start, min(start + step, nrel))
        scalar = np.zeros((e.size, rank, rank), dtype=tensor.dtype)
        scalar[np.arange(e.size)[:, None], np.arange(rank), conj_labels[scale[e]]] = valencies
        wrong[e] = (tensor[e] != scalar).reshape(e.size, -1).any(axis=1)
        relabelled = tensor[nrel + e[:, None], scale[e]]
        wrong[nrel + e] = (relabelled != product).reshape(e.size, -1).any(axis=1)
    return wrong


def _spot_check(n: int, q: int, tensor: np.ndarray, seed: int) -> None:
    """Recount every relation at ``SAMPLES_PER_RELATION`` random pairs,
    without enumeration.

    Each sample is ``_tensor_from_histograms`` at three random points drawn
    by ``_draw``: a uniformly random point a, a point b uniform among those
    with <a, b> = 1 and, when there is a perpendicular relation, a point c
    uniform among those perpendicular to a and independent of it; the
    histograms at (a, b) and (a, c) are counted by ``_counted_histograms``.
    All relations have constant valencies, so (a, b) is a uniformly random
    pair of product relation 0 and (a, c) one of the perpendicular relation;
    (a, g^s a) is uniform in scalar relation s, and (a, b) -> (g^e a, b) maps
    product relation 0 one to one onto product relation e.  So every relation
    is recounted at one uniformly random pair per sample.

    ``_tensor_from_histograms`` writes a sample's two histograms unchanged
    as the slices of product relation 0 and the perpendicular relation, so
    the sampled tensor equals the tensor exactly when both histograms equal
    those two rank^2 slices of it and the slices assemble into it.  Each
    sample is therefore compared with the slices, and the assembly is
    checked once, by ``_assembly_differs``; the first relation that differs
    is named.
    """
    ft = build_field(q)
    rank = tensor.shape[0]
    relations = np.arange(ft.order - 1, rank, ft.order - 1)  # product 0 and perpendicular
    rng = random.Random(seed)
    pairs = []
    for _ in range(SAMPLES_PER_RELATION):
        a = _draw(ft, n, rng)
        pairs += [(a, _draw(ft, n, rng, a, h)) for h in relations.tolist()]
    hist = _counted_histograms(ft, pairs, rank).reshape(SAMPLES_PER_RELATION, -1, rank, rank)
    slices = tensor[relations]
    wrong = (hist != slices).any(axis=(2, 3))  # by sample, then relation
    if wrong.any():
        h = int(relations[wrong.argmax() % relations.size])
    else:
        wrong = _assembly_differs(q, tensor)
        h = int(wrong.argmax())
    if wrong.any():
        raise AssertionError(f"intersection counts depend on the representative of relation {h}")


def _bruteforce_tensor(us: UnitarySpace, rank: int, seed: int):
    nrel = us.ft.order - 1
    pairs = [witness_pair(h, us.n, us.q) for h in range(nrel, rank, nrel)]
    tensor, valencies = _witness_tensor(
        us, kernels.classify_row(pairs[0][0], us.block_codes, us.tables),
        [y for _, y in pairs])
    _spot_check(us.n, us.q, tensor, seed)
    conj_map = tuple(classify_pair(us, *witness_pair(h, us.n, us.q)[::-1]).index
                     for h in range(rank))
    return tensor, tuple(valencies.tolist()), conj_map


# ---------------------------------------------------------------------------
# descriptor assembly


def _first_difference(a: np.ndarray, b) -> tuple[int, ...] | None:
    """Index of the first entry, in C order, where ``a`` and ``b`` differ
    once broadcast together, or None where they agree everywhere."""
    diff = np.not_equal(a, b)
    first = int(diff.argmax())
    if not diff.flat[first]:
        return None
    return tuple(int(v) for v in np.unravel_index(first, diff.shape))


def _check_descriptor(sd: SchemeDescriptor) -> None:
    order = sd.order
    if sum(sd.valencies) != order:
        raise AssertionError("valencies do not sum to the number of points")
    conj = np.asarray(sd.conj_map, dtype=np.int64)
    valencies = np.asarray(sd.valencies, dtype=np.int64)
    if not np.array_equal(conj[conj], np.arange(sd.rank)):
        raise AssertionError("conjugation map is not an involution")
    if not np.array_equal(valencies[conj], valencies):
        raise AssertionError("conjugate relations have different valencies")
    bad = _first_difference(sd.tensor.sum(axis=2), valencies)
    if bad is not None:
        h, i = bad
        raise AssertionError(f"row sum at (h,i)=({h},{i}) is not the valency")
    want = np.zeros((sd.rank, sd.rank), dtype=np.int64)
    want[np.arange(sd.rank), conj] = valencies
    if not np.array_equal(sd.tensor[0], want):
        raise AssertionError("identity-relation slice does not recover valencies")


def build_descriptor(n: int, q: int, mode: str = "both", seed: int = 0) -> SchemeDescriptor:
    """Build the scheme descriptor, cross-checking formulas against counting
    when mode is "both" (the default)."""
    return build_descriptor_with_space(n, q, mode, seed)[0]


def build_descriptor_with_space(n: int, q: int, mode: str = "both", seed: int = 0
                                ) -> tuple[SchemeDescriptor, UnitarySpace | None]:
    """The descriptor and the space it enumerated (None in closed mode), for
    callers that need the points too and should not enumerate them again."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    check_parameters(n, q)
    rank = scheme_rank(n, q)

    brute = closed = us = None
    if mode in ("bruteforce", "both"):
        us = enumerate_isotropic(n, q)
        brute = _bruteforce_tensor(us, rank, seed)
    if mode in ("closed", "both"):
        closed = (
            _closed_tensor(n, q),
            closed_valencies(n, q),
            tuple(conjugate_index(l, n, q) for l in range(rank)),
        )

    if mode == "both":
        bt, bk, bc = brute
        ct, ck, cc = closed
        diff = _first_difference(bt, ct)
        if diff is not None:
            h, i, j = diff
            raise OracleMismatch(n, q, h, i, j, int(ct[h, i, j]), int(bt[h, i, j]))
        if bk != ck:
            raise OracleMismatch(n, q, 0, -1, -1, ck, bk)
        if bc != cc:
            raise AssertionError(f"conjugation maps disagree: {bc} vs {cc}")

    tensor, valencies, conj_map = brute if brute is not None else closed
    tensor.flags.writeable = False
    sd = SchemeDescriptor(
        n=n, q=q, rank=rank, valencies=tuple(valencies), tensor=tensor,
        conj_map=conj_map, sub_count=isotropic_count(n - 2, q),
        parity_offset=parity_offset(q), mode=mode,
    )
    _check_descriptor(sd)
    return sd, us


def intersection_matrices(sd: SchemeDescriptor) -> list[list[list[int]]]:
    """Matrices with (j, h) entry p_ij^h; they close under multiplication."""
    return sd.tensor.transpose(1, 2, 0).tolist()


def is_commutative(sd: SchemeDescriptor) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether p_ij^h = p_ji^h everywhere; if not, the first violating triple.

    The first difference in (h, i, j) order always has i < j, since its
    mirror (h, j, i) differs too.
    """
    diff = _first_difference(sd.tensor, sd.tensor.transpose(0, 2, 1))
    return diff is None, diff


# ---------------------------------------------------------------------------
# exhaustive verification


@dataclass
class AxiomReport:
    passed: bool
    checks: list[tuple[str, bool, str]]

    def failing(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]


def relation_matrix(us: UnitarySpace) -> np.ndarray:
    """Full pairwise classification matrix over the enumerated vectors."""
    check_budget("pairs", us.size**2)
    return kernels.classify_matrix(us.block_codes, us.tables)


@dataclass(frozen=True)
class _Structure:
    """One pass over the pair codes of a relation matrix: ``sizes[l]`` pairs
    lie in relation l, ``present`` relations are non-empty, ``rows[x, l]``
    points y have M[x, y] = l, the reversed pairs of relation l fall in
    ``spread[l]`` relations (0 when l is empty), ``conj[l]`` is that relation
    where it is unique, and ``split`` is the first relation whose spread is
    not 1."""

    rank: int
    sizes: list[int]
    present: int
    rows: np.ndarray
    identity: bool
    spread: np.ndarray
    conj: tuple[int, ...]
    split: int | None


def _label_range(M: np.ndarray) -> tuple[int, int]:
    """The smallest and largest label of a square, non-empty integer matrix;
    any other matrix raises a ``ValueError``."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("relation matrix must be square")
    if M.size == 0:
        raise ValueError("relation matrix is empty")
    if M.dtype.kind not in "iu":
        raise ValueError("relation labels must be integers")
    return int(M.min()), int(M.max())


def check_labels(M: np.ndarray, rank: int | None = None) -> int:
    """The rank of a square, non-empty integer matrix whose labels lie in
    [0, rank); ``rank`` defaults to the largest label plus one.  Any other
    matrix raises a ``ValueError``."""
    low, high = _label_range(M)
    if rank is None:
        rank = high + 1
    if low < 0 or high >= rank:
        raise ValueError(f"relation labels must lie in 0..{rank - 1}")
    return rank


def _structure(M: np.ndarray, rank: int | None) -> _Structure:
    """Shape and label checks, relation sizes, converse map and row counts.

    ``rank`` defaults to the largest label plus one.  A matrix that is not
    square, is empty, holds labels outside [0, rank) or has more relations
    than points (in a scheme every relation meets every row) raises a
    ``ValueError``; the last bound also keeps the rank x rank histogram small.
    """
    count = M.shape[0]
    rank = check_labels(M, rank)
    if rank > count:
        raise ValueError(f"{rank} relations cannot all meet each row of {count} points")
    labels = M.astype(np.int64)
    # pairs[a, b]: ordered pairs (x, y) with M[x, y] = a and M[y, x] = b
    codes = labels * rank
    codes += labels.T
    pairs = np.bincount(codes.ravel(), minlength=rank * rank).reshape(rank, rank)
    labels += (np.arange(count, dtype=np.int64) * rank)[:, None]
    rows = np.bincount(labels.ravel(), minlength=count * rank).reshape(count, rank)
    sizes = pairs.sum(axis=1).tolist()
    identity = bool((np.diagonal(M) == 0).all()) and sizes[0] == count
    spread = np.count_nonzero(pairs, axis=1)
    split = np.flatnonzero(spread != 1)
    return _Structure(rank, sizes, int(np.count_nonzero(sizes)), rows, identity, spread,
                      tuple(pairs.argmax(axis=1).tolist()), int(split[0]) if split.size else None)


def _triple_counts(M: np.ndarray, st: _Structure) -> tuple[np.ndarray, np.ndarray]:
    """Exact triple counts of a relation matrix, every pair checked.

    ``tensor[h, i, j]`` counts the z with (x, z) in relation i and (z, y) in
    relation j at one representative pair (x, y) of each non-empty relation
    h, and ``varies[h, i, j]`` marks where that count is not constant over
    the pairs of relation h.

    The counts over the relations j of one digit group g0 <= j < g0 + w are
    packed as the base-B digits of one number (Kronecker substitution), with
    B = st.rows.max() + 1 and B^w <= 2^53.  No count exceeds a row count, so
    every digit is below B, every packed sum and partial sum is an integer
    below 2^53, and float64 products compute them exactly in any order.  Row
    x's packed counts for every (i, y) are then one product onehot_x @ P of
    its (rank, N) indicator matrix and P[z, y] = B^(M[z, y] - g0), taken for
    a block of rows at once as a stack of per-row products of at most
    ``BLAS_CALL`` multiply-adds, each compared whole with the packed counts
    of the representative of M[x, y]; digits are unpacked only where the two
    differ.  Time O(G rank N^3) multiply-adds over G = ceil(rank / w) digit
    groups; memory O(N^2 + rank^3 + ROW_BLOCK + N rank).
    """
    count, rank = M.shape[0], st.rank
    labels = M.astype(np.intp)
    relations = np.arange(rank)
    xs = (st.rows > 0).argmax(axis=0)
    ys = (labels[xs] == relations[:, None]).argmax(axis=1)
    tensor = _joint_histogram(labels[xs], labels[:, ys].T, rank)
    varies = np.zeros((rank, rank, rank), dtype=bool)
    base = int(st.rows.max()) + 1
    width = 1
    while width < rank and base ** (width + 1) <= 2**53:
        width += 1
    assert base**width <= 2**53, "packed counts must stay exact in float64"
    rows_per_block = max(1, ROW_BLOCK // (count * rank))
    columns_per_product = max(1, BLAS_CALL // (count * rank))
    indicator = np.eye(rank)
    powers = np.empty((count, count))
    packed = powers.T  # packed[y, z] = B^(M[z, y] - g0), one digit group at a time
    for g0 in range(0, rank, width):
        digits = np.arange(min(width, rank - g0))
        scale = base**digits
        power = np.zeros(rank)
        power[g0:g0 + digits.size] = scale
        # labels lie in [0, rank), so "clip" changes none; unlike "raise", it
        # writes into ``powers`` without an N x N buffer
        np.take(power, labels, out=powers, mode="clip")
        reference = tensor[:, :, g0:g0 + digits.size] @ power[g0:g0 + digits.size]
        for x0 in range(0, count, rows_per_block):
            block = labels[x0:x0 + rows_per_block]
            onehot = np.take(indicator, block, axis=0)  # onehot[x, z, i] = [M[x, z] = i]
            for y0 in range(0, count, columns_per_product):
                cols = block[:, y0:y0 + columns_per_product]
                # got[x, y, i], one product per row x
                got = packed[y0:y0 + columns_per_product] @ onehot
                want = np.take(reference, cols, axis=0)
                differ = got != want
                if differ.any():
                    x, y, i = np.nonzero(differ)
                    wrong = (got[x, y, i].astype(np.int64)[:, None] // scale % base
                             != want[x, y, i].astype(np.int64)[:, None] // scale % base)
                    at, k = np.nonzero(wrong)
                    varies[cols[x[at], y[at]], i[at], g0 + k] = True
    return tensor, varies


def _sampled_pairs(M: np.ndarray, st: _Structure, seed: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of the sampled constancy check: for each relation h in turn,
    min(``SAMPLES_PER_RELATION``, size) picks p drawn uniformly with
    ``random.Random(seed)``, each the p-th pair of h in row-major order.
    Returns the relation and the two points of every pick, in draw order."""
    rng = random.Random(seed)
    relation = np.repeat(np.arange(st.rank), np.minimum(SAMPLES_PER_RELATION, st.sizes))
    picks = np.array([rng.randrange(st.sizes[h]) for h in relation.tolist()], dtype=np.int64)
    # the p-th pair of h lies in the first row whose running count of h
    # exceeds p; offsetting column h by the sizes before it makes the running
    # counts of all relations one non-decreasing array to search
    running = np.cumsum(st.rows, axis=0)
    starts = running[-1].cumsum() - running[-1]
    count = M.shape[0]
    xs = np.searchsorted((running + starts).T.ravel(), picks + starts[relation],
                         side="right") - relation * count
    # it is the r-th point y of row x with M[x, y] = h, counted from 0
    r = picks - running[xs, relation] + st.rows[xs, relation]
    seen = np.cumsum(M[xs] == relation[:, None], axis=1)
    ys = np.count_nonzero(seen <= r[:, None], axis=1)
    return relation, xs, ys


def verify_relation_matrix(M: np.ndarray, rank: int | None = None,
                           sd: SchemeDescriptor | None = None,
                           seed: int = 0) -> AxiomReport:
    """Check the defining axioms on an explicit relation matrix.

    Verifies the partition into relations, the identity relation on the
    diagonal, converse-closure, and constancy of the triple counts over
    ``SAMPLES_PER_RELATION`` random representatives per relation (compared
    against the descriptor tensor when one is supplied).  A malformed matrix, or a
    ``rank`` other than the descriptor's, raises a ``ValueError``.
    """
    M = np.asarray(M)
    if sd is not None:
        if rank is not None and rank != sd.rank:
            raise ValueError(f"rank {rank} differs from the descriptor's rank {sd.rank}")
        rank = sd.rank
    st = _structure(M, rank)
    checks: list[tuple[str, bool, str]] = [
        ("partition", st.present == st.rank, f"{st.present} of {st.rank} relations present"),
        ("identity", st.identity, "diagonal pairs and only those in relation 0"),
    ]

    converse_ok = st.split is None
    detail = "reverse pairs land in a single conjugate relation"
    if not converse_ok:
        detail = f"reversed pairs of relation {st.split} fall in {st.spread[st.split]} relations"
    elif sd is not None and st.conj != sd.conj_map:
        converse_ok = False
        detail = "conjugation map differs from the descriptor"
    checks.append(("converse", converse_ok, detail))

    if sd is not None:
        valency_ok = bool((st.rows == np.asarray(sd.valencies)).all())
        checks.append(("valencies", valency_ok, "every row realises the valencies"))

    relation, xs, ys = _sampled_pairs(M, st, seed)
    hist = _joint_histogram(M[xs], M[:, ys].T, st.rank)
    # each sample against the first sample of its relation, and the descriptor
    split = np.zeros(st.rank, dtype=bool)
    split[relation[(hist != hist[np.searchsorted(relation, relation)]).any(axis=(1, 2))]] = True
    off = np.zeros(st.rank, dtype=bool)
    if sd is not None:
        off[relation[(hist != sd.tensor[relation]).any(axis=(1, 2))]] = True
    failing = np.flatnonzero(split | off)
    constancy_ok = not failing.size
    detail = f"triple counts constant over {SAMPLES_PER_RELATION} sampled pairs per relation"
    if not constancy_ok:
        h = int(failing[0])
        detail = (f"triple counts differ between representatives of relation {h}" if split[h]
                  else f"triple counts at relation {h} differ from the descriptor")
    checks.append(("constancy", constancy_ok, detail))

    return AxiomReport(passed=all(ok for _, ok, _ in checks), checks=checks)


def verify_scheme_axioms(us: UnitarySpace, sd: SchemeDescriptor | None = None,
                         seed: int = 0) -> AxiomReport:
    """Exhaustively classify all pairs and check the scheme axioms."""
    return verify_relation_matrix(relation_matrix(us), sd=sd, seed=seed)


# ---------------------------------------------------------------------------
# dense adjacency algebra


def build_adjacency_matrices(us: UnitarySpace, sd: SchemeDescriptor) -> list[np.ndarray]:
    """0/1 adjacency matrices of all relations, verified to span the algebra:
    A_i A_j = sum_h p_ij^h A_h holds exactly."""
    check_budget("dense", us.size)
    M = kernels.classify_matrix(us.block_codes, us.tables)
    st = _structure(M, sd.rank)
    if not st.identity:
        raise AssertionError("relation 0 is not the identity")
    tensor, varies = _triple_counts(M, st)
    bad = np.argwhere((varies | (tensor != sd.tensor)).any(axis=0))
    if bad.size:
        i, j = bad[0]
        raise AssertionError(f"A_{i} A_{j} does not decompose over the relations")
    if tuple(st.rows[0].tolist()) != sd.valencies or st.conj != sd.conj_map:
        raise AssertionError("valencies or conjugation map differ from the descriptor")
    return [(M == l).astype(np.int64) for l in range(sd.rank)]


def scheme_from_relation_matrix(M: np.ndarray):
    """Validate an arbitrary relation matrix as an association scheme and
    recover (rank, valencies, conjugation map, tensor) exactly.

    Constancy of the triple counts is verified for every ordered pair, so
    this is a full check.
    """
    M = np.asarray(M)
    check_budget("dense", max(M.shape, default=0))
    st = _structure(M, None)
    if st.present != st.rank:
        raise ValueError("relation labels must be 0..rank-1 with every label present")
    if not st.identity:
        raise ValueError("relation 0 must be exactly the diagonal")
    if st.split is not None:
        raise ValueError(f"reversed pairs of relation {st.split} do not form one relation")
    tensor, varies = _triple_counts(M, st)
    bad = np.argwhere(varies.transpose(1, 2, 0))
    if bad.size:
        i, j, h = bad[0]
        raise ValueError(f"triple count (h,i,j)=({h},{i},{j}) is not constant")
    return (st.rank, tuple(st.rows[0].tolist()), st.conj,
            tuple(tuple(map(tuple, mat)) for mat in tensor.tolist()))


def fuse_relation_matrix(M: np.ndarray, blocks) -> np.ndarray:
    """Relabel a relation matrix by uniting the relations inside each block.

    A matrix that is not square, is empty, is not of integers or holds a
    negative label, and blocks that leave a label out, list it twice or
    list a relation beyond the largest label, raise a ``ValueError``.
    """
    M = np.asarray(M)
    low, high = _label_range(M)
    if low < 0:
        raise ValueError(f"relation labels must be non-negative, not {low}")
    block_of = {}
    for b, block in enumerate(blocks):
        for l in block:
            if not 0 <= l <= high:
                raise ValueError(f"relation {l} is not a label of the matrix, 0..{high}")
            if l in block_of:
                raise ValueError(f"relation {l} lies in blocks {block_of[l]} and {b}")
            block_of[l] = b
    labels = range(high + 1)
    missing = [l for l in labels if l not in block_of]
    if missing:
        raise ValueError(f"relation {missing[0]} lies in no block")
    return np.array([block_of[l] for l in labels], dtype=np.int64)[M]

"""Independent oracles used by the tests.

Field elements are coefficient tuples with schoolbook polynomial arithmetic
modulo the same pinned Conway polynomials the library uses; apart from the
last three sections, nothing here touches the library's lookup tables,
discrete logs, or kernels.  The brute-force functions are slow on purpose and
only run at small sizes; the orthogonal-decomposition count enumerates only
vectors of F_{q^2}^2 and covers every supported (n, q).  The first of the
last three sections decodes the points of a library ``UnitarySpace`` and
counts single intersection numbers over it with one row and one column pass
each, independently of the relabelled histograms and sampled tensors of the
library's brute-force route.  The second counts the triple counts of a
relation matrix one row of joint histograms at a time and its sampled
constancy check one pick at a time, against the packed products and batched
histograms of the library's relation-matrix validators.  The third writes
integer blocks by one ``%`` pass, against the library's table of decimal
words.  The last two sections hold the character-table identities as one
four-product Z[w] matrix product at a time, against the library's batched
three-product form, and the spot check's assembled tensor, against its
slice-by-slice check.
"""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np

from unitary_schemes import kernels
from unitary_schemes.chartable import second_eigenmatrix
from unitary_schemes.eisenstein import Eisenstein
from unitary_schemes.scheme import _tensor_from_histograms, scheme_rank
from unitary_schemes.space import witness_pair

CONWAY = {
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
}

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2)}


class RefField:
    """F_{q^2} as coefficient tuples over the prime field."""

    def __init__(self, q):
        p, k = PRIME_POWERS[q]
        self.q = q
        self.p = p
        self.m = 2 * k
        self.conway = CONWAY[(p, self.m)]
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)
        self.x = (0, 1) + (0,) * (self.m - 2)
        # elements ordered as the library ids: zero, then ascending powers of x
        self.elements = [self.zero]
        value = self.one
        for _ in range(q * q - 1):
            self.elements.append(value)
            value = self.mul(value, self.x)
        assert value == self.one
        assert len(set(self.elements)) == q * q

    def add(self, a, b):
        return tuple((u + v) % self.p for u, v in zip(a, b))

    def neg(self, a):
        return tuple((-u) % self.p for u in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.m - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] = (prod[i + j] + u * v) % self.p
        for deg in range(2 * self.m - 2, self.m - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(self.m):
                    prod[deg - self.m + i] = (prod[deg - self.m + i] - c * self.conway[i]) % self.p
        return tuple(prod[: self.m])

    def pw(self, a, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def conj(self, a):
        return self.pw(a, self.q)

    def wlog(self, a):
        """Discrete log by linear scan of the power list."""
        assert a != self.zero
        return self.elements.index(a) - 1

    def id_of(self, a):
        return self.elements.index(a)


def inner(F, x, y):
    acc = F.zero
    for u, v in zip(x, y):
        acc = F.add(acc, F.mul(u, F.conj(v)))
    return acc


def isotropic_vectors(F, n):
    """All nonzero isotropic vectors, in the library's canonical order."""
    out = []
    for vec in itertools.product(F.elements, repeat=n):
        if all(c == F.zero for c in vec):
            continue
        if inner(F, vec, vec) == F.zero:
            out.append(vec)
    return out


def classify(F, x, y):
    """Sequential relation index of the ordered pair (x, y)."""
    nrel = F.q * F.q - 1
    ip = inner(F, x, y)
    if ip != F.zero:
        return nrel + F.wlog(ip)
    for e in range(nrel):
        lam = F.elements[e + 1]
        if all(yc == F.mul(lam, xc) for xc, yc in zip(x, y)):
            return e
    return 2 * nrel


def tensor(F, vectors, rank):
    """Intersection numbers over all triples from one representative each,
    with constancy verified over every representative pair."""
    labels = {}
    for a, x in enumerate(vectors):
        for b, y in enumerate(vectors):
            labels[a, b] = classify(F, x, y)
    reps = {}
    for (a, b), h in labels.items():
        reps.setdefault(h, []).append((a, b))
    count = len(vectors)
    out = {}
    for h in range(rank):
        seen = None
        for a, b in reps[h]:
            counts = [[0] * rank for _ in range(rank)]
            for z in range(count):
                counts[labels[a, z]][labels[z, b]] += 1
            if seen is None:
                seen = counts
            else:
                assert counts == seen, f"relation {h} counts depend on the pair"
        out[h] = seen
    return out


def hyperbolic_partner_scan(F, u):
    """Isotropic v with <u, v> = 1 by the original canonical-order scan.

    Takes the first w in canonical vector order with <u, w> != 0, rescales it
    to <u, w> = 1 and subtracts the first multiple lam * u (lam in canonical
    element order) with lam + conj(lam) = <w, w>.
    """
    for w in itertools.product(F.elements, repeat=len(u)):
        c = inner(F, u, w)
        if c != F.zero:
            break
    scale = F.pw(F.conj(c), F.q * F.q - 2)  # 1 / conj(c)
    w = tuple(F.mul(scale, wc) for wc in w)
    ww = inner(F, w, w)
    lam = next(a for a in F.elements if F.add(a, F.conj(a)) == ww)
    return tuple(F.add(wc, F.neg(F.mul(lam, uc))) for wc, uc in zip(w, u))


# ---------------------------------------------------------------------------
# Intersection numbers by orthogonal decomposition, without enumeration
#
# Every witness pair (x, y) lies in the first d coordinates (d = 2, or d = 4
# for the perpendicular relation), which span a non-degenerate U; the other
# m = n - d coordinates span W = U^perp.  A point z = u + w (u in U, w in W)
# with w != 0 is never a multiple of x or y, so the relations of (x, z) and
# (z, y) depend only on <x, u> and <u, y>, and the number of such w with
# <w, w> = -<u, u> is N_m(-<u, u>) - [<u, u> = 0].  The points with w = 0 lie
# in U and are classified exactly.  Each relation therefore gives one
# histogram over u, keyed by (relation of (x, u), relation of (u, y), slot),
# where slot is <u, u> for the w != 0 terms and the extra slot q^2 for the
# w = 0 terms, which count once.  The histograms do not depend on n.


def _id_tables(F):
    """Addition, multiplication and conjugation on element ids."""
    index = {a: k for k, a in enumerate(F.elements)}
    add = np.array([[index[F.add(a, b)] for b in F.elements] for a in F.elements])
    mul = np.array([[index[F.mul(a, b)] for b in F.elements] for a in F.elements])
    conj = np.array([index[F.conj(a)] for a in F.elements])
    return add, mul, conj


@functools.lru_cache(maxsize=None)
def _decomposition(q):
    """Per q: the negation map, N_1, and the sparse local histograms of the
    relations with d = 2 and of the perpendicular relation, as sorted
    (code, count) pairs with code = ((h * L + i) * L + j) * (Q + 1) + slot."""
    F = RefField(q)
    Q, nrel = q * q, q * q - 1
    L = 2 * nrel + 1  # relation labels: scalar e, product e, perpendicular
    perp = 2 * nrel
    add, mul, conj = _id_tables(F)
    neg = (add == 0).argmax(axis=1)
    ids = np.arange(Q)

    # the local vectors of one hyperbolic plane, in lexicographic order, so
    # that the vector (a, b) sits at row a * Q + b
    V = np.array(list(itertools.product(range(Q), repeat=2)))

    def inner(x, y):
        return add[mul[x[..., 0], conj[y[..., 0]]], mul[x[..., 1], conj[y[..., 1]]]]

    def product_label(c):
        # id k is g^(k-1): a nonzero product <., .> = g^e has label nrel + e
        return np.where(c == 0, perp, nrel + c - 1)

    def multiples(v):
        # exponent e at the row of g^e v, -1 elsewhere
        out = np.full(Q * Q, -1)
        out[mul[ids[1:], v[0]] * Q + mul[ids[1:], v[1]]] = ids[1:] - 1
        return out

    norm = inner(V, V)
    fq = np.unique(norm)  # the ids of F_q, where the norms land
    isotropic = norm == 0
    isotropic[0] = False  # the zero vector
    a = int(np.flatnonzero(mul[ids, conj] == neg[1])[0])
    x = np.array([1, a])  # (1, a) with a * conj(a) = -1
    of_x = multiples(x)
    x_generic = product_label(inner(x, V))
    x_exact = np.where(of_x >= 0, of_x, x_generic)  # (x, g^e x) is scalar e

    def label_towards(y):
        """Relations of (u, y) for u != 0 outside U, and for u in U."""
        generic = product_label(inner(V, y))
        of_y = multiples(y)  # y = g^-e (g^e y): (g^e y, y) is scalar -e
        return generic, np.where(of_y >= 0, (-of_y) % nrel, generic)

    codes = []
    for h in range(perp):
        if h < nrel:
            y = mul[h + 1, x]
        else:
            y = V[np.flatnonzero((inner(x, V) == h - nrel + 1) & (norm == 0))[0]]
        y_generic, y_exact = label_towards(y)
        cell = (h * L + x_generic) * L + y_generic
        codes.append(cell * (Q + 1) + norm)
        cell = (h * L + x_exact[isotropic]) * L + y_exact[isotropic]
        codes.append(cell * (Q + 1) + Q)
    codes = np.concatenate(codes)
    local = np.unique(codes, return_counts=True)

    # perpendicular relation: x = (1, a) in U_1 (coordinates 1-2) and
    # y = (1, a) in U_2 (coordinates 3-4), joined over <u1, u1> + <u2, u2>
    y_generic, y_exact = label_towards(x)
    G1 = np.zeros((L, Q), dtype=np.int64)
    G2 = np.zeros((L, Q), dtype=np.int64)
    np.add.at(G1, (x_generic, norm), 1)
    np.add.at(G2, (y_generic, norm), 1)
    H = np.zeros((L, L, Q + 1), dtype=np.int64)
    for c1 in fq:
        for c2 in fq:
            H[:, :, add[c1, c2]] += np.outer(G1[:, c1], G2[:, c2])
    # w = 0: u = u1 + u2 != 0 and isotropic; u is a multiple of x only when
    # u2 = 0, and of y only when u1 = 0
    np.add.at(H[:, :, Q], (x_exact[isotropic], perp), 1)
    np.add.at(H[:, :, Q], (perp, y_exact[isotropic]), 1)
    G1[perp, 0] -= 1  # u1 != 0 and u2 != 0 from here on
    G2[perp, 0] -= 1
    for c1 in fq:
        H[:, :, Q] += np.outer(G1[:, c1], G2[:, neg[c1]])
    cells = np.flatnonzero(H)
    perp_local = (perp * L * L * (Q + 1) + cells, H.ravel()[cells])

    N1 = np.bincount(mul[ids, conj], minlength=Q)
    return add, neg, N1, local, perp_local


def norm_counts(q, m):
    """N_m: for each element id t, the number of w in F_{q^2}^m with
    <w, w> = t, as the m-fold additive convolution of the one-coordinate
    counts N_1.  Every count is at most q^(2m), below 2^63 wherever used."""
    add, _, N1, _, _ = _decomposition(q)
    out = np.zeros(q * q, dtype=np.int64)
    out[0] = 1
    for _ in range(m):
        nxt = np.zeros_like(out)
        np.add.at(nxt, add, np.outer(out, N1))
        out = nxt
    return out


def decomposition_tensor(n, q):
    """The (rank, rank, rank) intersection tensor counted by orthogonal
    decomposition.  Each weighted sum counts the points of one intersection
    set, so the int64 arithmetic is exact below 2^63 points."""
    _, neg, _, local, perp_local = _decomposition(q)
    Q, nrel = q * q, q * q - 1
    L = 2 * nrel + 1
    flat = np.zeros(L**3, dtype=np.int64)
    for (codes, counts), m in ((local, n - 2), (perp_local, n - 4)):
        if m < 0:
            continue
        weight = norm_counts(q, m)[neg]  # N_m(-c) for slot c
        weight[0] -= 1  # w != 0
        weight = np.append(weight, 1)  # slot Q: w = 0
        np.add.at(flat, codes // (Q + 1), counts * weight[codes % (Q + 1)])
    full = flat.reshape(L, L, L)
    rank = L if n >= 4 else L - 1
    assert not full[:, rank:].any() and not full[:, :, rank:].any(), (
        f"perpendicular pairs counted in dimension {n}")
    return full[:rank, :rank, :rank]


def assert_matches_decomposition(tensor, n, q):
    """Raise an AssertionError naming the first entry of ``tensor`` that
    differs from the orthogonal-decomposition count."""
    expected = decomposition_tensor(n, q)
    assert tensor.shape == expected.shape, f"shape {tensor.shape}, expected {expected.shape}"
    diff = np.argwhere(tensor != expected)
    if diff.size:
        h, i, j = (int(v) for v in diff[0])
        raise AssertionError(
            f"tensor[{h}, {i}, {j}] = {tensor[h, i, j]}, orthogonal decomposition"
            f" counts {expected[h, i, j]} at (n, q) = ({n}, {q})")


# ---------------------------------------------------------------------------
# Points of a library space, and single counts over them


def vectors(us):
    """All points of ``us`` as a (size, n) int64 array, decoded from its codes."""
    return kernels.digits(us.codes, us.ft.order, us.n)


def intersection_number_bruteforce(us, h, i, j, pair=None):
    """Count z with (x, z) in relation i and (z, y) in relation j, for the
    canonical representative (x, y) of relation h (or an explicit ``pair``)."""
    rank = scheme_rank(us.n, us.q)
    for l in (h, i, j):
        if not 0 <= l < rank:
            raise ValueError(f"relation index {l} out of range [0, {rank - 1}]")
    x, y = witness_pair(h, us.n, us.q) if pair is None else pair
    rows = kernels.classify_row(x, us.block_codes, us.tables)
    cols = kernels.classify_col(y, us.block_codes, us.tables)
    return int(np.sum((rows == i) & (cols == j)))


def sample_representatives(us, h, count, rng: random.Random):
    """``count`` random ordered pairs in relation h: a uniformly random first
    point a, then a partner drawn uniformly from row(a)'s points in h."""
    pairs = []
    for _ in range(count):
        a = rng.randrange(us.size)
        rows = kernels.classify_row(us.point(a), us.block_codes, us.tables)
        partners = np.flatnonzero(rows == h)
        pairs.append((us.point(a), us.point(int(partners[rng.randrange(partners.size)]))))
    return pairs


# ---------------------------------------------------------------------------
# Triple counts of a relation matrix, one row of joint histograms at a time


def triple_counts(M, st):
    """``(tensor, varies)`` as ``scheme._triple_counts`` defines them, counted
    by one ``bincount`` of every (y, M[x, z], M[z, y]) per row x, with no
    packing and no floating point.  Time O(N^3 + N^2 rank^2), memory
    O(N^2 + N rank^2)."""
    count, rank = M.shape[0], st.rank
    square = rank * rank
    xs = (st.rows > 0).argmax(axis=0)
    ys = (M[xs] == np.arange(rank)[:, None]).argmax(axis=1)
    labels = M.astype(np.int64)
    # cols[z, y] + M[x, z] * rank is the cell (y, M[x, z], M[z, y]) of row x's counts
    cols = labels + np.arange(count, dtype=np.int64) * square
    tensor = np.zeros((rank, rank, rank), dtype=np.int64)
    varies = np.zeros((rank, rank, rank), dtype=bool)
    for x in range(count):
        counts = np.bincount((cols + labels[x, :, None] * rank).ravel(),
                             minlength=count * square).reshape(count, rank, rank)
        first = np.flatnonzero(xs == x)  # relations first met in row x
        tensor[first] = counts[ys[first]]
        wrong = counts != tensor[labels[x]]
        if wrong.any():
            y, i, j = np.nonzero(wrong)
            varies[labels[x, y], i, j] = True
    return tensor, varies


def sampled_constancy(M, st, tensor, seed, samples=5):
    """``(ok, detail)`` of the sampled constancy check, one pick at a time:
    per relation h, ``samples`` draws p of ``random.Random(seed)``, each the
    p-th pair of h in ``np.nonzero`` order, with the joint histogram of
    (M[x, z], M[z, y]) over z compared with the first pick's and then, when
    ``tensor`` is given, with ``tensor[h]``."""
    rank = st.rank
    rng = random.Random(seed)
    for h in range(rank):
        hx, hy = np.nonzero(M == h)
        picks = [rng.randrange(hx.size) for _ in range(min(samples, hx.size))]
        hists = [np.bincount(M[hx[p]].astype(np.int64) * rank + M[:, hy[p]],
                             minlength=rank * rank).reshape(rank, rank) for p in picks]
        if any(not np.array_equal(hist, hists[0]) for hist in hists):
            return False, f"triple counts differ between representatives of relation {h}"
        if tensor is not None and hists and not np.array_equal(hists[0], tensor[h]):
            return False, f"triple counts at relation {h} differ from the descriptor"
    return True, f"triple counts constant over {samples} sampled pairs per relation"


# ---------------------------------------------------------------------------
# Integer blocks, one ``%`` pass


def append_rows(lines, rows, sep):
    """``serialize._append_rows`` as one ``%`` template over ``rows.tolist()``:
    a ``%d`` per entry, ``sep`` between the entries of a row and a newline
    between rows."""
    count, width = rows.shape
    if count:
        template = "\n".join([sep.join(["%d"] * width)] * count)
        lines.append(template % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# Z[w] identities of a character table, one product at a time


def zw_matmul(x, y):
    """(A + B w)(C + D w) for (2, ...) stacks of object arrays, by four
    integer products: (AC - BD, AD + BC - BD)."""
    (a, b), (c, d) = x, y
    bd = b @ d
    return np.stack([a @ c - bd, a @ d + b @ c - bd])


def minimal_polynomial_annihilates(ct, intersection_mats):
    """``chartable.minimal_polynomial_annihilates`` column by column, as the
    product of the factors B_j - v I, one Z[w] matrix product per distinct
    value v of column j."""
    identity = np.identity(ct.size, dtype=object)
    for j in range(ct.size):
        b = np.asarray(intersection_mats[j], dtype=object)
        product = np.stack([identity, identity * 0])
        for va, vb in dict.fromkeys(zip(*ct.p[:, :, j].tolist())):
            product = zw_matmul(product, np.stack([b - va * identity, -vb * identity]))
        if ((product[0] != 0) | (product[1] != 0)).any():
            return False
    return True


def idempotents(ct, adjacency):
    """``chartable.idempotents`` one E_i at a time: F_i^2 = L order F_i by
    ``zw_matmul``, then the trace, then the conversion to Eisenstein values
    with a value cache of its own."""
    lq, lcm = second_eigenmatrix(ct)
    scale = lcm * ct.order
    points = adjacency[0].shape[0]
    masks = (np.asarray(adjacency) != 0).astype(np.int64).reshape(len(adjacency), -1)
    f = (lq.transpose(0, 2, 1) @ masks).reshape(2, ct.size, points, points)
    out = []
    for i in range(ct.size):
        fi = f[:, i]
        square = zw_matmul(fi, fi)
        if ((square[0] != fi[0] * scale) | (square[1] != fi[1] * scale)).any():
            raise AssertionError(f"E_{i} is not idempotent")
        trace = tuple(fi.trace(axis1=1, axis2=2))
        if trace != (ct.multiplicities[i] * scale, 0):
            raise AssertionError(f"E_{i} has trace {Eisenstein(*trace) / scale}, "
                                 f"expected {ct.multiplicities[i]}")
        value = functools.cache(lambda a, b: Eisenstein(Fraction(a, scale), Fraction(b, scale)))
        out.append(tuple(tuple(map(value, ra, rb)) for ra, rb in zip(*fi.tolist())))
    return out


# ---------------------------------------------------------------------------
# The spot check's assembly, on a whole second tensor


def assembly_differs(q, tensor):
    """By relation, whether ``tensor`` differs from the whole tensor that
    ``_tensor_from_histograms`` assembles from its product-0 and
    perpendicular slices."""
    nrel = q * q - 1
    slices = tensor[np.arange(nrel, tensor.shape[0], nrel)]
    return (_tensor_from_histograms(q, slices)[0] != tensor).any(axis=(1, 2))

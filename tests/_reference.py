"""Independent oracles used by the tests.

Field elements are coefficient tuples with schoolbook polynomial arithmetic
modulo the same pinned Conway polynomials the library uses; apart from the
last three sections, nothing here touches the library's lookup tables,
discrete logs, or kernels.  The brute-force functions are slow on purpose and
only run at small sizes; the orthogonal-decomposition count enumerates only
vectors of F_{q^2}^2 and covers every supported (n, q).  The first of the
last three sections decodes the points of a library ``UnitarySpace`` and
counts single intersection numbers over it with one row pass and a
schoolbook ``classify`` of every (z, y), independently of the relabelled
histograms and sampled tensors of the library's brute-force route.  The
second counts the structure of a relation matrix over the whole matrix at
once, its triple counts one row of joint histograms at a time and its
sampled constancy check one pick at a time, against the row blocks, packed
products and batched histograms of the library's relation-matrix
validators.  The third writes
integer blocks by one ``%`` pass, against the library's table of decimal
words.  The next two sections hold the character-table identities as one
four-product Z[w] matrix product at a time, against the library's batched
three-product form, and the spot check's assembled tensor, against its
slice-by-slice check.  The next counts isotropic vectors by a transfer
matrix over the coordinates, on the library's field tables, against its
count by additive characters.  The last reads a character-table document
one entry at a time, against the library's one scan of the whole table.
"""

import functools
import itertools
import random
import re
from fractions import Fraction

import numpy as np

from unitary_schemes import kernels
from unitary_schemes.chartable import CharTable, second_eigenmatrix
from unitary_schemes.eisenstein import Eisenstein
from unitary_schemes.scheme import _Structure, _tensor_from_histograms, check_labels, scheme_rank
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


def full_codes(blocks, order, n):
    """The lexicographic codes head * order**ceil(n/2) + tail of points given
    by their (N, 2) block codes, as int64."""
    return blocks[:, 0].astype(np.int64) * order ** -(-n // 2) + blocks[:, 1]


def vectors(us):
    """All points of ``us`` as a (size, n) int64 array, decoded from its block codes."""
    return kernels.digits(full_codes(us.block_codes, us.ft.order, us.n), us.ft.order, us.n)


def intersection_number_bruteforce(us, h, i, j, pair=None):
    """Count z with (x, z) in relation i and (z, y) in relation j, for the
    canonical representative (x, y) of relation h (or an explicit ``pair``)."""
    rank = scheme_rank(us.n, us.q)
    for l in (h, i, j):
        if not 0 <= l < rank:
            raise ValueError(f"relation index {l} out of range [0, {rank - 1}]")
    x, y = witness_pair(h, us.n, us.q) if pair is None else pair
    rows = kernels.classify_row(x, us.block_codes, us.tables)
    F = RefField(us.q)
    yref = [F.elements[c] for c in y]
    cols = np.array([classify(F, [F.elements[c] for c in z], yref)
                     for z in vectors(us).tolist()])
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
# The structure and triple counts of a relation matrix, the structure over
# the whole matrix at once and the triple counts one row of joint histograms
# at a time


def structure(M, rank):
    """``scheme._structure`` counted over whole-matrix int64 copies of the
    labels, with the same checks and messages."""
    count = M.shape[0]
    rank = check_labels(M, rank)
    if rank > count:
        raise ValueError(f"{rank} relations cannot all meet each row of {count} points")
    labels = M.astype(np.int64)
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


def assert_same_structure(got, want):
    """Raise an AssertionError naming the first field where two
    ``_Structure`` values differ, arrays compared with their dtypes."""
    for name in got.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


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
    between rows, appended as one string.  The byte writer appends a string
    per chunk of rows instead, so compare the two after joining with
    newlines."""
    count, width = rows.shape
    if count:
        template = "\n".join([sep.join(["%d"] * width)] * count)
        lines.append(template % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# Z[w] identities of a character table, one product at a time

# the units 1, w and w-bar = w^2 = -1 - w as integer pairs (A, B) of A + B w,
# for writing tables in the paper's notation
ONE, W, WB = (1, 0), (0, 1), (-1, -1)


def zw(x, unit=ONE):
    """The integer pair of x * ``unit``, x an integer."""
    return x * unit[0], x * unit[1]


def zw_rows(rows):
    """Rows of integers and pairs with every integer x made the pair (x, 0)."""
    return [[x if isinstance(x, tuple) else zw(x) for x in row] for row in rows]


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
        value = functools.cache(lambda a, b: Eisenstein(Fraction(a, scale), Fraction(b, scale)))
        trace = tuple(fi.trace(axis1=1, axis2=2))
        if trace != (ct.multiplicities[i] * scale, 0):
            raise AssertionError(f"E_{i} has trace {value(*trace)}, "
                                 f"expected {ct.multiplicities[i]}")
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


# ---------------------------------------------------------------------------
# Isotropic counts by a transfer matrix over the coordinates: the state after
# k coordinates counts the prefixes z in F^k by their (<z, z>, <x, z>,
# <z, y>) over those coordinates, one cell for each value in F_q x F x F, and
# coordinate k moves every count by (N(c), x_k conj(c), c conj(y_k)) for each
# of the q^2 values c of z_k.


def count_isotropic_transfer(ft, xs, ys):
    """``kernels.count_isotropic`` by the transfer matrix, for a stack of pairs.

    The first two coordinates are written directly, by one ``bincount`` of
    every prefix.  After that each pair's state is kept in coordinates of its
    own: stored cell (a, b) holds the count of the cell M(a, b) = (x_k a,
    conj(y_k) b) of <x, z> and <z, y>, with a - conj(b) in place of x_k a
    when x_k = 0 and b - conj(a) in place of conj(y_k) b when y_k = 0.  M is
    an F_q-linear bijection of F^2 that takes (conj(c), c) to the move of
    coordinate k, so in stored coordinates every pair moves by (N(c),
    conj(c), c), and one gather index serves the whole stack.  A pair with
    x_k = y_k = 0 moves only its norm and keeps its M.  The last coordinate
    fills only the cells of norm 0.  Exact in int64: before the last
    coordinate a cell counts at most q^(2n-2) vectors of F^(n-1).
    """
    pairs, n = xs.shape
    order, q = ft.order, ft.q
    assert order ** (n - 1) < 1 << 63, "counts before the last coordinate must fit int64"
    add, mul, conj = ft.add_table, ft.mul_table, ft.conj_table
    sub = add[:, ft.neg_table]  # sub[a, b] = a - b
    ids = np.arange(order)
    base = np.asarray(ft.base_field)
    slot = np.zeros(order, dtype=np.int64)  # norms are kept by their place in F_q
    slot[base] = np.arange(q)
    square = order * order
    ybar = conj[ys]

    # every prefix of the first coordinates, by its cell
    nu = np.zeros(1, dtype=np.int64)
    alpha = beta = np.zeros((pairs, 1), dtype=np.int64)
    for k in range(min(n, 2)):
        nu = add[nu[:, None], ft.norm_table].ravel()
        alpha = add[alpha[:, :, None], mul[xs[:, k, None, None], conj]].reshape(pairs, -1)
        beta = add[beta[:, :, None], mul[ids, ybar[:, k, None, None]]].reshape(pairs, -1)
    cells = (slot[nu] * square + alpha * order + beta) * pairs + np.arange(pairs)[:, None]
    state = np.bincount(cells.ravel(), minlength=q * square * pairs).reshape(-1, pairs)

    # norm_shift[t, c]: the norm that c moves to norm t; spread[t, s]: the
    # values c that move norm s to t
    norm_shift = slot[sub[base[:, None], ft.norm_table]]
    spread = (norm_shift[:, :, None] == np.arange(q)).sum(axis=1)
    # M of every pair at every later coordinate, as the cell of each stored cell
    a, b = ids[:, None], ids[None, :]
    x, y = xs[:, 2:, None, None], ybar[:, 2:, None, None]
    maps = (np.where(x != 0, mul[x, a], sub[a, conj[b]]) * order
            + np.where(y != 0, mul[y, b], sub[b, conj[a]])).reshape(pairs, -1, square)
    columns = np.arange(pairs)
    rows = columns[:, None]
    cell_of = np.tile(np.arange(square), (pairs, 1))
    stored = cell_of.copy()  # M^-1
    for k in range(2, n):
        moving = (xs[:, k] != 0) | (ys[:, k] != 0)
        cell_of[moving] = maps[moving, k - 2]
        source = stored[rows, cell_of]
        stored[rows, cell_of] = np.arange(square)
        # the same gather for every norm, by an index of one norm's cells
        state = state.reshape(q, -1).take((source.T * pairs + columns).ravel(), axis=1
                                          ).reshape(-1, pairs)
        targets = 1 if k == n - 1 else q
        new = np.empty((targets * square, pairs), dtype=np.int64)
        # a contiguous copy, so that ``take`` copies whole rows
        new[:, moving] = _transfer_moved(np.ascontiguousarray(state[:, moving]),
                                         norm_shift[:targets], sub, conj)
        new[:, ~moving] = (spread[:targets] @ state[:, ~moving].reshape(q, -1)
                           ).reshape(targets * square, -1)
        state = new
    state = state.reshape(-1, pairs)[:square]  # norm 0
    return state.T[rows, stored].reshape(pairs, order, order)


def _transfer_moved(state, norm_shift, sub, conj):
    """The state after one coordinate, in stored coordinates: cell (t, a, b)
    sums the cells (t - N(c), a - conj(c), b - c) over every c, for the
    target norms of ``norm_shift``."""
    order = conj.size
    out = np.zeros((norm_shift.shape[0] * order * order, state.shape[1]), dtype=np.int64)
    for c in range(order):
        rows = ((norm_shift[:, c, None, None] * order + sub[:, conj[c], None]) * order
                + sub[:, c]).ravel()
        out += state.take(rows, axis=0)
    return out


# ---------------------------------------------------------------------------
# Character-table documents, one entry at a time

_ENTRY = re.compile(r"(-?[0-9]+)([+-])([0-9]+)\*w")


def chartable_from_document(doc):
    """``serialize.chartable_from_document`` by one ``fullmatch``, two ``int``
    calls and one object-array write per entry, then row 0 and column 0
    checked one element at a time."""
    if doc.chartable is None or doc.multiplicities is None:
        raise ValueError("document carries no character table")
    if doc.valencies is None:
        raise ValueError("document carries no valencies")
    size = len(doc.chartable)
    if size != doc.rank or size == 0:
        raise ValueError(f"chartable has {size} rows, the rank line says {doc.rank}")
    for i, row in enumerate(doc.chartable):
        if len(row) != size:
            raise ValueError(f"chartable row {i} has {len(row)} entries, expected {size}")
    for name in ("valencies", "multiplicities"):
        values = getattr(doc, name)
        if len(values) != size:
            raise ValueError(f"{name} has {len(values)} entries, expected {size}")
        if min(values) <= 0:
            raise ValueError(f"{name} must be positive, got {min(values)}")
    if sum(doc.multiplicities) != doc.order:
        raise ValueError(f"multiplicities sum to {sum(doc.multiplicities)}, "
                         f"the order line says {doc.order}")
    p = np.zeros((2, size, size), dtype=object)
    for i, row in enumerate(doc.chartable):
        for j, text in enumerate(row):
            match = _ENTRY.fullmatch(text)
            if match is None:
                raise ValueError(f"chartable row {i}, column {j}: {text} is not in Z[w]")
            a, sign, b = match.groups()
            p[:, i, j] = int(a), int(sign + b)
    for j, k in enumerate(doc.valencies):
        if (p[0, 0, j], p[1, 0, j]) != (k, 0):
            raise ValueError(f"valencies: chartable row 0, column {j} is "
                             f"{doc.chartable[0][j]}, the valency is {k}")
    for i in range(size):
        if (p[0, i, 0], p[1, i, 0]) != (1, 0):
            raise ValueError(f"chartable row {i}, column 0: {doc.chartable[i][0]} is not 1")
    return CharTable(p=p, multiplicities=doc.multiplicities,
                     valencies=doc.valencies, order=doc.order)

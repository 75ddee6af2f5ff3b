"""Hot inner loops: the isotropic scan and the block-table pair classifier.

A point z is stored as two block codes.  Its n coordinates, with n mod 2
zeros in front, are split into two blocks of ``width`` = ceil(n/2)
coordinates, and each block is kept as its lexicographic code, a number
below order**width.  These are the two halves of the scan, so the scan
writes them as it finds the points, in lexicographic order, and a point's
index is start[head] + rank[tail], from two tables the scan also returns.

For a fixed x, one table per block holds the partial Hermitian products
sum_i x_i * conj(z_i) for every possible block of z.  A row pass gathers
each table at the block codes and adds the two blocks, which gives <x, z>
for every point at once.  The kernel takes a stack of r vectors x and
returns an (r, N) uint8 label array for the N points: it gathers
``group_size(N)`` = max(1, CHUNK // N) vectors at a time and builds a
group's tables only when the group runs.  A table has order**width <= N
entries, so a group's tables are never larger than its gather, and the
gather's temporaries stay O(CHUNK) whatever r is; only the output and the
(q^2-1) * r scalar multiples grow with r.  Past ``CHUNK`` points one vector
is gathered at a time.  Field elements in the tables are *packed*: the
coefficient digits of an element over F_p (``FieldTables.coeff_digits``)
are the base-B digits of an integer, with B = n*(p-1)+1, so a sum of at
most n packed elements is an ordinary integer sum without carries, and one
lookup turns it into a label.  Packed
sums stay below B^m, and ``block_tables`` refuses an (n, q) whose B^m or
order**width is above 2^16, so the codes, the tables and their sums are
uint16 (within the scan budget B^m is at most 15625, at (4, 8), and
order**width at most 15625, at (5, 5)); a block's table is built by outer
sums over its coordinates.

The q^2-1 nonzero multiples of x are found among the points by that
index, and x is checked to be a point by reading its blocks back there.

There is no column pass: (z, y) lies in the converse of the relation of
(y, z), so a column is the row of y read through ``label_maps``' conj.

``label_counts`` is the one histogram of labels or label pairs over points,
from the witness tensor to the axiom checks.  It joins ``CHUNK`` labels at a
time into codes, and ``group_size`` sets the blocks of the row passes, of
``label_counts``, of ``scheme``'s blocked loops and of ``serialize``'s writer.

``count_isotropic`` counts by additive characters, without the points, how
many isotropic z of F^n take each value of <x, z> and <z, y>, for pairs (x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import _check_ids, build_field

# Elements (vectors x points) per gather in a row pass, and labels joined
# into codes at a time by ``label_counts``, so that its arrays stay in cache.
CHUNK = 1 << 14
# Multiply-adds per BLAS call of ``_matmul`` (``count_isotropic``, ``scheme._triple_counts``):
# OpenBLAS runs a product of at most 4 * 65536 on the calling thread, and a
# larger one wakes worker threads, which keep spinning after it returns.
BLAS_CALL = 2**17

# ---------------------------------------------------------------------------
# isotropic scan: all nonzero vectors with zero Hermitian self-product, in
# lexicographic order (first coordinate most significant, element ids
# ascending).  Meet in the middle (Horowitz and Sahni, 1974): the
# self-product of a vector is the sum of its two halves' norms, so the
# isotropic vectors with a given first half are that half followed by every
# second half of the opposite norm.


def _half_norms(width: int, size: int, norm_table, add_table) -> np.ndarray:
    """Hermitian self-product of every vector of ``width`` coordinates, by code."""
    rest = np.arange(size**width, dtype=np.int64)
    acc = np.zeros(rest.size, dtype=np.int64)
    for _ in range(width):
        rest, digit = np.divmod(rest, size)
        acc = add_table[acc, norm_table[digit]]
    return acc


def table_width(order: int, n: int) -> int:
    """The block width ceil(n/2), once blocks of that many coordinates are
    checked to have codes that fit uint16."""
    width = -(-n // 2)
    if order**width > 1 << 16:
        raise ValueError(f"block codes below {order}^{width} = {order**width} do not fit"
                         f" uint16 at n = {n}")
    return width


def isotropic_scan(n: int, size: int, norm_table, add_table,
                   expected: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The isotropic vectors among all size**n coordinate vectors, as their
    read-only (N, 2) uint16 block codes, and read-only tables ``start`` and
    ``rank`` by which point (head, tail) is point start[head] + rank[tail].

    The first halves (heads) are taken in increasing code order, each
    followed by its second halves (tails) in increasing order: column 0
    repeats each head over its tails and column 1 copies the tails group by
    group.  ``rank[c]`` is the place of tail c among the tails of its norm,
    and ``start[h]`` counts the points before head h, less one at head 0 for
    the zero vector.
    """
    high = n // 2  # coordinates in the first half, the shorter one
    table_width(size, n)
    first = _half_norms(high, size, norm_table, add_table)
    second = _half_norms(n - high, size, norm_table, add_table)
    # second halves grouped by norm, ascending within each group
    sizes = np.bincount(second, minlength=size)
    ends = np.cumsum(sizes)
    by_norm = np.argsort(second, kind="stable")
    rank = np.empty_like(by_norm)  # the place of each tail among those of its norm
    rank[by_norm] = np.arange(by_norm.size) - np.repeat(ends - sizes, sizes)
    groups = np.split(by_norm.astype(np.uint16), ends[:-1])
    opposite = np.argmax(add_table == 0, axis=1)[first]
    counts = sizes[opposite]
    counts[0] -= 1  # the zero vector, head 0 and the first tail of its group
    if int(counts.sum()) != expected:
        raise AssertionError(f"scan found {int(counts.sum())} isotropic vectors,"
                             f" expected {expected}")
    start = np.cumsum(counts) - counts
    start[0] = -1
    tails = [groups[norm] for norm in opposite.tolist()]
    tails[0] = tails[0][1:]
    # column-major, so that the codes of one block are contiguous
    blocks = np.empty((expected, 2), dtype=np.uint16, order="F")
    blocks[:, 0] = np.repeat(np.arange(first.size, dtype=np.uint16), counts)
    np.concatenate(tails, out=blocks[:, 1])
    for table in (blocks, start, rank):
        table.setflags(write=False)
    return blocks, start, rank


def digits(codes: np.ndarray, size: int, width: int) -> np.ndarray:
    """The ``width`` base-``size`` digits of each code, most significant first."""
    out = codes[:, None] // size ** np.arange(width - 1, -1, -1)
    out %= size
    return out


# ---------------------------------------------------------------------------
# pair classification.  Labels are sequential relation indices:
#   scalar pairs (z = lam * x)        -> log(lam)            in [0, q^2-2]
#   product pairs (<x,z> = g^e != 0)  -> (q^2-1) + e
#   perpendicular independent pairs   -> 2*(q^2-1)


@lru_cache(maxsize=None)
def label_maps(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The relation layout over F_{q^2}, read-only and made once per q.

    ``conj[l]`` is the label of the reversed pairs of relation l: scalar
    exponents negate, product exponents multiply by q and perpendicular
    pairs stay so.  ``scale[s, l]`` is the label of (g^s x, z) when (x, z)
    has label l: scalar exponents drop by s, product exponents rise by s
    (the product is linear in its first argument), and perpendicular pairs
    stay so.  ``product[a]`` is the label of a pair of independent points
    whose inner product is the element id a: perpendicular at 0, else
    product exponent log(a).
    """
    nrel = q * q - 1
    e = np.arange(nrel)
    conj = np.concatenate((-e % nrel, nrel + q * e % nrel, [2 * nrel]))
    s = e[:, None]
    scale = np.concatenate(((e - s) % nrel, nrel + (e + s) % nrel,
                            np.full((nrel, 1), 2 * nrel)), axis=1)
    product = np.concatenate(([2 * nrel], nrel + e))
    for table in (conj, scale, product):
        table.setflags(write=False)
    return conj, scale, product


@dataclass(frozen=True, eq=False)
class BlockTables:
    """Everything a row pass over one space needs that does not depend on x.

    ``digits[c]`` are the element ids of block code c, and
    ``products[a, d]`` is the packed a * conj(d).  ``sum_labels[s]`` is the
    uint8 label of a pair whose packed inner product is s, a zero product
    reading as perpendicular; scalar pairs are set afterwards.  ``place``
    turns a block into its code, and ``start`` and ``rank`` are those of
    ``isotropic_scan``.
    """

    width: int
    pad: np.ndarray
    digits: np.ndarray
    products: np.ndarray
    sum_labels: np.ndarray
    nonzero_mul: np.ndarray
    place: np.ndarray
    start: np.ndarray
    rank: np.ndarray


def block_tables(ft, n: int, start: np.ndarray, rank: np.ndarray) -> BlockTables:
    """The x-independent tables of the row kernel for the points of F^n with
    the scan's ``start`` and ``rank``.  An (n, q) whose packed sums or block
    codes would not fit uint16 raises a ``ValueError`` before any table is made."""
    order, p, q = ft.order, ft.p, ft.q
    assert 2 * (order - 1) < 1 << 8, "labels must fit uint8"
    m = ft.coeff_digits.shape[1]
    base = n * (p - 1) + 1
    if base**m > 1 << 16:
        raise ValueError(f"packed sums below {base}^{m} = {base**m} do not fit uint16"
                         f" at (n, q) = ({n}, {q})")
    width = table_width(order, n)

    packed = ft.coeff_digits @ base ** np.arange(m)
    products = packed[ft.mul_table[:, ft.conj_table]].astype(np.uint16)
    # the base-B digits of a packed sum, reduced modulo p, are its element's
    sums = np.arange(base**m)
    ids = ft.id_of_coeff[(sums[:, None] // base ** np.arange(m) % base % p)
                         @ p ** np.arange(m)]
    return BlockTables(
        width=width, pad=np.zeros(2 * width - n, dtype=np.int64),
        digits=digits(np.arange(order**width), order, width), products=products,
        sum_labels=label_maps(q)[2][ids].astype(np.uint8),
        nonzero_mul=np.ascontiguousarray(ft.mul_table[1:]),
        place=order ** np.arange(width - 1, -1, -1, dtype=np.int64),
        start=start, rank=rank,
    )


def group_size(count: int) -> int:
    """Rows of ``count`` elements per block, as many as fill ``CHUNK`` and at
    least one: the blocks of the row passes, ``label_counts``, scheme and serialize."""
    return max(1, CHUNK // count)


def label_counts(a: np.ndarray, rank: int, b: np.ndarray | None = None) -> np.ndarray:
    """``counts[..., i]``, the places along the last axis of the stack ``a``
    that hold label i, or, given ``b`` of a's shape, ``counts[..., i, j]``,
    those that hold i in ``a`` and j in ``b``, as int64.  The labels, of any
    integer dtype and in [0, rank), are joined into codes ``CHUNK`` at a
    time, ``group_size`` rows of the stack together or one row in chunks,
    in the narrowest unsigned dtype that holds them; ``bincount`` widens
    them to intp."""
    pair = b is not None
    cells = rank * rank if pair else rank
    length = a.shape[-1]
    rows = a.reshape(math.prod(a.shape[:-1]), length)
    other = b.reshape(rows.shape) if pair else None
    group = group_size(max(length, 1))
    code = np.min_scalar_type(min(group, len(rows)) * cells)  # holds every code of a block
    counts = np.zeros((len(rows), cells), dtype=np.int64)
    for first in range(0, len(rows), group):
        dest = counts[first:first + group]
        for start in range(0, length, CHUNK):
            part = np.s_[first:first + group, start:start + CHUNK]
            codes = rows[part].astype(code)
            if pair:  # labels lie in [0, rank), so the cast of b's own dtype is exact
                codes *= code.type(rank)
                np.add(codes, other[part], out=codes, casting="unsafe")
            if len(dest) > 1:  # each row's own cells
                codes += np.arange(0, dest.size, cells, dtype=code)[:, None]
            dest += np.bincount(codes.ravel(), minlength=dest.size).reshape(dest.shape)
    return counts.reshape(*a.shape[:-1], *(rank,) * (1 + pair))


def _row_labels(xbs: np.ndarray, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Labels of (x, z) for every x of a stack and every point z, as an
    (r, N) uint8 array; ``xbs[v]`` is the v-th x padded, one row per block.

    The stack is gathered ``group_size(N)`` vectors at a time, and a group's
    tables are built when it runs; past ``CHUNK`` points one vector is
    gathered at a time, in chunks of ``CHUNK`` points.  A non-point anywhere
    in the stack raises a ``ValueError`` before any gather.
    """
    count, rows = codes.shape[0], xbs.shape[0]
    # the q^2-1 multiples lam * x of every x by their blocks; <x, lam x> = 0.
    # x itself (lam = 1) is a point only if its index holds its blocks: codes.T
    # is C-contiguous, so the read-back gathers 2 * rows codes and copies nothing
    blocks = t.nonzero_mul.take(xbs, axis=1) @ t.place
    found = t.start.take(blocks[..., 0]) + t.rank.take(blocks[..., 1])
    if codes.T.take(found[0], axis=1, mode="clip").tolist() != blocks[0].T.tolist():
        raise ValueError("x is not a nonzero isotropic vector")
    out = np.empty((rows, count), dtype=np.uint8)
    group = group_size(count)
    for first in range(0, rows, group):
        # parts[v, k, j, d]: coordinate j of block k of vector v times conj(d);
        # the tables grow from the last coordinate, so that the broadcast
        # sums run along their long axis
        parts = t.products[xbs[first:first + group]]
        sums = parts[:, :, -1]
        for j in range(t.width - 2, -1, -1):
            sums = (parts[:, :, j, :, None] + sums[:, :, None, :]).reshape(
                sums.shape[0], 2, -1)
        head, tail = sums.transpose(1, 0, 2)  # one (vectors, table) view per block
        dest = out[first:first + group]
        for start in range(0, count, CHUNK):
            part = codes[start:start + CHUNK]
            packed = head.take(part[:, 0], axis=1)
            packed += tail.take(part[:, 1], axis=1)
            t.sum_labels.take(packed, out=dest[:, start:start + CHUNK])
    # (x, g^e x) has label e
    out[np.arange(rows), found] = np.arange(found.shape[0], dtype=np.uint8)[:, None]
    return out


def _blocked(x, t: BlockTables) -> np.ndarray:
    """``x`` padded, one row per block, once it is checked to be n element ids."""
    _check_ids(x, t.products.shape[0], 2 * t.width - t.pad.size)
    return np.concatenate((t.pad, np.asarray(x, dtype=np.int64))).reshape(2, t.width)


def classify_row(x, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """uint8 labels of the pairs (x, z) for every point z, given by its block codes."""
    return _row_labels(_blocked(x, t)[None], codes, t)[0]


def classify_matrix(codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Full pairwise uint8 label matrix M with M[a, b] = label of (point a, point b)."""
    return _row_labels(t.digits[codes], codes, t)


# ---------------------------------------------------------------------------
# isotropic counts by additive characters (Lidl and Niederreiter, *Finite Fields*,
# ch. 5), modulo primes P = 1 (mod 210): each has p-th roots of unity for p <= 7.
PRIMES = (4193701, 4192861, 4192231)


def _reduce(x: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """``x``, float64 integers below 2^51, reduced in place modulo ``modulus``."""
    multiple = x / modulus  # within 2^-23 < 1/P of x / P, so its floor is exact
    x -= np.multiply(np.floor(multiple, out=multiple), modulus, out=multiple)
    return x


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, a's rows split so that no BLAS call makes over ``BLAS_CALL`` multiply-adds."""
    rows = max(1, BLAS_CALL // (a.shape[-1] * b.shape[-1]))
    if rows >= a.shape[-2]:
        return a @ b
    return np.concatenate([a[..., i:i + rows, :] @ b for i in range(0, a.shape[-2], rows)], -2)


@lru_cache(maxsize=None)
def _character_tables(q: int, primes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only tables of ``count_isotropic`` modulo ``primes``, prime i fourth from
    the end: ``modulus``; ``g[t, i, u' * order + v']`` = G(t, u', v'); ``relabel[j - 1,
    u * order + v]``, the flat cell (u / conj(g^j), v / g^j); W; and q^-5 W."""
    ft = build_field(q)
    order, p, mul, conj, lam = ft.order, ft.p, ft.mul_table, ft.conj_table, ft.coeff_digits[:, 0]
    modulus = np.array(primes, dtype=np.float64)[:, None, None, None]
    roots = [next(z for a in range(2, P) if (z := pow(a, (P - 1) // p, P)) != 1) for P in primes]
    powers = np.array([[pow(z, r, P) for r in range(p)] for z, P in zip(roots, primes)],
                      dtype=np.float64)  # zeta^r modulo each prime
    shift = powers[:, lam[mul[:2, ft.norm_table]]].transpose(1, 0, 2)  # zeta^lam(t N(c))
    left = _reduce(powers[:, None, lam[mul[:, conj]]] * shift[:, :, None, None], modulus)
    g = _reduce(_matmul(left, powers[:, None, lam[mul]]), modulus)
    d = ft.exp_table[1:q - 1]
    relabel = (mul[:, ft.inv_table[conj[d]]].T[:, :, None] * order
               + mul[:, ft.inv_table[d]].T[:, None, :]).reshape(d.size, order * order)
    w = powers[:, None, -lam[mul] % p]
    scale = np.array([pow(q**5, -1, P) for P in primes])[:, None, None, None]
    tables = (modulus, g.reshape(2, len(primes), -1), relabel, w, _reduce(w * scale, modulus))
    for table in tables:
        table.setflags(write=False)
    return tables


def count_isotropic(ft, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``counts[b, alpha, beta]``: the number of z in F^n, zero included,
    with <z, z> = 0, <x_b, z> = alpha and <z, y_b> = beta, for a stack of
    pairs given as two (pairs, n) arrays of element ids, as int64.

    lam(a), a's lowest coefficient digit, is F_p-linear and lam(1) = 1, so
    zeta^lam(u a) (u in F) and zeta^lam(s t) (s in F_q) are all the additive
    characters, and the count is q^-5 (W S W)[alpha, beta] with W[a, u] =
    zeta^-lam(u a), S = sum_s prod_k G(s, u x_k, v conj(y_k)) and G(s, u', v')
    = sum_c zeta^lam(s N(c) + u' conj(c) + v' c).  G(N(d), u', v') = G(1,
    u'/conj(d), v'/d), as N(d) N(c) = N(dc), so S is H_0 plus H_1 relabelled
    by one d of each nonzero norm, H_t being the product at s = t.  Float64
    residues below 2^22 keep each product, and each matrix product of at most
    q^2 = 81 terms, below 2^51 and exact.  The first primes whose product
    passes a bound on the counts are used (all three give 2^65.9, above every
    count where ``check_parameters`` admits (n, q)), and Garner's method
    recovers the counts in int64 (Knuth, *TAOCP* vol. 2, 4.3.2).  Time
    O(n q^4) per pair and prime, besides O(q^6) products.
    """
    pairs, n = xs.shape
    bound = (ft.q**n + 1) * (ft.q ** (n - 1) + 1)  # above the isotropic vectors and zero
    primes = next((PRIMES[:k] for k in (1, 2, 3) if bound < math.prod(PRIMES[:k])), ())
    assert primes, "counts must stay below the primes' product"
    modulus, g, relabel, w, wq = _character_tables(ft.q, primes)
    rows = ft.mul_table[xs] * ft.order  # rows[b, k, u] = (u x_k) * order
    cols = ft.mul_table[ft.conj_table[ys]]  # cols[b, k, v] = v conj(y_k)
    h = g.take(rows[:, 0, :, None] + cols[:, 0, None, :], axis=2)
    for k in range(1, n):
        h *= g.take(rows[:, k, :, None] + cols[:, k, None, :], axis=2)
        _reduce(h, modulus)
    s = h[0] + h[1]  # h[t, i, b, u, v] is H_t(u, v) modulo prime i
    for cells in relabel:
        s += h[1].reshape(len(primes), pairs, -1).take(cells, axis=2).reshape(s.shape)
    del h  # H_t is summed into S: free it before the products
    s = _reduce(_matmul(_reduce(s, modulus), w), modulus)
    r = _reduce(_matmul(wq, s), modulus).astype(np.int64)
    counts, step = r[0], 1
    for last, P, residues in zip(primes, primes[1:], r[1:]):
        step *= last
        counts = counts + step * ((residues - counts) % P * pow(step, -1, P) % P)
    return counts

"""Hot inner loops: the isotropic scan and the block-table pair classifier.

A point z is stored as two block codes.  Its n coordinates, with n mod 2
zeros in front, are split into two blocks of ``width`` = ceil(n/2)
coordinates, and each block is kept as its lexicographic code, a number
below order**width.  These are the two halves of the scan, so the scan
writes them as it finds the points, and a point's full lexicographic code
is head * order**width + tail.

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
coefficients of an element over F_p are the base-B digits of an integer,
with B = n*(p-1)+1, so a sum of at most n packed elements is an ordinary
integer sum without carries, and one lookup turns it into a label.  Packed
sums stay below B^m, and ``block_tables`` refuses an (n, q) whose B^m or
order**width is above 2^16, so the codes, the tables and their sums are
uint16 (within the scan budget B^m is at most 15625, at (4, 8), and
order**width at most 15625, at (5, 5)); a block's table is built by outer
sums over its coordinates.

The q^2-1 nonzero multiples of x are found among the points by binary
search on the points' sorted full codes.

``count_isotropic`` counts without the points: for a stack of pairs it
walks through the n coordinates and returns, for every value of <x, z> and
<z, y>, how many isotropic z of F^n take it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import _check_ids

# Elements (vectors x points) per gather in a row pass, and points per chunk
# of a witness histogram, so that numpy's conversion of the uint16 codes or
# keys to index arrays stays in cache.
CHUNK = 1 << 14

# ---------------------------------------------------------------------------
# isotropic scan: the lexicographic codes (first coordinate most significant,
# element ids ascending) of all nonzero vectors with zero Hermitian
# self-product, in increasing order.  Meet in the middle (Horowitz and Sahni,
# 1974): the self-product of a vector is the sum of its two halves' norms, so
# the isotropic vectors with a given first half are that half followed by
# every second half of the opposite norm.


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
                   expected: int) -> tuple[np.ndarray, np.ndarray]:
    """The isotropic vectors among all size**n coordinate vectors, as their
    sorted codes and as their read-only (N, 2) uint16 block codes.

    The first halves are taken in increasing code order, each followed by its
    second halves in increasing order, so the codes come out sorted.  The
    halves are the blocks: column 0 holds the first half's code, repeated
    over its second halves, and column 1 the second halves, copied group by
    group; the codes are head * size**ceil(n/2) + tail.
    """
    high = n // 2  # coordinates in the first half, the shorter one
    scale = size ** table_width(size, n)
    first = _half_norms(high, size, norm_table, add_table)
    second = _half_norms(n - high, size, norm_table, add_table)
    # second halves grouped by norm, ascending within each group
    sizes = np.bincount(second, minlength=size)
    groups = np.split(np.argsort(second, kind="stable").astype(np.uint16),
                      np.cumsum(sizes)[:-1])
    opposite = np.argmax(add_table == 0, axis=1)[first]
    counts = sizes[opposite]
    counts[0] -= 1  # the zero vector, head 0 and the first tail of its group
    if int(counts.sum()) != expected:
        raise AssertionError(f"scan found {int(counts.sum())} isotropic vectors,"
                             f" expected {expected}")
    tails = [groups[norm] for norm in opposite.tolist()]
    tails[0] = tails[0][1:]
    # column-major, so that the codes of one block are contiguous
    blocks = np.empty((expected, 2), dtype=np.uint16, order="F")
    blocks[:, 0] = np.repeat(np.arange(first.size, dtype=np.uint16), counts)
    np.concatenate(tails, out=blocks[:, 1])
    codes = blocks[:, 0].astype(np.int64)
    codes *= scale
    codes += blocks[:, 1]
    blocks.setflags(write=False)
    return codes, blocks


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


@dataclass(frozen=True, eq=False)
class BlockTables:
    """Everything a row pass over one space needs that does not depend on x.

    ``digits[c]`` are the element ids of block code c, and
    ``products[a, d]`` is the packed a * conj(d).  ``sum_labels[0, s]`` is
    the uint8 label of a pair whose packed inner product is s, a zero
    product reading as perpendicular; scalar pairs are set afterwards, to
    ``scalar_labels[0]``.  Row 1 of both holds the labels of the reversed
    pairs, which a column pass writes.  ``place`` turns a padded vector
    into its full code, and ``points`` holds the points' full codes in
    increasing order.  ``conj_labels[l]`` is the label of the reversed pairs
    of relation l, and ``scale_labels[s, l]`` the label of (g^s x, z) when
    (x, z) has label l: scalar exponents drop by s, product exponents rise
    by s (the product is linear in its first argument), and perpendicular
    pairs stay so.
    """

    width: int
    pad: np.ndarray
    digits: np.ndarray
    products: np.ndarray
    sum_labels: np.ndarray
    scalar_labels: np.ndarray
    nonzero_mul: np.ndarray
    place: np.ndarray
    points: np.ndarray
    conj_labels: np.ndarray
    scale_labels: np.ndarray


@lru_cache(maxsize=None)
def label_maps(q: int) -> tuple[np.ndarray, np.ndarray]:
    """``conj_labels`` and ``scale_labels`` of ``BlockTables``, which depend
    on q alone; read-only, made once per q."""
    nrel = q * q - 1
    e = np.arange(nrel)
    conj_labels = np.concatenate((-e % nrel, nrel + q * e % nrel, [2 * nrel]))
    s = e[:, None]
    scale_labels = np.concatenate(((e - s) % nrel, nrel + (e + s) % nrel,
                                   np.full((nrel, 1), 2 * nrel)), axis=1)
    for table in (conj_labels, scale_labels):
        table.setflags(write=False)
    return conj_labels, scale_labels


def block_tables(ft, n: int, points: np.ndarray) -> BlockTables:
    """The x-independent tables of the row kernel for the points of F^n with
    the given sorted full codes.  An (n, q) whose packed sums or block codes
    would not fit uint16 raises a ``ValueError`` before any table is made."""
    order, p, q = ft.order, ft.p, ft.q
    nrel = order - 1
    assert 2 * nrel < 1 << 8, "labels must fit uint8"
    m = 1
    while p**m < order:
        m += 1
    base = n * (p - 1) + 1
    if base**m > 1 << 16:
        raise ValueError(f"packed sums below {base}^{m} = {base**m} do not fit uint16"
                         f" at (n, q) = ({n}, {q})")
    width = table_width(order, n)

    coeffs = ft.coeff_table[:, None] // p ** np.arange(m) % p
    packed = coeffs @ base ** np.arange(m)
    products = packed[ft.mul_table[:, ft.conj_table]].astype(np.uint16)

    sums = np.arange(base**m)
    ids = np.argsort(ft.coeff_table)[(sums[:, None] // base ** np.arange(m) % base % p)
                                     @ p ** np.arange(m)]
    sum_labels = np.where(ids == 0, 2 * nrel, nrel + ids - 1)

    e = np.arange(nrel)
    conj_labels, scale_labels = label_maps(q)
    return BlockTables(
        width=width, pad=np.zeros(2 * width - n, dtype=np.int64),
        digits=digits(np.arange(order**width), order, width), products=products,
        sum_labels=np.stack((sum_labels, conj_labels[sum_labels])).astype(np.uint8),
        scalar_labels=np.stack((e, conj_labels[e])).astype(np.uint8),
        nonzero_mul=np.ascontiguousarray(ft.mul_table[1:]),
        place=order ** np.arange(2 * width - 1, -1, -1, dtype=np.int64),
        points=points, conj_labels=conj_labels, scale_labels=scale_labels,
    )


def group_size(count: int) -> int:
    """Vectors gathered together in a pass over ``count`` points: as many as
    fill ``CHUNK`` gathered elements, and at least one."""
    return max(1, CHUNK // count)


def _row_labels(xbs: np.ndarray, codes: np.ndarray, t: BlockTables,
                converse: int) -> np.ndarray:
    """Labels of (x, z) for every x of a stack and every point z, or of (z, x)
    when ``converse`` is 1, as an (r, N) uint8 array; ``xbs[v]`` is the v-th
    x padded, one row per block.

    The stack is gathered ``group_size(N)`` vectors at a time, and a group's
    tables are built when it runs; past ``CHUNK`` points one vector is
    gathered at a time, in chunks of ``CHUNK`` points.  A non-point anywhere
    in the stack raises a ``ValueError`` before any gather.
    """
    count, rows = codes.shape[0], xbs.shape[0]
    # the q^2-1 multiples lam * x of every x, found by their codes; <x, lam x> = 0
    multiples = t.nonzero_mul[:, xbs.reshape(rows, -1)] @ t.place
    found = np.searchsorted(t.points, multiples)
    if t.points.take(found[0], mode="clip").tolist() != multiples[0].tolist():
        raise ValueError("x is not a nonzero isotropic vector")
    labels = t.sum_labels[converse]
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
            labels.take(packed, out=dest[:, start:start + CHUNK])
    out[np.arange(rows), found] = t.scalar_labels[converse][:, None]
    return out


def _blocked(x, t: BlockTables) -> np.ndarray:
    """``x`` padded, one row per block, once it is checked to be n element ids."""
    _check_ids(x, t.products.shape[0], 2 * t.width - t.pad.size)
    return np.concatenate((t.pad, x)).reshape(2, t.width)


def classify_row(x, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """uint8 labels of the pairs (x, z) for every point z, given by its block codes."""
    return _row_labels(_blocked(x, t)[None], codes, t, 0)[0]


def classify_col(y, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Labels of the pairs (z, y): the converses of the pairs (y, z)."""
    return _row_labels(_blocked(y, t)[None], codes, t, 1)[0]


def classify_matrix(codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Full pairwise uint8 label matrix M with M[a, b] = label of (point a, point b)."""
    return _row_labels(t.digits[codes], codes, t, 0)


# ---------------------------------------------------------------------------
# isotropic counts over coordinates, a transfer-matrix count.  For a pair
# (x, y), the state after k coordinates counts the prefixes z in F^k by
# their (<z, z>, <x, z>, <z, y>) over those coordinates, one cell for each
# value in F_q x F x F; coordinate k moves every count by (N(c), x_k conj(c),
# c conj(y_k)) for each of the q^2 values c of z_k.

# int64 cells in the state of one stack of pairs in ``count_isotropic`` (4 MB):
# a stack holds up to 16 pairs at q = 8 and 8 at q = 9, and the two states
# alive at once stay under about 10 MB however many pairs are counted.
STACK_CELLS = 1 << 19


def count_isotropic(ft, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``counts[b, alpha, beta]``: the number of z in F^n, zero included,
    with <z, z> = 0, <x_b, z> = alpha and <z, y_b> = beta, for a stack of
    pairs given as two (pairs, n) arrays of element ids.

    The first two coordinates are written directly, by one ``bincount`` of
    every prefix.  After that each pair's state is kept in coordinates of its
    own: stored cell (a, b) holds the count of the cell M(a, b) = (x_k a,
    conj(y_k) b) of <x, z> and <z, y>, with a - conj(b) in place of x_k a
    when x_k = 0 and b - conj(a) in place of conj(y_k) b when y_k = 0.  M is
    an F_q-linear bijection of F^2 that takes (conj(c), c) to the move of
    coordinate k, so in stored coordinates every pair moves by (N(c),
    conj(c), c): one gather index serves the whole stack, and it gathers
    rows of one count per pair.  A pair with x_k = y_k = 0 moves only its
    norm, by one (q, q) matrix product, and keeps its M.  The last coordinate
    fills only the cells of norm 0.  Time O(n q^7) per pair; memory a few
    states of q^5 counts per pair, for the pairs of one stack of at most
    ``STACK_CELLS`` cells at a time.

    Exact in int64: before the last coordinate a cell counts vectors of F^k
    with k <= n - 1, at most q^(2n-2) of them, and after it a cell counts
    isotropic vectors or zero, fewer than 2^63 wherever ``check_parameters``
    admits (n, q).
    """
    stacks = -(-len(xs) // max(1, STACK_CELLS // (ft.q * ft.order**2)))
    if stacks <= 1:
        return _count_stack(ft, xs, ys)
    return np.concatenate([_count_stack(ft, x, y) for x, y in
                           zip(np.array_split(xs, stacks), np.array_split(ys, stacks))])


def _count_stack(ft, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``count_isotropic`` for one stack of pairs."""
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
        if moving.all():
            state = _moved(state, norm_shift[:targets], sub, conj)
            continue
        new = np.empty((targets * square, pairs), dtype=np.int64)
        if moving.any():
            # a contiguous copy, so that ``take`` copies whole rows
            new[:, moving] = _moved(np.ascontiguousarray(state[:, moving]),
                                    norm_shift[:targets], sub, conj)
        new[:, ~moving] = (spread[:targets] @ state[:, ~moving].reshape(q, -1)
                           ).reshape(targets * square, -1)
        state = new
    state = state.reshape(-1, pairs)[:square]  # norm 0
    return state.T[rows, stored].reshape(pairs, order, order)


def _moved(state: np.ndarray, norm_shift: np.ndarray, sub, conj) -> np.ndarray:
    """The state after one coordinate, in stored coordinates: cell (t, a, b)
    sums the cells (t - N(c), a - conj(c), b - c) over every c, for the
    target norms of ``norm_shift``.  The values of c are gathered in groups
    of at most ``CHUNK`` counts, and one at a time past that, when each
    value's counts are gathered and added 4 ``CHUNK`` at a time."""
    order = conj.size
    targets, count = norm_shift.shape[0], state.shape[1]
    out = np.zeros((targets * order * order, count), dtype=np.int64)
    group = max(1, CHUNK // state.size)
    for first in range(0, order, group):
        c = np.arange(first, min(first + group, order))
        rows = ((norm_shift[:, c].T[:, :, None, None] * order
                 + sub[:, conj[c]].T[:, None, :, None]) * order
                + sub[:, c].T[:, None, None, :])
        rows = rows.reshape(c.size, -1)
        if c.size > 1:
            out += state.take(rows, axis=0).sum(axis=0)
            continue
        # one value of c: its gathered counts are added a block at a time
        step = max(1, 4 * CHUNK // count)
        for start in range(0, rows.shape[1], step):
            out[start:start + step] += state.take(rows[0, start:start + step], axis=0)
    return out

"""Hot inner loops: the isotropic scan and the block-table pair classifier.

A point z is stored as block codes.  Its n coordinates are split into blocks
of ``width`` consecutive coordinates, the first block being the short one
when ``width`` does not divide n, and each block is kept as its lexicographic
code, a number below order**width.  These are the base order**width digits
of the point's full lexicographic code, so the scan's codes give them
directly.

For a fixed x, one table per block holds the partial Hermitian products
sum_i x_i * conj(z_i) for every possible block of z.  A row pass gathers
each table at the block codes and adds the blocks, which gives <x, z> for
every point at once.  Field elements in the tables are *packed*: the
coefficients of an element over F_p are the base-B digits of an integer,
with B = n*(p-1)+1, so a sum of at most n packed elements is an ordinary
integer sum without carries, and one lookup turns it into a label.  Packed
values stay below 2^24 (B^m <= 15625 within the scan budget), so the tables
are built exactly by one float32 product with a 0/1 digit-indicator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _check_ids

# Largest number of entries of one block table.  The codes fit in uint16.
BLOCK_LIMIT = 8192

# ---------------------------------------------------------------------------
# isotropic scan: the lexicographic codes (first coordinate most significant,
# element ids ascending) of all nonzero vectors with zero Hermitian
# self-product, in increasing order.


def isotropic_scan(n: int, size: int, norm_table, add_table, expected: int,
                   chunk: int = 1 << 18) -> np.ndarray:
    """Scan all size**n coordinate vectors; return the isotropic ones' codes."""
    total = size**n
    parts = []
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        acc = np.zeros(codes.size, dtype=np.int64)
        rest = codes
        for _ in range(n):
            rest, digit = np.divmod(rest, size)
            acc = add_table[acc, norm_table[digit]]
        mask = acc == 0
        if start == 0:
            mask[0] = False  # the zero vector
        parts.append(codes[mask])
    codes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if codes.size != expected:
        raise AssertionError(f"scan found {codes.size} isotropic vectors, expected {expected}")
    return codes


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

    ``digits[c]`` are the element ids of block code c, and ``indicator`` has
    a 1 in row j*order + d, column c, when digit j of c is d.
    ``products[a, d]`` is the packed a * conj(d).  ``sum_labels[s]`` is the
    label of a pair whose packed inner product is s, a zero product reading
    as perpendicular; scalar pairs are set afterwards.  ``place`` turns a
    padded vector into its full code, ``lookup`` a full code into a point
    index, and ``conj_labels[l]`` is the label of the reversed pairs of
    relation l.
    """

    width: int
    blocks: int
    pad: np.ndarray
    digits: np.ndarray
    indicator: np.ndarray
    products: np.ndarray
    sum_labels: np.ndarray
    nonzero_mul: np.ndarray
    place: np.ndarray
    lookup: np.ndarray
    conj_labels: np.ndarray

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Block codes, one row per point, from full lexicographic codes."""
        size = self.digits.shape[0]
        # column-major, so that the codes of one block are contiguous
        out = np.asfortranarray(digits(codes, size, self.blocks).astype(np.uint16))
        out.setflags(write=False)
        return out


def block_width(order: int, count: int) -> int:
    """Largest b >= 1 with order**b <= min(BLOCK_LIMIT, count)."""
    width = 1
    while order ** (width + 1) <= min(BLOCK_LIMIT, count):
        width += 1
    return width


def block_tables(ft, n: int, count: int, lookup: np.ndarray) -> BlockTables:
    """The x-independent tables of the row kernel for ``count`` points in F^n."""
    order, p, q = ft.order, ft.p, ft.q
    nrel = order - 1
    width = block_width(order, count)
    blocks = -(-n // width)
    m = 1
    while p**m < order:
        m += 1
    base = n * (p - 1) + 1

    coeffs = ft.coeff_table[:, None] // p ** np.arange(m) % p
    packed = coeffs @ base ** np.arange(m)
    products = packed[ft.mul_table[:, ft.conj_table]].astype(np.float32)

    table_digits = digits(np.arange(order**width), order, width)
    indicator = np.zeros((width * order, order**width), dtype=np.float32)
    indicator[np.arange(width) * order + table_digits, np.arange(order**width)[:, None]] = 1

    sums = np.arange(base**m)
    ids = np.argsort(ft.coeff_table)[(sums[:, None] // base ** np.arange(m) % base % p)
                                     @ p ** np.arange(m)]
    sum_labels = np.where(ids == 0, 2 * nrel, nrel + ids - 1)

    e = np.arange(nrel)
    conj_labels = np.concatenate((-e % nrel, nrel + q * e % nrel, [2 * nrel]))
    return BlockTables(
        width=width, blocks=blocks,
        pad=np.zeros(blocks * width - n, dtype=np.int64),
        digits=table_digits, indicator=indicator, products=products,
        sum_labels=sum_labels,
        nonzero_mul=np.ascontiguousarray(ft.mul_table[1:]),
        place=order ** np.arange(blocks * width - 1, -1, -1, dtype=np.int64),
        lookup=lookup, conj_labels=conj_labels,
    )


def _row_labels(xb: np.ndarray, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Labels of (x, z) for every point z; ``xb`` is x padded, one row per block."""
    sums = (t.products[xb].reshape(t.blocks, -1) @ t.indicator).astype(np.intp)
    packed = sums[0][codes[:, 0]]
    for k in range(1, t.blocks):
        packed += sums[k][codes[:, k]]
    out = t.sum_labels[packed]
    # the q^2-1 multiples lam * x, found by their codes; <x, lam x> = 0
    multiples = t.lookup[t.nonzero_mul[:, xb.ravel()] @ t.place]
    if multiples[0] < 0:
        raise ValueError("x is not a nonzero isotropic vector")
    out[multiples] = np.arange(multiples.size)
    return out


def _blocked(x, t: BlockTables) -> np.ndarray:
    """``x`` padded, one row per block, once it is checked to be n element ids."""
    _check_ids(x, t.products.shape[0], t.blocks * t.width - t.pad.size)
    return np.concatenate((t.pad, x)).reshape(t.blocks, t.width)


def classify_row(x, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Labels of the pairs (x, z) for every point z, given by its block codes."""
    return _row_labels(_blocked(x, t), codes, t)


def classify_col(y, codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Labels of the pairs (z, y): the converses of the pairs (y, z)."""
    return t.conj_labels[_row_labels(_blocked(y, t), codes, t)]


def classify_matrix(codes: np.ndarray, t: BlockTables) -> np.ndarray:
    """Full pairwise label matrix M with M[a, b] = label of (point a, point b)."""
    count = codes.shape[0]
    xbs = t.digits[codes]
    out = np.empty((count, count), dtype=np.int64)
    for a in range(count):
        out[a] = _row_labels(xbs[a], codes, t)
    return out

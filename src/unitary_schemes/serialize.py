"""Deterministic text formats: scheme documents and relation matrices.

Documents are line-oriented, one scheme per file, with the intersection
tensor stored as sparse (h, i, j, value) quadruples in lexicographic order.
Rendering the parse of a rendered document reproduces it byte for byte.

Integer blocks (tensor quadruples, relation-matrix rows) are written as
ASCII bytes: each column's numbers become indices into fixed-width words,
cut from a cached table of [0, 2^12) or formatted once per distinct value,
and the words are taken into a record buffer a chunk of rows at a time,
stripped of their padding and decoded.  ASCII text is read back by one
int64 conversion; other text, or a block that this conversion or a check on
its result rejects, is read line by line with ``int``, which names the
failing line.  A character table is read in one scan: one match of its
joined entries, one split and one ``int`` pass.  ``mode`` must be one of
``MODES``, ``commutative`` true or false, a ``witness`` three relations in
[0, rank) after ``commutative false``.

The relation-matrix format is the small-scheme exchange layout: a header
line "points rank" followed by one whitespace-separated integer row per
point, entry (x, y) being the sequential relation index of that pair.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .chartable import CharTable
from .eisenstein import render
from .fields import check_int
from .kernels import group_size
from .scheme import MODES, SchemeDescriptor, check_labels, is_commutative

FORMAT_LINE = "unitary-scheme-document 1"
REQUIRED_FIELDS = ("n", "q", "rank", "order", "mode", "seed")
# a character-table entry A + B w of Z[w], as document_from_chartable writes it
_ENTRY = r"-?[0-9]+[+-][0-9]+\*w"
_TABLE = re.compile(f"{_ENTRY}(?: {_ENTRY})*")


@dataclass(frozen=True, eq=False)
class SchemeDocument:
    n: int
    q: int
    rank: int
    order: int
    mode: str
    seed: int
    valencies: tuple[int, ...] | None = None
    conj_map: tuple[int, ...] | None = None
    tensor_entries: np.ndarray | None = None  # read-only (E, 4) int64 rows h, i, j, value
    commutative: bool | None = None
    witness: tuple[int, int, int] | None = None
    chartable: tuple[tuple[str, ...], ...] | None = None
    multiplicities: tuple[int, ...] | None = None
    fusion: str | None = None


def document_from_descriptor(sd: SchemeDescriptor, seed: int = 0) -> SchemeDocument:
    # C order is the lexicographic (h, i, j) order
    flat = sd.tensor.ravel()
    where = np.flatnonzero(flat != 0)
    entries = np.empty((where.size, 4), dtype=np.int64)
    hi, entries[:, 2] = np.divmod(where, sd.rank)
    entries[:, 0], entries[:, 1] = np.divmod(hi, sd.rank)
    entries[:, 3] = flat[where]
    entries.setflags(write=False)
    commutative, witness = is_commutative(sd)
    return SchemeDocument(
        n=sd.n, q=sd.q, rank=sd.rank, order=sd.order, mode=sd.mode, seed=seed,
        valencies=sd.valencies, conj_map=sd.conj_map,
        tensor_entries=entries, commutative=commutative, witness=witness,
    )


def document_from_chartable(ct: CharTable, n: int, fusion: str | None = None,
                            seed: int = 0) -> SchemeDocument:
    check_int("n", n)  # the document's n line must read back as an integer
    rendered = tuple(tuple(map(render, zip(ra, rb))) for ra, rb in zip(*ct.p.tolist()))
    return SchemeDocument(
        n=n, q=2, rank=ct.size, order=ct.order, mode="closed", seed=seed,
        valencies=ct.valencies, chartable=rendered,
        multiplicities=ct.multiplicities, fusion=fusion,
    )


def chartable_from_document(doc: SchemeDocument) -> CharTable:
    """The character table of a document; a table that is not square, does
    not match the rank line, has an entry not spelled "A+B*w" or "A-B*w" with
    decimal integers A, B, has valencies or multiplicities of another length
    or not all positive, multiplicities not summing to the order, a row 0
    other than the valencies or a column 0 other than all ones raises a
    ValueError naming the field.  The table is read in one scan, and walked
    entry by entry only to name a failure; its identities are left to
    ``verify_orthogonality``."""
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
    text = " ".join([" ".join(row) for row in doc.chartable])
    # a matched text has no space inside an entry, so it splits into A, +-B words
    words = (text.replace("*w", "").replace("-", " -").replace("+", " ").split()
             if _TABLE.fullmatch(text) else ())
    if len(words) != 2 * size * size:  # some entry is not "A+B*w": name the first
        for i, row in enumerate(doc.chartable):
            for j, entry in enumerate(row):
                if re.fullmatch(_ENTRY, entry) is None:
                    raise ValueError(f"chartable row {i}, column {j}: {entry} is not in Z[w]")
    values = list(map(int, words))  # eigenvalues of integer matrices
    a, b = values[0::2], values[1::2]
    if a[:size] != list(doc.valencies) or a[::size] != [1] * size or any(b[:size] + b[::size]):
        for j, k in enumerate(doc.valencies):  # row 0 of P is the valencies
            if (a[j], b[j]) != (k, 0):
                raise ValueError(f"valencies: chartable row 0, column {j} is "
                                 f"{doc.chartable[0][j]}, the valency is {k}")
        for i in range(size):  # column 0 of P is all ones
            if (a[i * size], b[i * size]) != (1, 0):
                raise ValueError(f"chartable row {i}, column 0: {doc.chartable[i][0]} is not 1")
    p = np.array((a, b), dtype=object).reshape(2, size, size)
    return CharTable(p=p, multiplicities=doc.multiplicities,
                     valencies=doc.valencies, order=doc.order)


def _text(lines: list[str]) -> str:
    """``lines`` as text, each line ended by a newline."""
    lines.append("")
    return "\n".join(lines)


def render_document(doc: SchemeDocument) -> str:
    lines = [FORMAT_LINE]
    for key in ("n", "q", "rank", "order"):
        lines.append(f"{key} {getattr(doc, key)}")
    lines.append(f"mode {doc.mode}")
    lines.append(f"seed {doc.seed}")
    if doc.valencies is not None:
        lines.append("valencies " + " ".join(map(str, doc.valencies)))
    if doc.conj_map is not None:
        lines.append("conjugation " + " ".join(map(str, doc.conj_map)))
    if doc.tensor_entries is not None:
        lines.append(f"tensor {len(doc.tensor_entries)}")
        _append_rows(lines, doc.tensor_entries, " ")
    if doc.commutative is not None:
        lines.append(f"commutative {'true' if doc.commutative else 'false'}")
        if doc.witness is not None:
            lines.append("witness " + " ".join(map(str, doc.witness)))
    if doc.fusion is not None:
        lines.append(f"fusion {doc.fusion}")
    if doc.chartable is not None:
        lines.append(f"chartable {len(doc.chartable)}")
        for row in doc.chartable:
            lines.append(" ".join(row))
    if doc.multiplicities is not None:
        lines.append("multiplicities " + " ".join(map(str, doc.multiplicities)))
    lines.append("end")
    return _text(lines)


def parse_document(text: str) -> SchemeDocument:
    """Parse a rendered document; malformed input, a repeated line among
    them, raises a ValueError that names the offending (1-based) line."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise ValueError("not a scheme document")
    fields: dict = {}
    first_line: dict[str, int] = {}  # each key may appear once
    pos = 1
    block_end = 0  # lines before this index belong to the block being read
    try:
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line == "end":
                break
            key, _, rest = line.partition(" ")
            if key in first_line:
                raise ValueError(f"second {key} line, the first is line {first_line[key]}")
            first_line[key] = pos
            if key in ("n", "q", "rank", "order", "seed"):
                fields[key] = int(rest)
            elif key == "mode":
                if rest not in MODES:
                    raise ValueError(f"mode must be one of {MODES}, not {rest!r}")
                fields["mode"] = rest
            elif key == "valencies":
                fields["valencies"] = tuple(int(x) for x in rest.split())
            elif key == "conjugation":
                fields["conj_map"] = tuple(int(x) for x in rest.split())
            elif key == "tensor":
                if "rank" not in fields:
                    raise ValueError("tensor block comes before the rank line")
                rank = fields["rank"]
                count = int(rest)
                block_end = _block_end(lines, pos, count, key)
                entries = _int_rows(lines[pos:block_end], 4) if text.isascii() else None
                # a negative index reads as >= 2^63 in the uint64 view
                if entries is None or (entries[:, :3].view(np.uint64) >= rank).any():
                    quads = []  # line by line, to name the failing line
                    for _ in range(count):
                        quad = _line_ints(lines[pos])
                        if len(quad) != 4:
                            raise ValueError(f"tensor line has {len(quad)} integers, "
                                             "expected 4 (h i j value)")
                        if not all(0 <= x < rank for x in quad[:3]):
                            raise ValueError(f"tensor index out of range [0, {rank}) "
                                             f"in {lines[pos]!r}")
                        quads.append(quad)
                        pos += 1
                    entries = np.array(quads, dtype=np.int64).reshape(count, 4)
                pos = block_end
                entries.setflags(write=False)
                fields["tensor_entries"] = entries
            elif key == "commutative":
                if rest not in ("true", "false"):
                    raise ValueError(f"commutative must be true or false, not {rest!r}")
                fields["commutative"] = rest == "true"
            elif key == "witness":
                witness = tuple(int(x) for x in rest.split())
                if (fields.get("commutative") is not False or len(witness) != 3
                        or not all(0 <= x < fields.get("rank", 0) for x in witness)):
                    raise ValueError("witness must be 3 relations in [0, rank), "
                                     "after a commutative false line")
                fields["witness"] = witness
            elif key == "fusion":
                fields["fusion"] = rest
            elif key == "chartable":
                block_end = _block_end(lines, pos, int(rest), key)
                fields["chartable"] = tuple(tuple(row.split()) for row in lines[pos:block_end])
                pos = block_end
            elif key == "multiplicities":
                fields["multiplicities"] = tuple(int(x) for x in rest.split())
            else:
                raise ValueError(f"unknown document line {line!r}")
        else:
            raise ValueError("document has no end line")
    except ValueError as exc:
        # inside a block pos indexes the failing line; otherwise it is one past
        line_no = pos + 1 if pos < block_end else pos
        raise ValueError(f"line {line_no}: {exc}") from None
    missing = [key for key in REQUIRED_FIELDS if key not in fields]
    if missing:
        raise ValueError(f"line {pos}: document ends without its "
                         f"{', '.join(missing)} line(s)")
    return SchemeDocument(**fields)


def _block_end(lines: list[str], pos: int, count: int, key: str) -> int:
    """Index one past a block of ``count`` lines starting at ``pos``."""
    if count < 0 or pos + count >= len(lines):
        raise ValueError(f"{key} block of {count} lines is cut off before the end line")
    return pos + count


# ---------------------------------------------------------------------------
# integer blocks


# values in [0, WORD_BOUND) are written from the cached word table
WORD_BOUND = 1 << 12


@functools.cache
def _digit_words(end: str) -> np.ndarray:
    """The decimals of 0 .. WORD_BOUND - 1, each followed by ``end``, as bytes."""
    return np.array([f"{v}{end}" for v in range(WORD_BOUND)], dtype="S")


def _column_words(part: np.ndarray, end: str) -> tuple[np.ndarray, np.ndarray]:
    """NUL-padded words, decimals each followed by ``end``, and the index of
    each entry of ``part`` among them: a cut of the cached table if every
    entry lies in [0, WORD_BOUND), else the distinct values, found by one
    sort and formatted once.  Words of up to 16 bytes are padded to 2^k
    bytes, which ``take`` copies fastest."""
    low, high = int(part.min()), int(part.max())
    size = max(len(str(low)), len(str(high))) + len(end)  # an extreme's is the longest
    dtype = f"S{1 << (size - 1).bit_length() if size <= 16 else size}"
    if low >= 0 and high < WORD_BOUND:
        return _digit_words(end)[:high + 1].astype(dtype), part
    ordered = np.sort(part, axis=None)
    values = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    words = np.array([f"{v}{end}" for v in values.tolist()], dtype=dtype)
    return words, np.searchsorted(values, part)


def _append_rows(lines: list[str], rows: np.ndarray, sep: str) -> None:
    """Append the rows of an integer array to ``lines`` as lines of
    ``sep``-separated decimals, ``group_size(width)`` rows to a string, with
    no newline after a string's last row: ``_text`` puts it there.  Each word
    carries its ``sep`` or, in the last column, its newline; a chunk of rows
    is taken into one reused record buffer and loses its NUL padding in one
    ``translate``.  The buffer has a field per column, or, where a column's
    take would move fewer than width^2 entries (a relation matrix), one 2-D
    field for every column but the last."""
    count, width = rows.shape
    if not count:
        return
    step = group_size(width)
    by_column = width * width <= min(count, step)  # 2-D takes over short rows are slow
    body = [rows[:, k] for k in range(width - 1)] if by_column else [rows[:, :-1]]
    parts = [_column_words(part, sep) for part in body] + [_column_words(rows[:, -1], "\n")]
    buffer = np.empty(min(step, count), [(f"f{k}", words.dtype, codes.shape[1:])
                                         for k, (words, codes) in enumerate(parts)])
    for start in range(0, count, step):
        chunk = buffer[:count - start]
        for k, (words, codes) in enumerate(parts):
            np.take(words, codes[start:start + step], out=chunk[f"f{k}"])
        lines.append(chunk.tobytes().translate(None, b"\0")[:-1].decode())


def _int_rows(lines: list[str], width: int) -> np.ndarray | None:
    """``lines`` as a (len(lines), width) int64 array in one conversion, or
    None if it fails (blank lines, ``1_0``, values past int64) or gives
    another shape.  ASCII only: numpy reads '1' + U+9C6CB as 640677."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return rows if rows.shape == (len(lines), width) else None


def _line_ints(line: str) -> list[int]:
    """The integers of one line as ``int`` reads them; each must fit int64."""
    values = [int(x) for x in line.split()]
    for v in values:
        if not -(1 << 63) <= v < 1 << 63:
            raise ValueError(f"{v} is outside the int64 range")
    return values


def tensor_csv(doc: SchemeDocument) -> str:
    if doc.tensor_entries is None:
        raise ValueError("document carries no tensor")
    lines = ["h,i,j,value"]
    _append_rows(lines, doc.tensor_entries, ",")
    return _text(lines)


def chartable_csv(doc: SchemeDocument) -> str:
    if doc.chartable is None:
        raise ValueError("document carries no character table")
    lines = []
    for row, m in zip(doc.chartable, doc.multiplicities):
        lines.append(",".join(row) + f",{m}")
    return _text(lines)


# ---------------------------------------------------------------------------
# relation-matrix exchange format


def render_relation_matrix(matrix: np.ndarray, rank: int) -> str:
    """The exchange text of ``matrix``.  A matrix that is not square, is
    empty, is not of integers or holds labels outside [0, rank), which
    ``parse_relation_matrix`` would refuse, raises a ``ValueError``."""
    matrix = np.asarray(matrix)
    check_labels(matrix, rank)
    lines = [f"{matrix.shape[0]} {rank}"]
    _append_rows(lines, matrix, " ")
    return _text(lines)


def parse_relation_matrix(text: str) -> tuple[np.ndarray, int]:
    """Parse the exchange format; malformed input raises a ValueError that
    names the offending (1-based) line."""
    lines = [(k, line) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("empty relation-matrix file")
    header_no, header = lines[0][0], lines[0][1].split()
    try:
        count, rank = (int(x) for x in header)
    except ValueError:
        raise ValueError(f"line {header_no}: header must be 'points rank'") from None
    if count < 1:
        raise ValueError(f"line {header_no}: a relation matrix needs at least one point")
    if len(lines) != count + 1:
        raise ValueError(f"expected {count} matrix rows, found {len(lines) - 1}")
    body = [line for _, line in lines[1:]]
    matrix = _int_rows(body, count) if text.isascii() else None
    if matrix is None:
        rows = []
        for k, line in lines[1:]:
            try:
                row = _line_ints(line)
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
            if len(row) != count:
                raise ValueError(f"line {k}: expected {count} entries, found {len(row)};"
                                 " relation matrix is not square")
            rows.append(row)
        matrix = np.array(rows, dtype=np.int64)
    if matrix.min() < 0 or matrix.max() >= rank:
        row, column = np.argwhere((matrix < 0) | (matrix >= rank))[0]
        raise ValueError(f"line {lines[row + 1][0]}: relation index {matrix[row, column]}"
                         f" is outside [0, {rank})")
    return matrix, rank

"""Fusion schemes: uniting relations and collapsing the character table.

A partition of the relation indices (block 0 = {0}, blocks closed under the
conjugation pairing) yields a fusion scheme exactly when the row indices can
be partitioned, with the same number of blocks and {0} alone, so that every
(row-block, column-block) cell of the eigenmatrix has constant row sums.  The
search over dual partitions is exhaustive; candidates are enumerated in
restricted-growth order, so the result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartable import CharTable, multiplicities
from .scheme import SchemeDescriptor, conjugate_index, scheme_rank

Partition = tuple[tuple[int, ...], ...]


class FusionError(ValueError):
    """The requested partition does not induce a fusion scheme."""

    def __init__(self, message: str, block=None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True, eq=False)
class FusedTable:
    table: CharTable
    blocks: Partition
    dual_blocks: Partition


def _normalise_partition(blocks, size: int) -> Partition:
    norm = tuple(tuple(sorted(int(x) for x in block)) for block in blocks)
    seen = [x for block in norm for x in block]
    if sorted(seen) != list(range(size)):
        raise FusionError(f"blocks must partition 0..{size - 1}")
    if norm[0] != (0,):
        raise FusionError("block 0 must be exactly {0}")
    return norm


def _check_conjugation_closed(blocks: Partition, conj_map) -> None:
    block_sets = [frozenset(b) for b in blocks]
    for b in block_sets:
        image = frozenset(conj_map[l] for l in b)
        if image not in block_sets:
            raise FusionError(f"block {tuple(sorted(b))} is not closed under conjugation")


def _partitions_into(items: tuple[int, ...], parts: int):
    """Set partitions of ``items`` into exactly ``parts`` blocks, in
    restricted-growth (canonical, smallest-element-first) order."""

    def rec(idx: int, blocks: list[list[int]]):
        remaining = len(items) - idx
        if remaining == 0:
            if len(blocks) == parts:
                yield [tuple(b) for b in blocks]
            return
        if len(blocks) + remaining < parts:
            return
        for b in blocks:
            b.append(items[idx])
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < parts:
            blocks.append([items[idx]])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def fuse(ct: CharTable, sd_or_conj, blocks) -> FusedTable:
    """Fuse the table over a partition of the relation indices.

    ``sd_or_conj`` supplies the conjugation map (a descriptor or the map
    itself).  Fails with the first non-constant (row-block, column-block)
    cell when no dual partition works.
    """
    size = ct.size
    blocks = _normalise_partition(blocks, size)
    conj_map = sd_or_conj.conj_map if isinstance(sd_or_conj, SchemeDescriptor) else sd_or_conj
    _check_conjugation_closed(blocks, conj_map)

    # sums[i][alpha]: the (A, B) parts of the sum of row i over block alpha
    parts = len(blocks)
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    a, b = np.add.reduceat(ct.p[:, :, sum(blocks, ())], starts, axis=2).tolist()
    sums = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
    first_violation = None
    for tail in _partitions_into(tuple(range(1, size)), parts - 1):
        candidate = ((0,),) + tuple(tail)
        violation = None
        for beta, row_block in enumerate(candidate):
            for alpha in range(parts):
                values = {sums[i][alpha] for i in row_block}
                if len(values) != 1:
                    violation = (beta, alpha)
                    break
            if violation:
                break
        if violation:
            if first_violation is None:
                first_violation = (candidate, violation)
            continue
        signatures = [tuple(sums[block[0]]) for block in candidate]
        if len(set(signatures)) != parts:
            continue  # duplicate rows cannot form an eigenmatrix
        p = np.array(signatures, dtype=object).transpose(2, 0, 1)
        mult = tuple(sum(ct.multiplicities[i] for i in block) for block in candidate)
        valencies = tuple(sum(ct.valencies[l] for l in block) for block in blocks)
        fused = CharTable(p=p, multiplicities=mult, valencies=valencies, order=ct.order)
        if multiplicities(fused.p, valencies, ct.order) != mult:
            raise AssertionError("fused multiplicities disagree with the eigenspace formula")
        if sum(mult) != ct.order:
            raise AssertionError("fused multiplicities do not sum to the order")
        return FusedTable(table=fused, blocks=blocks, dual_blocks=candidate)

    if first_violation is None:
        raise FusionError("every dual candidate with constant row sums has duplicate rows")
    candidate, violation = first_violation
    raise FusionError(
        f"no dual partition gives constant row sums; first candidate fails at "
        f"row block {candidate[violation[0]]} x column block {blocks[violation[1]]}",
        block=violation,
    )


def symmetrization_partition(n: int, q: int) -> Partition:
    """Each relation united with its converse."""
    rank = scheme_rank(n, q)
    seen = set()
    blocks = []
    for l in range(rank):
        if l in seen:
            continue
        pair = tuple(sorted({l, conjugate_index(l, n, q)}))
        seen.update(pair)
        blocks.append(pair)
    return tuple(blocks)


def coarse_partition(n: int, q: int = 2) -> Partition:
    """Scalar relations merged into one class and product relations into
    another (the perpendicular class, when present, stays alone)."""
    nrel = q * q - 1
    blocks = [(0,), tuple(range(1, nrel)), tuple(range(nrel, 2 * nrel))]
    if scheme_rank(n, q) == 2 * nrel + 1:
        blocks.append((2 * nrel,))
    return tuple(blocks)


def canonical_fusions(n: int, q: int = 2) -> list[tuple[str, Partition]]:
    if n < 2:
        raise ValueError("n must be >= 2")
    return [
        ("symmetrize", symmetrization_partition(n, q)),
        ("coarse", coarse_partition(n, q)),
    ]

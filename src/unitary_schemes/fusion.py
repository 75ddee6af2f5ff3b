"""Fusion schemes: uniting relations and collapsing the character table.

A partition of the relation indices (block 0 = {0}, blocks closed under the
conjugation pairing) yields a fusion scheme exactly when the row indices can
be partitioned, with the same number of blocks and {0} alone, so that every
(row-block, column-block) cell of the eigenmatrix has constant row sums
(E. Bannai, Subschemes of some association schemes, J. Algebra 144, 1991).
Such a dual partition is unique when it exists: rows of one dual block share
their sums over every block, and rows of different dual blocks differ in
them, because the fused eigenmatrix is invertible.  So it is built directly,
as the rows grouped by those sums and ordered by each group's smallest row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartable import CharTable, multiplicities
from .fields import check_int
from .kernels import label_maps
from .scheme import SchemeDescriptor, scheme_rank

Partition = tuple[tuple[int, ...], ...]


class FusionError(ValueError):
    """The requested partition does not induce a fusion scheme."""


@dataclass(frozen=True, eq=False)
class FusedTable:
    table: CharTable
    blocks: Partition
    dual_blocks: Partition


def _normalise_partition(blocks, size: int) -> Partition:
    blocks = [tuple(block) for block in blocks]
    for b, block in enumerate(blocks):
        for x in block:
            check_int(f"block {b} entry", x, FusionError)
    norm = tuple(tuple(sorted(int(x) for x in block)) for block in blocks)
    if () in norm:
        raise FusionError(f"block {norm.index(())} is empty")
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


def fuse(ct: CharTable, sd_or_conj, blocks) -> FusedTable:
    """Fuse the table over a partition of the relation indices.

    ``sd_or_conj`` supplies the conjugation map (a descriptor or the map
    itself).  The dual blocks are the rows grouped by their sums over the
    blocks; a partition that leaves other than ``len(blocks)`` groups, or row
    0 in company, does not fuse.
    """
    size = ct.size
    blocks = _normalise_partition(blocks, size)
    conj_map = sd_or_conj.conj_map if isinstance(sd_or_conj, SchemeDescriptor) else sd_or_conj
    if len(conj_map) != size:
        raise FusionError(f"the conjugation map has {len(conj_map)} entries for {size} relations")
    _check_conjugation_closed(blocks, conj_map)

    # sums[:, i, alpha]: the (A, B) parts of the sum of row i over block alpha
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    sums = np.add.reduceat(ct.p[:, :, sum(blocks, ())], starts, axis=2)
    groups: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(zip(*sums.tolist())):
        groups.setdefault((tuple(a), tuple(b)), []).append(i)
    dual = tuple(map(tuple, groups.values()))
    if len(dual) != len(blocks) or dual[0] != (0,):
        raise FusionError(f"no dual partition gives constant row sums with row 0 alone: the "
                          f"rows have {len(dual)} distinct sum vectors over {len(blocks)} blocks")
    mult = tuple(sum(ct.multiplicities[i] for i in block) for block in dual)
    valencies = tuple(sum(ct.valencies[l] for l in block) for block in blocks)
    fused = CharTable(p=sums[:, [block[0] for block in dual]], multiplicities=mult,
                      valencies=valencies, order=ct.order)
    if multiplicities(fused.p, valencies, ct.order) != mult:
        raise AssertionError("fused multiplicities disagree with the eigenspace formula")
    if sum(mult) != ct.order:
        raise AssertionError("fused multiplicities do not sum to the order")
    return FusedTable(table=fused, blocks=blocks, dual_blocks=dual)


def symmetrization_partition(n: int, q: int) -> Partition:
    """Each relation united with its converse."""
    rank = scheme_rank(n, q)  # validates n and q before the layout is made
    conj = label_maps(q)[0][:rank].tolist()
    return tuple((l,) if l == c else (l, c) for l, c in enumerate(conj) if l <= c)


def coarse_partition(n: int, q: int = 2) -> Partition:
    """Scalar relations merged into one class and product relations into
    another (the perpendicular class, when present, stays alone)."""
    rank = scheme_rank(n, q)
    nrel = q * q - 1
    blocks = [(0,), tuple(range(1, nrel)), tuple(range(nrel, 2 * nrel))]
    if rank == 2 * nrel + 1:
        blocks.append((2 * nrel,))
    return tuple(blocks)


def canonical_fusions(n: int, q: int = 2) -> list[tuple[str, Partition]]:
    return [
        ("symmetrize", symmetrization_partition(n, q)),
        ("coarse", coarse_partition(n, q)),
    ]

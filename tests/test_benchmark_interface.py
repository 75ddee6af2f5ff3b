"""The package interface that perfbench's frozen ``exact_q2`` workload uses:
the idempotents of the 9-point scheme rendered as its ``_idempotents_op``
renders them, against the digest recorded in ``perfbench/digests.json``, and
the ``Eisenstein`` product its tracer counts.  Reads perfbench, never writes
it."""

import hashlib
import json
from pathlib import Path

import unitary_schemes as pkg
from unitary_schemes.eisenstein import Eisenstein, render

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_idempotents_of_the_9_point_scheme_match_the_benchmark_digest():
    us = pkg.enumerate_isotropic(2, 2)
    sd = pkg.build_descriptor(2, 2, seed=1)
    adjacency = pkg.build_adjacency_matrices(us, sd)
    mats = pkg.idempotents(pkg.char_table_closed(2), adjacency)
    text = "\n".join(" ".join(render(x) for x in row) for mat in mats for row in mat)
    expected = json.loads(DIGESTS.read_text())["bench"]["idempotents --n 2"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_the_traced_product_is_defined_on_the_value_type():
    assert "__mul__" in vars(Eisenstein) and "__rmul__" in vars(Eisenstein)

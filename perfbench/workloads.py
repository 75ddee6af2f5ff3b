"""The benchmark's workloads: the operations of one pass and their checks.

Every workload is a fixed list of operations over fixed (n, q) cases.  The
benchmark seed only feeds the program's own ``--seed`` (representative spot
checks and sampled validators), so the work per pass is the same for every
seed while the sampled pairs differ.

Operations call the package the way a user does: CLI commands through
``cli.main(argv)`` and library calls through the package namespace.  Names
are looked up at call time, never bound at import, so that the traced run's
wrappers see every call.

Outputs are checked outside the timed region against SHA-256 digests
recorded from the seed commit (``digests.json``).  Documents carry their seed
on a ``seed N`` line; that line is set back to ``seed 0`` before hashing, so
every other byte must match.  ``verify`` is judged by exit code and its final
``PASS`` line only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"


def load_digests(scale: str) -> dict:
    return json.loads(DIGESTS.read_text())[scale]


# The cases of each workload.  "bench" is what the benchmark measures; the
# cases first proposed (for example build --n 2 --q 9, 20-28 s per pass)
# were scaled down so that one run measures tens of passes, which keeps the
# medians steady, while each workload keeps its dominant layer.  "smoke" hits
# the same code paths in seconds for the benchmark's own tests.
CASES = {
    "bench": {
        # scheme's O(rank^3) scalar closed tensor and serialize's write path
        "large_q": {"both": [(2, 4)], "closed": [(8, 5)]},
        # row/column classification passes and hyperbolic_partner, over
        # 33 k rows and, many more times, over 2 k rows
        "large_n": {"both": [(8, 2), (4, 3)]},
        # Fraction-based Q(w) identities, dense classification, fusion
        "exact_q2": {"verify": [(4, 2)], "idempotents": [2],
                     "chartable": [(6, "coarse")]},
        # serialize's read path and the full relation-matrix validator
        "doc_import": {"closed_doc": [(8, 5)], "chartable_n": range(2, 13),
                       "matrices": [(4, 2), (2, 3)]},
    },
    "smoke": {
        "large_q": {"both": [(2, 2)], "closed": [(4, 2)]},
        "large_n": {"both": [(4, 2), (3, 3)]},
        "exact_q2": {"verify": [(2, 2)], "idempotents": [2],
                     "chartable": [(4, "coarse")]},
        "doc_import": {"closed_doc": [(4, 2)], "chartable_n": range(2, 5),
                       "matrices": [(2, 2), (3, 2)]},
    },
}
WORKLOADS = tuple(CASES["bench"])
FUSIONS = ("none", "symmetrize", "coarse")


def field_qs(workload: str, scale: str) -> tuple[int, ...]:
    """The q values whose field tables the workload needs."""
    cases = CASES[scale][workload]
    if workload == "exact_q2":
        return (2,)
    if workload == "doc_import":
        pairs = cases["closed_doc"] + cases["matrices"]
    else:
        pairs = [c for group in cases.values() for c in group]
    return tuple(sorted({q for _, q in pairs}))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def unseeded(text: str, seed: int) -> str:
    """A document with its seed line set back to the recorded seed 0."""
    return text.replace(f"\nseed {seed}\n", "\nseed 0\n", 1)


@dataclass
class Op:
    """One operation of a pass: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def run_cli(argv: list[str]) -> tuple[int, str]:
    from unitary_schemes import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_passed(result) -> bool:
    code, text = result
    lines = text.rstrip("\n").splitlines()
    return code == 0 and bool(lines) and lines[-1] == "PASS"


class Workload:
    """Builds the operations of one workload and checks their outputs."""

    def __init__(self, name: str, scale: str, seed: int, workdir: Path,
                 expected: dict | None = None):
        """``expected`` maps output keys to digests; None records them instead
        (into ``self.recorded``), which ``record_digests.py`` does once."""
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name, self.seed, self.workdir = name, seed, workdir
        self.cases = CASES[scale][name]
        self.expected = expected
        self.recorded: dict[str, str] = {}

    def _digest_ok(self, key: str, text: str) -> bool:
        digest = sha256(unseeded(text, self.seed))
        if self.expected is None:
            self.recorded[key] = digest
            return True
        return self.expected.get(key) == digest

    def _doc_op(self, argv: list[str]) -> Op:
        """A CLI command that writes its document to a file."""
        key = " ".join(argv)
        path = self.workdir / (key.replace(" ", "_").replace("--", "") + ".txt")
        full = argv + ["--seed", str(self.seed), "--out", str(path)]

        def check(result) -> bool:
            code, _ = result
            text = path.read_text()
            path.unlink()  # the next pass must write its own document
            return code == 0 and self._digest_ok(key, text)

        return Op(key, lambda: run_cli(full), check)

    def _verify_op(self, argv: list[str]) -> Op:
        full = argv + ["--seed", str(self.seed)]
        return Op(" ".join(argv), lambda: run_cli(full), _verify_passed)

    def _stdout_op(self, argv: list[str]) -> Op:
        key = " ".join(argv)

        def check(result) -> bool:
            code, text = result
            return code == 0 and self._digest_ok("stdout " + key, text)

        return Op(key, lambda: run_cli(argv), check)

    def _idempotents_op(self, n: int) -> Op:
        key = f"idempotents --n {n}"

        def run():
            import unitary_schemes as pkg

            us = pkg.enumerate_isotropic(n, 2)
            sd = pkg.build_descriptor(n, 2, seed=self.seed)
            adjacency = pkg.build_adjacency_matrices(us, sd)
            return pkg.idempotents(pkg.char_table_closed(n), adjacency)

        def check(mats) -> bool:
            from unitary_schemes.eisenstein import render

            text = "\n".join(" ".join(render(x) for x in row)
                             for mat in mats for row in mat)
            return self._digest_ok(key, text)

        return Op(key, run, check)

    def ops(self) -> list[Op]:
        c = self.cases
        if self.name == "large_q":
            return ([self._doc_op(["build", "--n", str(n), "--q", str(q)])
                     for n, q in c["both"]]
                    + [self._doc_op(["build", "--n", str(n), "--q", str(q),
                                     "--mode", "closed"]) for n, q in c["closed"]])
        if self.name == "large_n":
            return [self._doc_op(["build", "--n", str(n), "--q", str(q)])
                    for n, q in c["both"]]
        if self.name == "exact_q2":
            return ([self._verify_op(["verify", "--n", str(n), "--q", str(q)])
                     for n, q in c["verify"]]
                    + [self._idempotents_op(n) for n in c["idempotents"]]
                    + [self._stdout_op(["chartable", "--n", str(n), "--fusion", f])
                       for n, f in c["chartable"]])
        return self._import_ops()

    # ------------------------------------------------------------------
    # doc_import: inputs written once per run by the CLI in a child process

    def input_commands(self) -> list[list[str]]:
        """The CLI commands that write doc_import's input files."""
        c = self.cases
        cmds = [["build", "--n", str(n), "--q", str(q), "--mode", "closed"]
                for n, q in c["closed_doc"]]
        cmds += [["chartable", "--n", str(n), "--fusion", f]
                 for n in c["chartable_n"] for f in FUSIONS]
        cmds += [["export", "--n", str(n), "--q", str(q)] for n, q in c["matrices"]]
        return cmds

    def _input_path(self, argv: list[str]) -> Path:
        return self.workdir / ("in_" + "_".join(argv).replace("--", "") + ".txt")

    def write_inputs(self) -> None:
        """Write doc_import's inputs in a fresh process and check their digests."""
        cmds = [argv + ["--out", str(self._input_path(argv))]
                for argv in self.input_commands()]
        code = ("import json, sys, contextlib, io\n"
                "from unitary_schemes import cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        if cli.main(argv) != 0:\n"
                "            sys.exit(f'input command failed: {argv}')\n")
        subprocess.run([sys.executable, "-c", code, json.dumps(cmds)],
                       check=True, env=child_env())
        for argv in self.input_commands():
            key = " ".join(argv)
            if not self._digest_ok(key, self._input_path(argv).read_text()):
                raise RuntimeError(f"input {key!r} differs from its recorded digest")

    def _import_ops(self) -> list[Op]:
        ops = []
        for argv in self.input_commands():
            text = self._input_path(argv).read_text()
            if argv[0] == "export":
                ops.append(self._matrix_op(" ".join(argv), text))
            else:
                ops.append(self._parse_op(" ".join(argv), text))
        return ops

    def _parse_op(self, key: str, text: str) -> Op:
        def run():
            import unitary_schemes as pkg

            doc = pkg.parse_document(text)
            table = pkg.chartable_from_document(doc) if doc.chartable else None
            return doc, table

        def check(result) -> bool:
            import unitary_schemes as pkg

            doc, table = result
            if table is not None:
                doc = pkg.document_from_chartable(table, doc.n, fusion=doc.fusion,
                                                  seed=doc.seed)
            return pkg.render_document(doc) == text

        return Op("parse " + key, run, check)

    def _matrix_op(self, key: str, text: str) -> Op:
        def run():
            import unitary_schemes as pkg

            matrix, rank = pkg.parse_relation_matrix(text)
            scheme = pkg.scheme_from_relation_matrix(matrix)
            report = pkg.verify_relation_matrix(matrix, rank, seed=self.seed)
            return matrix, rank, scheme, report

        def check(result) -> bool:
            import unitary_schemes as pkg

            matrix, rank, scheme, report = result
            return (report.passed
                    and pkg.render_relation_matrix(matrix, rank) == text
                    and self._digest_ok("scheme_from " + key, repr(scheme)))

        return Op("import " + key, run, check)


def child_env() -> dict:
    """The environment of a child process that imports the package from SRC."""
    return {**os.environ, "PYTHONPATH": str(SRC)}

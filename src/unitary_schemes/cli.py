"""Command-line interface: build schemes, print character tables, export
relation matrices, and run the verification suite."""

from __future__ import annotations

import argparse
import sys

from . import chartable as ct_mod
from . import fusion as fusion_mod
from . import kernels
from . import scheme as scheme_mod
from . import serialize
from .space import check_budget, enumerate_isotropic, isotropic_count
from .fields import SUPPORTED_Q


def _pretty(a: int, b: int) -> str:
    """A + B w as the table prints it: 3, -w, 2+4w, -4-4w."""
    if b == 0:
        return str(a)
    tail = "w" if abs(b) == 1 else f"{abs(b)}w"
    if a == 0:
        return tail if b > 0 else "-" + tail
    return f"{a}{'-' if b < 0 else '+'}{tail}"


def _print_table(table: ct_mod.CharTable) -> None:
    cells = [list(map(_pretty, ra, rb)) for ra, rb in zip(*table.p.tolist())]
    widths = [max(len(cells[i][j]) for i in range(table.size)) for j in range(table.size)]
    mwidth = max(len(str(m)) for m in table.multiplicities)
    for row, m in zip(cells, table.multiplicities):
        body = "  ".join(c.rjust(w) for c, w in zip(row, widths))
        print(f"  {body}  | {str(m).rjust(mwidth)}")


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when it is None; a path that
    cannot be written raises a ``ValueError`` naming it."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_build(args) -> int:
    if args.format == "hanaki":
        return cmd_export(args)
    sd = scheme_mod.build_descriptor(args.n, args.q, args.mode, args.seed)
    doc = serialize.document_from_descriptor(sd, seed=args.seed)
    _write(serialize.render_document(doc) if args.format == "doc"
           else serialize.tensor_csv(doc), args.out)
    return 0


def cmd_chartable(args) -> int:
    table = ct_mod.char_table_closed(args.n)
    fusion_name = None
    if args.fusion != "none":
        conj = kernels.label_maps(2)[0][:scheme_mod.scheme_rank(args.n, 2)].tolist()
        partition = dict(fusion_mod.canonical_fusions(args.n))[args.fusion]
        table = fusion_mod.fuse(table, conj, partition).table
        fusion_name = args.fusion
    label = f"character table, dimension {args.n}, {table.order} points"
    if fusion_name:
        label += f", fusion {fusion_name}"
    print(label)
    _print_table(table)
    if args.out is not None:
        doc = serialize.document_from_chartable(table, args.n, fusion=fusion_name,
                                                seed=args.seed)
        text = (serialize.render_document(doc) if args.format == "doc"
                else serialize.chartable_csv(doc))
        _write(text, args.out)
    return 0


def cmd_export(args) -> int:
    """The relation matrix, for ``export`` and ``build --format hanaki``, which
    first builds and cross-checks the descriptor in its ``--mode``.  The pairs
    budget is checked from the closed point count before any enumeration."""
    n, q, mode = args.n, args.q, getattr(args, "mode", None)  # export has no --mode
    scheme_mod.check_parameters(n, q)
    check_budget("pairs", isotropic_count(n, q) ** 2)
    us = scheme_mod.build_descriptor_with_space(n, q, mode, args.seed)[1] if mode else None
    matrix = scheme_mod.relation_matrix(us if us is not None else enumerate_isotropic(n, q))
    _write(serialize.render_relation_matrix(matrix, scheme_mod.scheme_rank(n, q)), args.out)
    return 0


def cmd_verify(args) -> int:
    sd, us = scheme_mod.build_descriptor_with_space(args.n, args.q, args.mode, args.seed)
    report = scheme_mod.verify_descriptor(sd, us, args.seed)
    if sd.q == 2:
        report.checks.append(ct_mod.verify_table(ct_mod.char_table_closed(sd.n), sd))
    print(f"scheme (n={sd.n}, q={sd.q}): {sd.order} points, rank {sd.rank}")
    for _, ok, text in report.checks:
        print(("ok   - " if ok else "FAIL - ") + text)
    for note in report.notes:
        print("note - " + note)
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitary-schemes",
        description="Association schemes of unitary group actions on isotropic vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True, with_out=True):
        p.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
        if with_q:
            p.add_argument("--q", type=int, required=True,
                           help=f"field parameter, one of {SUPPORTED_Q}")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for representative spot checks")
        if with_out:
            p.add_argument("--out", type=str, default=None, help="output path")

    mode_help = ("closed: closed formulas, no enumeration; bruteforce: enumerate the "
                 "points and count; both: count and compare with the closed formulas")

    p_build = sub.add_parser("build", help="build a scheme descriptor document")
    common(p_build)
    p_build.add_argument("--mode", choices=scheme_mod.MODES, default="both", help=mode_help)
    p_build.add_argument("--format", choices=("doc", "csv", "hanaki"), default="doc",
                         help="doc: descriptor document; csv: nonzero tensor entries; "
                              "hanaki: relation matrix, as export writes it")

    p_table = sub.add_parser("chartable", help="print the q=2 character table")
    common(p_table, with_q=False)
    p_table.add_argument("--fusion", choices=("none", "symmetrize", "coarse"),
                         default="none")
    p_table.add_argument("--format", choices=("doc", "csv"), default="doc",
                         help="format of the --out document only; the printed table "
                              "is always the same")

    p_export = sub.add_parser("export", help="write the relation matrix")
    common(p_export)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify, with_out=False)  # the report goes to stdout only
    p_verify.add_argument("--mode", choices=scheme_mod.MODES, default="both", help=mode_help)

    return parser


# Built once at import: ``main`` may run many times in one process.
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up at each call, so that a replaced ``cmd_*`` is the one that runs
    commands = {"build": cmd_build, "chartable": cmd_chartable, "export": cmd_export,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (ValueError, ArithmeticError, scheme_mod.OracleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

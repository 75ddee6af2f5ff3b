"""Golden pins: SHA-256 digests of the chartable, verify, build and export
outputs, on stdout and, for every command that takes one, in the --out file.

Round trips pass under any rendering drift that the writer and the reader
share; these digests pin the bytes themselves.  They were recorded once from
the outputs below and are compared, never rewritten, by the test:

    PYTHONPATH=src python tests/test_golden.py  # prints the current digests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from unitary_schemes.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
FUSIONS = ("none", "symmetrize", "coarse")
CHARTABLE_N = (*range(2, 13), 40)
VERIFY_N = range(2, 7)
# q > 2, the closed and bruteforce modes, and the pairs-budget note at (6, 3)
VERIFY_CASES = ((2, 3, "both"), (3, 4, "closed"), (3, 2, "bruteforce"), (6, 2, "closed"),
                (6, 3, "both"))
BUILD_NQ = ((2, 2), (2, 4), (4, 3), (3, 9), (8, 5), (10, 9))  # closed mode, doc and csv
EXPORT_NQ = ((2, 3), (4, 2))
HANAKI_NQ = (3, 2)  # build --format hanaki, in the default mode both


def commands():
    for n in CHARTABLE_N:
        for fusion in FUSIONS:
            yield ["chartable", "--n", str(n), "--fusion", fusion]
    for n in VERIFY_N:
        yield ["verify", "--n", str(n), "--q", "2"]
    for n, q, mode in VERIFY_CASES:
        mode_flag = [] if mode == "both" else ["--mode", mode]
        yield ["verify", "--n", str(n), "--q", str(q), *mode_flag]
    for n, q in BUILD_NQ:
        for fmt in ("doc", "csv"):
            yield ["build", "--n", str(n), "--q", str(q), "--mode", "closed", "--format", fmt]
    n, q = HANAKI_NQ
    yield ["build", "--n", str(n), "--q", str(q), "--format", "hanaki"]
    for n, q in EXPORT_NQ:
        yield ["export", "--n", str(n), "--q", str(q)]


def outputs(argv, run, tmp_path):
    """(key, text) for the stdout of ``argv`` and its --out files: for
    chartable one in each format, for build and export the file that holds
    what stdout does; ``run(argv)`` returns (exit code, stdout)."""
    key = " ".join(argv)
    code, out = run(argv)
    assert code == 0, key
    yield "stdout " + key, out
    if argv[0] == "chartable":
        files = [(f"{fmt} {key}", ["--format", fmt]) for fmt in ("doc", "csv")]
    elif argv[0] in ("build", "export"):
        files = [("out " + key, [])]
    else:
        files = []
    for name, flags in files:
        path = tmp_path / "out.txt"
        code, _ = run(argv + flags + ["--out", str(path)])
        assert code == 0, key
        yield name, path.read_bytes().decode()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(commands()), ids=" ".join)
def test_output_matches_golden_digest(argv, capsys, tmp_path):
    expected = json.loads(DIGESTS.read_text())

    def run(args):
        code = main(args)
        return code, capsys.readouterr().out

    texts = dict(outputs(argv, run, tmp_path))
    for key, text in texts.items():
        assert digest(text) == expected[key], key
    if argv[0] in ("build", "export"):  # the file holds stdout's bytes
        assert texts["out " + " ".join(argv)] == texts["stdout " + " ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def run(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(args)
        return code, buffer.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        table = {key: digest(text) for argv in commands()
                 for key, text in outputs(argv, run, Path(tmp))}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

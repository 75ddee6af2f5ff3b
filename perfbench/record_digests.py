#!/usr/bin/env python3
"""Record digests.json: the SHA-256 of every output the workloads check.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right; the committed
file was recorded on the commit that introduced the benchmark, whose
documents the acceptance suite pins.  Every scale and workload is run once
with seed 0.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CASES, DIGESTS, SRC, WORKLOADS, Workload  # noqa: E402

sys.path.insert(0, str(SRC))


def main() -> int:
    digests = {}
    for scale in CASES:
        recorded = {}
        for name in WORKLOADS:
            workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
            try:
                workload = Workload(name, scale, 0, workdir, expected=None)
                if name == "doc_import":
                    workload.write_inputs()
                for op in workload.ops():
                    if not op.check(op.run()):
                        raise SystemExit(f"{scale}/{name}: {op.label} failed")
            finally:
                shutil.rmtree(workdir)
            recorded.update(workload.recorded)
        digests[scale] = dict(sorted(recorded.items()))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

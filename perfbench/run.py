#!/usr/bin/env python3
"""One benchmark run of one workload.

    python3 perfbench/run.py --workload large_q --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  The run

1. measures ``setup_s``: the median, over several fresh processes, of the time
   from process start until the package is imported and the workload's field
   tables are built;
2. builds the workload's inputs and runs one warm-up pass;
3. repeats the workload's pass for ``--seconds`` (and at least 11 passes, so
   the tail percentile has ten passes beyond it), timing each pass and,
   before it, a fixed reference computation;
4. checks every output outside the timed region;
5. prints one line per metric, a ``detail`` line (raw seconds, environment,
   sample counts, failed operations) and, last, the JSON result.

The median pass, its tail percentile and the median CPU per pass are
reported in seconds (``wall_s``, ``wall_s.tail``, ``cpu_s``).  The gated
metrics (``wall_ref``, ``wall_ref.tail``, ``cpu_ref``) take the same
statistics of each pass divided by the mean of the reference times just
before and just after it, which cancels the host's drift in speed.

With ``--trace 1`` passes alternate between untraced and traced under the
span tracer (tracing.py); the result holds the per-layer metrics, averaged
over the traced passes, and the tracing overhead (traced minus untraced
mean pass time).  The layers' self times add up to the traced mean pass, so
they exceed the untraced mean by exactly the overhead.  Spans are written to
``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import SRC, WORKLOADS, Workload, child_env, field_qs, load_digests  # noqa: E402

SETUP_PROBES = 11
MIN_PASSES = 11  # the tail percentile needs ten passes beyond it

# The gated metrics (BENCHMARK.json).  Pass times are gated as multiples of
# the reference time (Reference below) measured around each pass, because on
# a shared host the raw times swing by up to 2x over minutes while the ratio
# holds; the raw seconds are printed and kept in the detail line.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "wall_ref.tail": "ref",
              "cpu_ref": "ref", "peak_rss_mb": "MB"}
RAW = {"wall_s": "s", "wall_s.tail": "s", "cpu_s": "s", "reference_s": "s"}

# Functions whose in-layer seconds (".s") or call counts (".calls") are
# reported per traced pass.
FUNCTION_SECONDS = (
    "scheme.build_descriptor", "serialize.document_from_descriptor",
    "serialize.render_document", "serialize.parse_document",
    "serialize.parse_relation_matrix", "kernels.classify_row",
    "kernels.classify_col", "kernels.classify_matrix", "space.enumerate_isotropic",
    "space.hyperbolic_partner", "scheme.relation_matrix",
    "scheme.verify_relation_matrix", "scheme.scheme_from_relation_matrix",
    "chartable.verify_orthogonality", "chartable.verify_homomorphism",
    "chartable.reconstruct_intersection", "chartable.second_eigenmatrix",
    "chartable.minimal_polynomial_annihilates", "chartable.idempotents",
    "fusion.fuse",
)
FUNCTION_CALLS = (
    "scheme.intersection_number_closed", "kernels.classify_row",
    "kernels.classify_col", "chartable.reconstruct_intersection",
    "space.hermitian_inner", "eisenstein.mul",
)
COUNTERS = {"kernels.rows_classified": "count", "kernels.bytes_computed": "bytes",
            "space.points": "count", "serialize.render_document.bytes": "bytes",
            "serialize.parse_document.bytes": "bytes"}


# A function's ".s" is its in-layer time (tracing.Tracer.span_times).  For
# build_descriptor, whose in-layer time is nearly the whole build, the metric
# is its strict self time, which is the scalar closed tensor.
SELF_ONLY = "scheme.build_descriptor"


def _function_metric(name: str) -> str:
    return f"{name}.self_s" if name == SELF_ONLY else f"{name}.s"


PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{_function_metric(name): "s" for name in FUNCTION_SECONDS},
    **{f"{name}.calls": "count" for name in FUNCTION_CALLS},
    **COUNTERS,
    "kernels.distinct_row_ratio": "ratio",
    "fields.build_field.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

PROBE = """\
import sys
import unitary_schemes, unitary_schemes.cli
from unitary_schemes.fields import build_field
for q in sys.argv[1:]:
    build_field(int(q))
print("ready", flush=True)
"""


class Reference:
    """A fixed piece of interpreter, Fraction and numpy work that uses nothing
    from the package, timed between passes to track the host's speed.

    Never change it: the *_ref metrics are multiples of its time.
    """

    def __init__(self):
        import numpy as np  # imported late: BLAS threads are pinned first

        rng = np.random.default_rng(0)
        self.columns = rng.integers(0, 16, size=(50_000, 8), dtype=np.uint8)
        self.table = rng.integers(0, 16, size=(16, 16), dtype=np.uint8)

    def measure(self) -> float:
        import numpy as np

        gc.disable()  # the program's heap must not slow the reference
        try:
            start = perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i % 7
            x = Fraction(0)
            for i in range(1, 1500):
                x += Fraction(i, i + 1) * Fraction(3, 7)
            acc = np.zeros(self.columns.shape[0], dtype=np.uint8)
            for i in range(self.columns.shape[1]):
                acc = self.table[acc, self.columns[:, i]]
            return perf_counter() - start
        finally:
            gc.enable()


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def pin_threads() -> int:
    """Pin BLAS/OpenMP threads to the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "numba": "present" if find_spec("numba") else "absent",
           "nproc": nproc, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "cpu": "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.partition(":")[2].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the record keeps "unknown" where the system does not say
    return env


def measure_setup(qs: tuple[int, ...], env: dict) -> float:
    """Median seconds from process start to package imported and tables built."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, *map(str, qs)],
                              stdout=subprocess.PIPE, text=True, env=env) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            fail("set-up probe failed")
    return statistics.median(times)


def run_pass(ops, tracer=None) -> tuple[float, float, list]:
    results = []
    wall0, cpu0 = perf_counter(), process_time()
    for op in ops:
        if tracer is not None:
            tracer.op += 1  # spans carry the operation they belong to
        try:
            results.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc)
    return perf_counter() - wall0, process_time() - cpu0, results


def failed_ops(ops, results) -> list[str]:
    failed = []
    for op, result in zip(ops, results):
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception:  # a check that cannot read the output fails it
            ok = False
        if not ok:
            failed.append(op.label)
    return failed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Runner:
    """Runs a workload's passes and counts attempted and failed operations."""

    def __init__(self, workload, tracer=None):
        self.ops = workload.ops()
        self.tracer = tracer
        self.attempted = 0
        self.failed: list[str] = []

    def one_pass(self, traced: bool = False):
        """Run and check one pass; returns wall and CPU seconds, and the
        per-layer figures of the pass when it ran under the tracer."""
        t = self.tracer if traced else None
        if t is not None:
            before = (len(t.spans), t.calls.copy(), t.counters.copy(), t.errors.copy())
            t.distinct_rows.clear()
            t.install()
        try:
            wall, cpu, results = run_pass(self.ops, t)
        finally:
            if t is not None:
                t.uninstall()
        self.attempted += len(self.ops)
        self.failed += failed_ops(self.ops, results)
        return wall, cpu, self._pass_layers(wall, *before) if t is not None else None

    def _pass_layers(self, wall, first, calls, counters, errors) -> dict:
        t = self.tracer
        selfs, inlayer, spans = t.span_times(first)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, seconds in selfs.items():
            out[name.partition(".")[0] + ".self_s"] += seconds
        out["cli.self_s"] = wall - sum(v for k, v in out.items() if k != "cli.self_s")
        for name in FUNCTION_SECONDS:
            out[_function_metric(name)] = (selfs if name == SELF_ONLY else inlayer)[name]
        for name in FUNCTION_CALLS:
            out[f"{name}.calls"] = t.calls[name] - calls[name] + spans[name]
        for name in COUNTERS:
            out[name] = t.counters[name] - counters[name]
        for layer in LAYERS:
            out[f"{layer}.errors"] = t.errors[layer] - errors[layer]
        rows = out["kernels.classify_row.calls"]
        out["kernels.distinct_row_ratio"] = len(t.distinct_rows) / rows if rows else 0.0
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                        help="smoke: tiny cases for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "unitary_schemes" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a source checkout")
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    qs = field_qs(args.workload, args.scale)
    setup_s = measure_setup(qs, child_env()) if not args.trace else None

    import unitary_schemes
    from unitary_schemes.fields import build_field

    if Path(unitary_schemes.__file__).resolve().parent != (SRC / "unitary_schemes").resolve():
        fail(f"imported unitary_schemes from {unitary_schemes.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_spans = len(tracer.spans) if tracer else 0
    for q in qs:
        build_field(q)
    build_field_s = tracer.span_times(setup_spans)[0]["fields.build_field"] if tracer else 0.0
    if tracer:
        tracer.uninstall()  # installed again for each traced pass only

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, args.scale, args.seed, workdir,
                            expected=load_digests(args.scale))
        if args.workload == "doc_import":
            workload.write_inputs()
        runner = Runner(workload, tracer)
        runner.one_pass()  # warm-up, checked but not reported
        reference = Reference()
        walls, cpus, refs, traced, per_pass = [], [], [], [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(walls) < MIN_PASSES:
            if not args.trace:  # a reference before every pass and after the last
                refs.append(reference.measure())
            wall, cpu, _ = runner.one_pass()
            walls.append(wall)
            cpus.append(cpu)
            if args.trace:  # traced passes alternate with untraced ones
                wall, _, layers = runner.one_pass(traced=True)
                traced.append(wall)
                per_pass.append(layers)
        if not args.trace:
            refs.append(reference.measure())
            # each pass against the mean of the references on either side of it
            around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
            tail_value, tail_pct = tail(walls)
            raw = {"wall_s": statistics.median(walls), "wall_s.tail": tail_value,
                   "cpu_s": statistics.median(cpus), "reference_s": statistics.median(refs)}
            metrics = {
                "setup_s": setup_s,
                "wall_ref": statistics.median(w / r for w, r in zip(walls, around)),
                "wall_ref.tail": tail([w / r for w, r in zip(walls, around)])[0],
                "cpu_ref": statistics.median(c / r for c, r in zip(cpus, around)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            samples = {"raw": raw, "passes": len(walls), "tail_percentile": tail_pct,
                       "walls": walls, "references": refs}
        else:
            metrics = {name: statistics.fmean(p[name] for p in per_pass)
                       for name in per_pass[0]}
            metrics["fields.build_field.s"] = build_field_s
            metrics["trace.wall_s"] = statistics.fmean(traced)
            metrics["trace.untraced_wall_s"] = statistics.fmean(walls)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            units = PER_LAYER
            samples = {"untraced_passes": len(walls), "traced_passes": len(traced)}
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failed)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, unit in RAW.items() if not args.trace else ():
        print(f"{name} {samples['raw'][name]:.6g} {unit}")
    print(f"fail_ratio {failed}/{runner.attempted}")
    detail = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds, **samples,
              "fail_ratio": failed / runner.attempted,
              "failed_ops": sorted(set(runner.failed)), "env": environment(nproc)}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

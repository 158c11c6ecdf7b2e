"""motion-forge benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload prefix-long --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed, set up three times (the
median set-up is reported), then timed passes run back to back for
--seconds.  Every set-up and pass is bracketed by a host reference task
and its time normalized by it (see hostref.py).  Every pass is checked; a
pass that raises or fails a check counts all its ops as failed.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including trace.overhead (median traced over median untraced pass time);
the spans of the traced passes go to .perfbench_out/.

Machine notes and a readable summary come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
BLAS is pinned to one thread and everything runs in this one process.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def machine_notes(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def build(workloads, name: str, seed: int, workdir: Path):
    cls = workloads.WORKLOADS[name]
    if name == "dataset-pass":
        return cls(seed, workdir)
    return cls(seed)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motion_forge" / "__init__.py").is_file():
        print(f"perfbench: no motion_forge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import motion_forge

    if Path(motion_forge.__file__).resolve().parent != SRC / "motion_forge":
        print(f"perfbench: imported motion_forge from {motion_forge.__file__}", file=sys.stderr)
        return 2
    import hostref
    import layers
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    ref = hostref.HostReference(workloads.WORKLOADS[args.workload].host_ref)
    ref.run()                       # first run pays for cold caches
    last = first = ref.run()
    raw_setups, setups = [], []
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = build(workloads, args.workload, args.seed, workdir)
            wl.warm_up()
            took = time.perf_counter() - t0
            after = ref.run()
            raw_setups.append(took)
            setups.append(took * ref.factor(last, after))
            last = after
        setup = (import_s * ref.factor(first, first) + median(setups), import_s + median(raw_setups))
        return measure(args, wl, setup, ref, last, workloads, layers, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup, ref, last, workloads, layers, tracing) -> int:
    """Timed passes until --seconds have passed; every time is normalized
    by the host reference runs that bracket it (see hostref.py)."""
    reference = workloads.load_reference().get(args.workload, {}).get(str(args.seed))
    tracer = tracing.Tracer() if args.trace else None
    timings = {False: [], True: []}    # traced? -> normalized pass seconds
    ops_rates, raw_rates, latencies = [], [], []
    outputs = dict.fromkeys(layers.OUTPUT_KEYS, 0)
    attempted = failed = 0
    failures: list[str] = []
    digests = set()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        k += 1
        ops = wl.ops_per_pass
        try:
            if traced:
                tracer.pass_id = k
                tracer.install(layers.TARGETS)
                try:
                    res = wl.run_pass(tracer.wrap)
                finally:
                    tracer.uninstall()
            else:
                res = wl.run_pass()
        except Exception:       # the pass's ops count as failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            res = None
        after = ref.run()
        scale = ref.factor(last, after)
        last = after
        if res is None:
            pass_failures = ["the pass raised"]
        else:
            ops = res.ops
            pass_failures = list(res.failures)
            if res.ops != wl.ops_per_pass:
                pass_failures.append(f"{res.ops} ops in the pass, expected {wl.ops_per_pass}")
            if reference is not None:
                pass_failures += workloads.compare_reference(reference, res.summary)
            digests.add(res.digest)
            timings[traced].append(res.seconds * scale)
            if not traced:
                ops_rates.append(res.ops / (res.seconds * scale))
                raw_rates.append(res.ops / res.seconds)
                latencies += [t * scale for t in res.latencies]
            else:
                for key, v in res.outputs.items():
                    outputs[key] += v
        attempted += ops
        if pass_failures:
            failed += ops
            failures += [f for f in pass_failures if f not in failures]
        if time.perf_counter() >= deadline and (not args.trace or timings[True]):
            break
    if len(digests) > 1:
        failures.append(f"passes disagree: {len(digests)} different output digests")
        failed = attempted

    if not timings[False]:
        print("perfbench: no untraced pass completed", file=sys.stderr)
        return 1
    notes = {"machine": machine_notes(args.seed), "workload": args.workload,
             "op": wl.op, "passes": len(timings[False]) + len(timings[True]),
             "digest": sorted(digests),
             "reference": "checked" if reference is not None else "no stored values for this seed"}
    if args.trace:
        overhead = median(timings[True]) / median(timings[False])
        ctx = layers.Context(tracer, outputs, len(timings[True]), overhead)
        metrics, skipped = layers.layer_metrics(ctx)
        notes["missing_targets"] = tracer.missing
        notes["metrics_left_out"] = skipped
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.span_records()))
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "ops_per_s": {"value": median(ops_rates), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * percentile(latencies, 50), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        notes["latency_samples"] = len(latencies)
        notes["raw_wall"] = {"setup_s": setup[1], "ops_per_s": median(raw_rates)}
    notes["error_rate"] = failed / attempted
    print(json.dumps(notes))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for f in failures:
        print(f"  FAILED CHECK: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

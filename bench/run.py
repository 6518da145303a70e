"""polyvol benchmark: four closed-loop workloads over the library's CLI calls.

    python3 bench/run.py --workload {flow,rectify,volume,angles,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root (or anywhere: paths are resolved from this
file).  The benchmark imports ``polyvol`` from ``src/`` next to this
directory and changes nothing in it.  One client runs each workload's
fixed op list, one call at a time, in passes until ``--seconds`` have
passed (at least three passes).

Standard output: an environment line, one line per metric with its
unit, one line per failed op, and last a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with times normalised to a reference host speed (``speed.py``);
with ``--trace 1`` they are its per-layer metrics, from a run that
alternates untraced and traced passes, and the spans are written to
``.bench_out/``.  ``--workload all`` runs each workload in its own
process, one after another.

``failed`` counts failures other than the known ones listed in
``workloads.py``; ``fail_frac`` counts every failure.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SPAN_NAMES  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("flow", "rectify", "volume", "angles")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a fresh process and print one line per metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "polyvol" / "__init__.py").is_file():
        print(f"error: no polyvol sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    import measure
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, layer, outcomes, tracer = measure.traced_run(
            workload, args.seed, args.seconds)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        _print_top_level(tracer, outcomes)
        _print_layers(layer)
        selected = spec["per_layer"]
        values = layer
    else:
        metrics, outcomes, probe = measure.timed_run(workload, args.seed, args.seconds)
        _print_host(probe, outcomes)
        selected = spec["end_to_end"]
        values = metrics
    samples = {}
    for o in outcomes:
        samples.setdefault(o.op, []).append(o.seconds)
    for op, times in samples.items():
        print(f"op {args.workload} {op} " + " ".join(f"{t:.4f}" for t in times))
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {measure.END_TO_END[name]}")
    for o in outcomes:
        if o.reason is not None:
            kind = "known" if o.reason == o.known else "UNEXPECTED"
            print(f"failure {args.workload} pass={o.pass_no} op={o.op} "
                  f"reason={o.reason} {kind} {o.seconds:.3f}s")
    failed = sum(o.unexpected for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in selected},
    }
    print(json.dumps(result))
    return 0


def _print_host(probe, outcomes) -> None:
    """The probe's quartiles and the raw sum of per-op medians, for comparison."""
    q1, q2, q3 = statistics.quantiles(probe.samples, n=4)
    per_op = {}
    for o in outcomes:
        per_op.setdefault(o.op, []).append(o.raw)
    raw_wall = sum(statistics.median(times) for times in per_op.values())
    print(f"host probe_ms q1={q1 * 1e3:.4f} median={q2 * 1e3:.4f} q3={q3 * 1e3:.4f} "
          f"samples={len(probe.samples)} raw_wall_s={raw_wall:.4f}")


def _print_top_level(tracer, outcomes) -> None:
    """Per op of the first traced pass: its top-level span and unattributed time."""
    traced = [o for o in outcomes if o.traced]
    if not traced:
        return
    first = [o for o in traced if o.pass_no == traced[0].pass_no]
    names = {(o.pass_no, i): o.op for i, o in enumerate(first)}
    for op, name, dur, self_t in tracer.top_level(set(names)):
        share = self_t / dur if dur > 0 else 0.0
        print(f"top {names[op]} {name} busy={dur:.4f}s unattributed={self_t:.4f}s "
              f"({share:.1%})")


def _print_layers(layer) -> None:
    """Wrapped functions by self time, with their share of a traced pass."""
    wall = layer["trace.wall_s"]
    for name in sorted(SPAN_NAMES, key=lambda n: -layer[f"{n}.self_s"]):
        if layer[f"{name}.calls"]:
            self_t = layer[f"{name}.self_s"]
            print(f"layer {name} calls={layer[f'{name}.calls']} "
                  f"busy={layer[f'{name}.busy_s']:.4f}s self={self_t:.4f}s "
                  f"({self_t / wall:.1%} of a traced pass)")
    for name in ("trace.wall_s", "trace.overhead_s", "trace.top_self_s"):
        print(f"layer {name} {layer[name]:.4f}s")


if __name__ == "__main__":
    sys.exit(main())

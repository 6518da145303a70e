"""Self-check of the benchmark at reduced size (about ten seconds).

    python3 bench/selfcheck.py

Runs every workload once timed and once traced on a reduced op list and
checks that the end-to-end metrics carry their names and units, that
the traced and the probed passes return bit-identical results to the
plain ones (so neither the wrappers nor the speed probe change the
program), that every per-layer metric of
BENCHMARK.json is produced, that known failures are counted, and that a
deliberately wrong reference value is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import measure  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402

SEED = 7


def check_workload(workload, spec) -> None:
    metrics, outcomes, probe = measure.timed_run(workload, SEED, 0.0, small=True)
    assert probe.count > speed.RECENT, "the speed probe never fired"
    assert all(o.seconds > 0 for o in outcomes), outcomes
    assert measure.END_TO_END == {"setup_s": "s", "wall_s": "s", "max_op_s": "s",
                                  "fail_frac": "1", "peak_rss_mb": "MB"}
    assert set(metrics) == set(measure.END_TO_END), metrics
    for m in spec["end_to_end"]:
        assert measure.END_TO_END[m["name"]] == m["unit"], m
        assert metrics[m["name"]] > 0, m
    assert not any(o.unexpected for o in outcomes), [o for o in outcomes if o.unexpected]
    probed = outcomes

    metrics, layer, outcomes, tracer = measure.traced_run(workload, SEED, 0.0, small=True)
    assert any(o.traced for o in outcomes) and any(not o.traced for o in outcomes)
    digests = {}
    for o in outcomes + probed:
        digests.setdefault(o.op, set()).add(repr(o.digest))
    changed = [op for op, seen in digests.items() if len(seen) != 1]
    assert not changed, f"traced or probed results differ from plain ones: {changed}"
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
    assert not missing, missing
    assert len(SPAN_NAMES) * 3 <= len(spec["per_layer"])
    top = {name for _, name, _, _ in tracer.top_level()}
    assert top, "no spans recorded: the wrappers were not installed"
    print(f"ok {workload.name}: {len(outcomes)} ops, {len(tracer.spans)} spans, "
          f"top-level {sorted(top)}")


def check_oracles() -> None:
    plan = workloads.build_volume(SEED, small=True)
    op = plan.ops[0]
    reference = workloads.corpus.regular_tetrahedron_volume(0.3)
    wrong = dataclasses.replace(op, check=workloads.volume_check(reference + 1e-3))
    (outcome,) = measure.run_pass(workloads.Plan([wrong]), workloads.volume_digest, 0)
    assert outcome.reason == "reference" and outcome.unexpected, outcome

    plan = workloads.build_rectify(SEED, small=True)
    op = next(o for o in plan.ops if o.name == "pyramid4")
    wrong = dataclasses.replace(op, check=workloads.rectify_check(
        workloads.corpus.antiprism_volume(5)))
    (outcome,) = measure.run_pass(workloads.Plan([wrong]), workloads.volume_digest, 0)
    assert outcome.reason == "closed_form" and outcome.unexpected, outcome

    outcomes = measure.run_pass(plan, workloads.volume_digest, 0)
    known = [o for o in outcomes if o.reason is not None]
    assert [(o.op, o.reason) for o in known] == [("prism8", "SolverDiverged")], known
    assert not known[0].unexpected
    print("ok oracles: wrong references fail, the known rectify failure is counted")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        check_workload(workload, spec)
    check_oracles()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

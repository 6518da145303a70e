"""Closed-loop measurement of one workload: set-up, passes, checks, tracing.

One client runs the plan's ops one at a time; a pass is one run over
the fixed op list.  Timed runs report the end-to-end metrics with
tracing off and the speed probe on (``speed.py``), so their times are
normalised to the probe's reference speed.  A traced run alternates
untraced and traced passes without the probe, so the tracing overhead
is measured in raw seconds on the same seed in the same process.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any

from spans import Tracer
from speed import SpeedProbe

#: Set-ups per run, at least and at most, and the time after which no
#: further set-up starts; ``setup_s`` is their median.
SETUP_REPEATS = (5, 25)
SETUP_SECONDS = 1.0
#: Passes per run at least, whatever ``--seconds`` says.
MIN_PASSES = 3

#: Op id of the set-up spans in a traced run.
SETUP_OP = (-1, -1)

#: name -> unit of the end-to-end metrics.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_op_s": "s",
    "fail_frac": "1",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    pass_no: int
    op: str
    seconds: float          # normalised with a probe, else the same as raw
    raw: float
    reason: str | None      # None: the op returned and passed its checks
    known: str | None
    digest: Any
    traced: bool = False

    @property
    def unexpected(self) -> bool:
        return self.reason is not None and self.reason != self.known


def _start(probe):
    return time.perf_counter() if probe is None else probe.start()


def _stop(probe, mark) -> tuple[float, float]:
    """Raw and normalised seconds since ``mark``; both raw without a probe."""
    if probe is None:
        raw = time.perf_counter() - mark
        return raw, raw
    return probe.stop(mark)


def run_pass(plan, digest, pass_no: int, tracer: Tracer | None = None,
             probe: SpeedProbe | None = None) -> list:
    """Run every op of the plan once, then its cross-op checks."""
    outcomes, results = [], {}
    for index, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op = (pass_no, index)
        mark = _start(probe)
        try:
            result = op.call()
        except Exception as exc:  # a failed op is recorded and the pass goes on
            raw, seconds = _stop(probe, mark)
            outcomes.append(Outcome(pass_no, op.name, seconds, raw, type(exc).__name__,
                                    op.known, ("raised", type(exc).__name__, str(exc)),
                                    tracer is not None))
            continue
        raw, seconds = _stop(probe, mark)
        outcomes.append(Outcome(pass_no, op.name, seconds, raw, op.check(result), op.known,
                                digest(result), tracer is not None))
        results[op.name] = result
    if tracer is not None:
        tracer.op = None
    by_name = {o.op: o for o in outcomes}
    for a, b, tol, check in plan.pairs:
        if a in results and b in results and abs(results[a].value - results[b].value) > tol:
            if by_name[b].reason is None:
                by_name[b].reason = check
    return outcomes


def mark_unrepeatable(outcomes) -> None:
    """Fail ops whose result differs, bit for bit, from their first pass."""
    first = {}
    for o in outcomes:
        first.setdefault(o.op, o.digest)
        if o.digest != first[o.op] and o.reason is None:
            o.reason = "repeatable"


def _more_passes(pass_no: int, start: float, pass_seconds: float, seconds: float) -> bool:
    """Whether another pass, as long as the last one, still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return pass_no < MIN_PASSES or elapsed + pass_seconds <= seconds


def _traced_passes(outcomes):
    by_pass = {}
    for o in outcomes:
        if o.traced:
            by_pass.setdefault(o.pass_no, []).append(o)
    return list(by_pass.values())


def summarize(outcomes, setups, first_pass: int = 0) -> dict:
    """End-to-end metrics over the untraced passes from ``first_pass`` on.

    Each op's time is its median over the passes, which keeps a burst of
    load from elsewhere on the machine out of every metric but one op's.
    """
    per_op = {}
    for o in outcomes:
        if not o.traced and o.pass_no >= first_pass:
            per_op.setdefault(o.op, []).append(o.seconds)
    op_times = [statistics.median(times) for times in per_op.values()]
    failed = sum(o.reason is not None for o in outcomes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_times),
        "max_op_s": max(op_times),
        "fail_frac": failed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_run(workload, seed: int, seconds: float, small: bool = False):
    """Set up repeatedly, then run passes for ``seconds`` (MIN_PASSES at least).

    The speed probe runs throughout; set-up and op times are normalised.
    Returns the metrics, the outcomes and the probe.
    """
    probe = SpeedProbe()
    with probe.running():
        setups, raw_setups = [], []
        least, most = SETUP_REPEATS
        while len(setups) < least or (len(setups) < most and sum(raw_setups) < SETUP_SECONDS):
            mark = probe.start()
            plan = workload.build(seed, small)
            raw, normalised = probe.stop(mark)
            raw_setups.append(raw)
            setups.append(normalised)
        outcomes = []
        start, pass_seconds, pass_no = time.perf_counter(), 0.0, 0
        while _more_passes(pass_no, start, pass_seconds, seconds):
            began = time.perf_counter()
            outcomes += run_pass(plan, workload.digest, pass_no, probe=probe)
            pass_seconds = time.perf_counter() - began
            pass_no += 1
    mark_unrepeatable(outcomes)
    return summarize(outcomes, setups), outcomes, probe


def traced_run(workload, seed: int, seconds: float, small: bool = False):
    """Set up once under tracing, then alternate untraced and traced passes.

    Passes go untraced, traced, untraced, ... until ``seconds`` have passed
    and at least MIN_PASSES have run.  The first pass only warms up: the
    untraced times it is compared with come from the later passes.
    Per-layer metrics cover the set-up plus one traced pass (the median
    over traced passes).
    """
    tracer = Tracer()
    with tracer.installed():
        tracer.op = SETUP_OP
        start = time.perf_counter()
        plan = workload.build(seed, small)
        setup = time.perf_counter() - start
        tracer.op = None
    outcomes = []
    start, pass_seconds, pass_no = time.perf_counter(), 0.0, 0
    while _more_passes(pass_no, start, pass_seconds, seconds):
        began = time.perf_counter()
        if pass_no % 2:
            with tracer.installed():
                outcomes += run_pass(plan, workload.digest, pass_no, tracer)
        else:
            outcomes += run_pass(plan, workload.digest, pass_no)
        pass_seconds = time.perf_counter() - began
        pass_no += 1
    mark_unrepeatable(outcomes)
    metrics = summarize(outcomes, [setup], first_pass=2)

    per_pass = []
    for p in _traced_passes(outcomes):
        ops = {SETUP_OP} | {(p[0].pass_no, i) for i in range(len(p))}
        layer = tracer.layer_metrics(ops)
        top = tracer.top_level({op for op in ops if op != SETUP_OP})
        layer["trace.wall_s"] = sum(o.seconds for o in p)
        layer["trace.top_self_s"] = sum(self_t for _, _, _, self_t in top)
        per_pass.append(layer)
    layer = {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
    layer["trace.overhead_s"] = layer["trace.wall_s"] - metrics["wall_s"]
    layer["fail_frac"] = metrics["fail_frac"]
    return metrics, layer, outcomes, tracer

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the NoC simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper_routers --seed 1 --seconds 10 --trace 0

Workloads: ``paper_routers``, ``terminal_churn`` and ``busy_mesh`` (see
``perfbench/NOTES.md`` for why each exists).  One run

1. imports the simulator from ``src/`` (timed: part of ``setup_s``),
2. turns ``--seed`` into the workload's inputs and builds what the
   simulator needs before its first cycle, several times (median
   reported),
3. measures closed-loop steps for ``--seconds`` seconds of host time inside
   the simulator (and at least 100 steps) on the default schedule, timing a
   fixed reference slice between steps to express every end-to-end time at
   a nominal host speed (``speed.py``),
4. with ``--trace 1``, repeats step 3 with every layer boundary wrapped and
   reports the per-layer metrics and the tracing overhead,
5. regenerates every step's expected output under ``schedule="strict"`` and
   counts each mismatch or exception as a failed step.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is
the number of distinct steps in one pass of the seed's inputs and
``failed`` the number of those that failed in any execution, so both are
fixed by the seed, whatever the host's speed.  ``metrics`` holds the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (host, inputs, failures, and the spans of a traced run) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper_routers", "terminal_churn", "busy_mesh")
#: Set-up repeats per run; setup_s reports their median (plus the import).
SETUP_REPEATS = 3
#: Distinct failure messages printed per run (all are counted).
SHOWN_FAILURES = 5
#: Host speed probe slices taken before each set-up.
SETUP_PROBE_SLICES = 3

END_TO_END = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "paper_power_ratio_err_pct": "%",
}
#: The simulator modules the workloads use; importing them is timed.
MODULES = (
    "repro.experiments.harness",
    "repro.experiments.dynamic",
    "repro.noc.selection",
    "repro.noc.faults",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_ms(seconds, fraction):
    """Inclusive-method percentile of step times, in milliseconds."""
    cut = statistics.quantiles(seconds, n=100, method="inclusive")[round(fraction * 100) - 1]
    return cut * 1000.0


def check(steps, expected):
    """Mark every step whose output differs from the strict reference."""
    for step in steps:
        if step.error is None and step.output != expected[step.unit][step.index]:
            step.error = f"output differs from the strict reference ({step.unit}, step {step.index})"
            step.mismatch = True


def host_record(workload_module, default_schedule):
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "default_schedule": default_schedule,
        "min_steps": workload_module.MIN_STEPS,
        "setup_repeats": SETUP_REPEATS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the simulator sources are missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    for module in MODULES:
        importlib.import_module(module)
    import_s = time.perf_counter() - started

    import speed
    import tracing
    import workloads
    from repro.noc.fabric import build_network
    from repro.noc.topology import Mesh2D

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed)
    default_schedule = build_network("circuit", Mesh2D(2, 2)).kernel.schedule
    probe = speed.SpeedProbe()
    meter = tracing.CycleMeter().install()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            probe.sample(SETUP_PROBE_SLICES)
            started = time.perf_counter()
            state = workload.setup(inputs)
            setup_times.append(time.perf_counter() - started)

        meter.cycles = 0
        phase = workload.run(state, args.seconds, workloads.Hooks(probe))
        cycles = meter.cycles
        factor = probe.factor
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del state

        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer().install()
            try:
                meter.cycles = 0
                started = time.perf_counter()
                state = workload.setup(inputs)
                traced = workload.run(state, args.seconds, workloads.Hooks(tracer=tracer))
                traced_wall_s = time.perf_counter() - started - tracer.paused_s
                traced_cycles = meter.cycles
                del state
            finally:
                tracer.restore()
    finally:
        meter.restore()

    phases = [phase] + ([traced] if traced is not None else [])
    units = [step.unit for p in phases for step in p.steps]
    expected = workload.reference(inputs, units)
    for p in phases:
        check(p.steps, expected)

    outputs_match = True
    if traced is not None:
        untraced = {(s.unit, s.index): s.output for s in phase.steps}
        outputs_match = all(
            untraced.get((s.unit, s.index), s.output) == s.output for s in traced.steps
        )

    all_steps = [step for p in phases for step in p.steps]
    failed = [step for step in all_steps if step.error is not None]
    mismatched = [step for step in failed if step.mismatch]
    # The result line counts operations, not executions: an operation is one
    # step of the seed's fixed pass, failed if any of its executions failed.
    # How often a pass repeats depends on the host's speed; these counts do not.
    operations = {(step.unit, step.index) for step in all_steps}
    failed_operations = {(step.unit, step.index) for step in failed}
    completed = [step.seconds for step in phase.steps if step.error is None]
    accuracy_consistent = traced is None or traced.accuracy == phase.accuracy
    correct = not mismatched and outputs_match and accuracy_consistent and phase.accuracy is not None

    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "sim_cycles_per_s": cycles / phase.host_s,
        "step_ms_p50": percentile_ms(completed, 0.5) if len(completed) > 1 else None,
        "step_ms_p90": percentile_ms(completed, 0.9) if len(completed) > 1 else None,
    }
    # Times at the nominal host speed (see speed.py); throughput scales inversely.
    end_to_end = {
        "setup_s": raw["setup_s"] / factor,
        "sim_cycles_per_s": raw["sim_cycles_per_s"] * factor,
        "step_ms_p50": raw["step_ms_p50"] / factor if raw["step_ms_p50"] else None,
        "step_ms_p90": raw["step_ms_p90"] / factor if raw["step_ms_p90"] else None,
        "peak_rss_mb": peak_rss_mb,
        "paper_power_ratio_err_pct": phase.accuracy,
    }
    per_layer = None
    if traced is not None:
        per_layer = tracer.layer_metrics(traced_wall_s, import_s)
        per_layer["trace.overhead_x"] = raw["sim_cycles_per_s"] / (traced_cycles / traced.host_s)

    record = {
        "workload": args.workload,
        "why": workload.WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(workloads, default_schedule),
        "steps": {"attempted": len(all_steps), "failed": len(failed), "mismatched": len(mismatched)},
        "operations": {"attempted": len(operations), "failed": len(failed_operations)},
        "untraced_steps": len(phase.steps),
        "traced_steps": len(traced.steps) if traced is not None else 0,
        "simulated_cycles": cycles,
        "host_s_in_steps": phase.host_s,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "traced_wall_s": traced_wall_s if traced is not None else None,
        "host_speed_factor": factor,
        "slice_slowdown": probe.slice_slowdown,
        "sensitivity": speed.SENSITIVITY,
        "speed_probe_samples": len(probe.samples),
        "raw_end_to_end": raw,
        "traced_outputs_match": outputs_match,
        "failures": sorted({step.error for step in failed}),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))

    report(record, failed)
    metrics = per_layer if traced is not None else end_to_end
    units = (
        {name: unit for name, (unit, _better) in tracing.LAYER_METRICS.items()}
        if traced is not None
        else END_TO_END
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(operations),
                "failed": len(failed_operations),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def report(record, failed) -> None:
    """Human-readable summary (everything before the final JSON line)."""
    host = record["host"]
    print(f"workload {record['workload']} seed {record['seed']}: {record['why']}")
    print(
        f"host: {host['cpus']} CPUs, Python {host['python']}, NumPy {host['numpy']}, "
        f"default schedule {host['default_schedule']!r}; one process, no threads, no shards"
    )
    attempted = record["steps"]["attempted"]
    print(
        f"steps: {record['untraced_steps']} untraced + {record['traced_steps']} traced; "
        f"failed_frac {len(failed) / attempted:.4f} = {len(failed)} failed / {attempted} attempted "
        f"({record['steps']['mismatched']} output mismatches)"
    )
    operations = record["operations"]
    print(
        f"operations: {operations['failed']} failed / {operations['attempted']} attempted "
        f"(distinct steps of the seed's pass; the result line's counts)"
    )
    for message in record["failures"][:SHOWN_FAILURES]:
        print(f"  failure: {message}")
    print(
        f"host speed factor {record['host_speed_factor']:.4f} "
        f"(slice slowdown {record['slice_slowdown']:.4f} over {record['speed_probe_samples']} "
        f"probe slices, ** {record['sensitivity']}); times below are at nominal speed, raw values in brackets"
    )
    for name, value in record["end_to_end"].items():
        raw = record["raw_end_to_end"].get(name)
        print(f"  {name:28s} {value!r:>24} {END_TO_END[name]:9s}" + (f" [raw {raw!r}]" if raw is not None else ""))
    if record["per_layer"] is not None:
        print(f"traced outputs equal untraced outputs: {record['traced_outputs_match']}")
        for name, value in record["per_layer"].items():
            print(f"  {name:32s} {value!r:>24}")


if __name__ == "__main__":
    sys.exit(main())

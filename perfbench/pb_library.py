"""One run of a library workload (``do-exact`` or ``fp-rounds``) in a
fresh process.

    python3 perfbench/pb_library.py --workload do-exact --seed 1 --ops 100

Prints ``READY`` once the imports and the seeded instances are done (the
parent times launch-to-ready as set-up), then runs the ops back to back
in one thread, checks every answer outside the timed window and prints
one JSON result line.  Each op is preceded by one calibration slice,
which is not part of its time, and bracketed by ``/proc/stat`` readings
(see ``pb_stats``).  ``--setup-only`` exits after ``READY``;
``--trace`` wraps the layers with :mod:`pb_tracer` first.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pb_checks  # noqa: E402
import pb_inputs  # noqa: E402
import pb_stats  # noqa: E402
import pb_tracer  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402

# ``repro.solvers`` re-exports functions under its submodules' names, so
# the modules are looked up by name; calls go through module attributes,
# which is where the tracer puts its wrappers.
do_module = importlib.import_module("repro.solvers.double_oracle")
fp_module = importlib.import_module("repro.solvers.fictitious_play")
weighted_module = importlib.import_module("repro.weighted.game")

FP_ROUNDS = 200

#: Program counters whose run deltas are the determinism guard's counts.
COUNTERS = {
    "lp.calls": "lp.solve.count",
    "double_oracle.iterations": "double_oracle.iterations.count",
    "kernel.builds": "perf.kernel.build.count",
    "fp.rounds": "fictitious_play.rounds.count",
}
#: Every exhaustive, branch-and-bound and greedy kernel query is timed
#: into this histogram, so its count is the number of kernel queries.
QUERY_HISTOGRAM = "perf.kernel.query.seconds"


def work_counts() -> dict:
    snapshot = get_registry().snapshot()
    counts = {name: int(snapshot["counters"].get(metric, 0))
              for name, metric in COUNTERS.items()}
    query = snapshot["histograms"].get(QUERY_HISTOGRAM)
    counts["kernel.queries"] = int(query["count"]) if query else 0
    return counts


def run_op(op):
    if op.kind == "plain":
        return do_module.double_oracle(op.game)
    if op.kind == "weighted":
        return weighted_module.weighted_double_oracle(op.game)
    return fp_module.fictitious_play(op.game, rounds=FP_ROUNDS)


def check_op(op, result):
    if isinstance(result, Exception):
        return f"{op.kind} op raised {result!r}"
    if op.kind == "plain":
        return pb_checks.check_plain_do(op.game, result.value, result.exact)
    if op.kind == "weighted":
        config, value = result
        return pb_checks.check_weighted_do(op.game, config, value)
    return pb_checks.check_fp(op.game, result.lower_bound,
                              result.upper_bound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("do-exact", "fp-rounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    ops = pb_inputs.library_ops(args.workload, args.seed, args.ops)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    current = [None]
    tracer = pb_tracer.Tracer(lambda: current[0])
    missing = (pb_tracer.install(tracer, pb_tracer.LIBRARY_TARGETS)
               if args.trace else [])
    before = work_counts()
    latencies, results, calibration, counters = [], [], [], []
    for index, op in enumerate(ops):
        calibration.append(pb_stats.calibration_slice())
        current[0] = index
        counters.append(pb_stats.cpu_counters())
        began = perf_counter()
        try:
            result = run_op(op)
        except Exception as exc:  # counted as a failed op, run goes on
            result = exc
        latencies.append(perf_counter() - began)
        counters.append(pb_stats.cpu_counters())
        results.append(result)
    current[0] = None
    after = work_counts()

    failures = []
    for index, (op, result) in enumerate(zip(ops, results)):
        reason = check_op(op, result)
        if reason is not None:
            failures.append({"op": index, "reason": reason})
    print(json.dumps({
        "kinds": [op.kind for op in ops],
        "latencies": latencies,
        "calibration": calibration,
        "cpu_counters": counters,
        "failures": failures,
        "counts": {name: after[name] - before[name] for name in after},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": ({str(k): v for k, v in tracer.table.items()}
                  if args.trace else None),
        "untraced_targets": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

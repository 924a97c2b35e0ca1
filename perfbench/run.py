#!/usr/bin/env python3
"""Fixed-work benchmark of the repro-defender library and solve service.

    python3 perfbench/run.py --workload do-exact --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``do-exact``    cold ``double_oracle`` solves, every fourth one a
                  ``weighted_double_oracle`` solve;
* ``fp-rounds``   ``fictitious_play(game, rounds=200)`` solves;
* ``serve-mixed`` a closed loop of two connections against
                  ``repro-defender serve``: cache hits, unique misses and
                  malformed bodies.

Every run does a fixed amount of work: ``--seconds`` sizes the op count
(a fixed number of ops per second of ``--seconds``), it never stops the
run on a timer.  Inputs come from ``--seed`` and are generated before
timing; every answer is checked after the timed window.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same inputs once
untraced and once with the layer wrappers of ``pb_tracer`` and reports
the per-layer metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

import pb_env
import pb_stats

WORKLOADS = ("do-exact", "fp-rounds", "serve-mixed")
#: Ops per second of ``--seconds`` (on the reference 2-vCPU VM a timed
#: window lasts 0.6-1.7 times ``--seconds``; do-exact needs 160 ops for a
#: steady p90), and the floor that keeps the reported tail percentile
#: honest (ten samples beyond it).
OPS_PER_SECOND = {"do-exact": 8, "fp-rounds": 7, "serve-mixed": 100}
MIN_OPS = {"do-exact": pb_stats.min_count_for_tail(90),
           "fp-rounds": pb_stats.min_count_for_tail(90),
           "serve-mixed": pb_stats.min_count_for_tail(99)}
#: Launches per run whose median is ``setup_s``.
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
)

PER_LAYER = (
    ("double_oracle.iterations", "count"),
    ("double_oracle.self_s", "s"),
    ("lp.calls", "count"),
    ("lp.linprog_s", "s"),
    ("lp.build_s", "s"),
    ("lp.share", "ratio"),
    ("weighted.latency_p50_s", "s"),
    ("weighted.lp_calls", "count"),
    ("weighted.linprog_s", "s"),
    ("weighted.oracle_s", "s"),
    ("kernel.queries", "count"),
    ("kernel.query_s", "s"),
    ("kernel.us_per_query", "us"),
    ("kernel.share", "ratio"),
    ("kernel.builds", "count"),
    ("kernel.build_s", "s"),
    ("fp.rounds", "count"),
    ("fp.self_s", "s"),
    ("serve.hit_p50_s", "s"),
    ("serve.miss_p50_s", "s"),
    ("serve.reject_p50_s", "s"),
    ("serve.latency_p99_s", "s"),
    ("serve.server_p50_s", "s"),
    ("serve.transport_p50_s", "s"),
    ("schemas.validate_s", "s"),
    ("cache.fingerprints_per_request", "1/request"),
    ("cache.key_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_s", "s"),
    ("cache.stores", "count"),
    ("cache.store_s", "s"),
    ("serialize.encodes_per_miss", "1/miss"),
    ("serialize.encode_s", "s"),
    ("equilibria.solves", "count"),
    ("equilibria.solve_s", "s"),
    ("matching.hopcroft_karp_s", "s"),
    ("workers.queue_wait_s", "s"),
    ("access.append_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def op_count(workload: str, seconds: int) -> int:
    count = max(MIN_OPS[workload], OPS_PER_SECOND[workload] * seconds)
    if workload == "serve-mixed":
        count += -count % 10  # whole 60/30/10 blocks
    return count


# -- library workloads ---------------------------------------------------

def launch_library(workload: str, seed: int, ops: int, *flags: str):
    """Run one ``pb_library.py`` child; return ``(setup seconds, result)``.

    Set-up is launch to ``READY`` (interpreter start, imports and
    instance generation) in reference seconds, calibrated just before
    the launch and corrected for the steal during it.  The result is
    ``None`` for ``--setup-only``.
    """
    command = [sys.executable, str(pb_env.HERE / "pb_library.py"),
               "--workload", workload, "--seed", str(seed),
               "--ops", str(ops), *flags]
    factor = pb_stats.speed_factor([pb_stats.calibrate()])
    counters = pb_stats.cpu_counters()
    began = perf_counter()
    with subprocess.Popen(command, cwd=pb_env.ROOT, env=pb_env.child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        setup = (perf_counter() - began) * factor * pb_stats.unstolen_share(
            counters, pb_stats.cpu_counters())
        try:
            rest, errors = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise pb_env.BenchError(
                f"{workload} child exceeded {CHILD_TIMEOUT_S}s")
    if first.strip() != b"READY" or child.returncode != 0:
        raise pb_env.BenchError(
            f"{workload} child failed (exit {child.returncode}): "
            f"{errors.decode(errors='replace')[-2000:]}")
    if "--setup-only" in flags:
        return setup, None
    result = json.loads(rest.decode().splitlines()[-1])
    factors = pb_stats.local_factors(result["calibration"],
                                     result["cpu_counters"])
    result["latencies_ref"] = [latency * f for latency, f in
                               zip(result["latencies"], factors)]
    # One caller, back to back: the window is the sum of the op times.
    result["window_ref"] = sum(result["latencies_ref"])
    result["window_raw"] = sum(result["latencies"])
    result["blocks"] = [(result["latencies_ref"], result["window_ref"])]
    return setup, result


def summary(result: dict, setups: List[float]) -> dict:
    """End-to-end metrics: each timing statistic is taken per block of
    the timed window and the median over blocks is reported."""
    blocks = result["blocks"]
    return {
        "setup_s": pb_stats.median(setups),
        "throughput_ops_s": pb_stats.median(
            [len(latencies) / window for latencies, window in blocks]),
        "latency_p50_s": pb_stats.median(
            [pb_stats.median(latencies) for latencies, _ in blocks]),
        "latency_p90_s": pb_stats.median(
            [pb_stats.percentile(latencies, 90) for latencies, _ in blocks]),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_share": 1.0 - (len(result["failures"])
                                / len(result["latencies"])),
    }


def scale(result: dict) -> float:
    """Reference seconds per measured second over a whole pass."""
    return result["window_ref"] / result["window_raw"]


def library_layers(plain: dict, traced: dict):
    import pb_tracer

    kinds = traced["kinds"]
    n = len(kinds)
    to_ref = scale(traced)
    table = traced["trace"]
    keys = {kind: {str(i) for i, k in enumerate(kinds) if k == kind}
            for kind in set(kinds)}
    rows = pb_tracer.merge(table)
    plain_rows = pb_tracer.merge(table, keys.get("plain", set()))
    weighted_rows = pb_tracer.merge(table, keys.get("weighted", set()))
    total = sum(traced["latencies"])
    counts = traced["counts"]
    query_s = (pb_tracer.layer(rows, "kernel.best")
               + pb_tracer.layer(rows, "kernel.greedy"))
    weighted_latencies = [lat for lat, kind in zip(plain["latencies_ref"],
                                                   plain["kinds"])
                          if kind == "weighted"]

    def per_op(rows_, name, field=2):
        return pb_tracer.layer(rows_, name, field) * to_ref / n

    return {
        "double_oracle.iterations": counts["double_oracle.iterations"],
        "double_oracle.self_s": per_op(rows, "double_oracle"),
        "lp.calls": counts["lp.calls"],
        "lp.linprog_s": per_op(plain_rows, "linprog"),
        "lp.build_s": per_op(rows, "lp.minimax"),
        "lp.share": pb_tracer.layer(rows, "lp.minimax", 1) / total,
        "weighted.latency_p50_s": (pb_stats.median(weighted_latencies)
                                   if weighted_latencies else 0.0),
        "weighted.lp_calls": pb_tracer.layer(weighted_rows, "linprog", 0),
        "weighted.linprog_s": per_op(weighted_rows, "linprog"),
        "weighted.oracle_s": per_op(weighted_rows, "best_tuple", 1),
        "kernel.queries": counts["kernel.queries"],
        "kernel.query_s": query_s * to_ref / n,
        "kernel.us_per_query": (1e6 * query_s * to_ref
                                / counts["kernel.queries"]
                                if counts["kernel.queries"] else 0.0),
        "kernel.share": query_s / total,
        "kernel.builds": counts["kernel.builds"],
        "kernel.build_s": per_op(rows, "kernel.build"),
        "fp.rounds": counts["fp.rounds"],
        "fp.self_s": per_op(rows, "fictitious_play"),
    }, layer_table(rows, total)


# -- serve-mixed ---------------------------------------------------------

def serve_times(result: dict) -> dict:
    """Add reference-second latencies and window to a ``run_pass`` result."""
    import pb_serve

    factors = result["factors"]
    per_request = [factors[index // pb_serve.BLOCK]
                   for index in range(len(result["records"]))]
    result["latencies"] = [record[3] for record in result["records"]]
    result["latencies_ref"] = [latency * factor for latency, factor in
                               zip(result["latencies"], per_request)]
    result["server_ref"] = {}
    for index, (record, factor) in enumerate(zip(result["records"],
                                                 per_request)):
        server = result["server_latency"].get(record[1])
        if server is not None:
            result["server_ref"][index] = server * factor
    result["blocks"] = [
        (result["latencies_ref"][first:first + pb_serve.BLOCK],
         window * factor)
        for first, window, factor in zip(
            range(0, len(result["records"]), pb_serve.BLOCK),
            result["windows"], factors)]
    result["window_ref"] = sum(window for _, window in result["blocks"])
    result["window_raw"] = sum(result["windows"])
    return result


def serve_layers(plain: dict, traced: dict):
    import pb_inputs
    import pb_tracer

    by_kind: Dict[str, List[float]] = {}
    server_side, transport = [], []
    for index, (op, latency) in enumerate(zip(plain["ops"],
                                              plain["latencies_ref"])):
        by_kind.setdefault(op.kind, []).append(latency)
        if index in plain["server_ref"]:
            server_side.append(plain["server_ref"][index])
            transport.append(latency - plain["server_ref"][index])
    ids = {record[1] for record in traced["records"]}
    rows = pb_tracer.merge(traced["trace"]["table"], ids)
    n = len(traced["records"])
    to_ref = scale(traced)
    total = sum(traced["latencies"])
    kinds = pb_inputs.kind_counts(traced["ops"])
    counts = traced["counts"]
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    solves = kinds.get("hit", 0) + kinds.get("miss", 0)

    def p50(values):
        return pb_stats.median(values) if values else 0.0

    def per_op(*names):
        return sum(pb_tracer.layer(rows, name) for name in names) \
            * to_ref / n

    return {
        "lp.calls": counts.get("lp.calls", 0),
        "kernel.queries": counts.get("kernel.queries", 0),
        "kernel.builds": counts.get("kernel.builds", 0),
        "kernel.build_s": per_op("kernel.build"),
        "serve.hit_p50_s": p50(by_kind.get("hit")),
        "serve.miss_p50_s": p50(by_kind.get("miss")),
        "serve.reject_p50_s": p50(by_kind.get("reject")),
        "serve.latency_p99_s": pb_stats.percentile(plain["latencies_ref"],
                                                   99),
        "serve.server_p50_s": p50(server_side),
        "serve.transport_p50_s": p50(transport),
        "schemas.validate_s": per_op("schemas.parse_request"),
        "cache.fingerprints_per_request":
            pb_tracer.layer(rows, "cache.game_sha256", 0) / solves,
        "cache.key_s": per_op("cache.game_sha256", "cache.cache_key"),
        "cache.hit_ratio": counts.get("cache.hits", 0) / lookups
        if lookups else 0.0,
        "cache.lookup_s": per_op("cache.probe"),
        "cache.stores": counts.get("cache.stores", 0),
        "cache.store_s": per_op("cache.store"),
        "serialize.encodes_per_miss": pb_tracer.layer(
            rows, "serialize.solve_result_to_json", 0) / kinds["miss"],
        "serialize.encode_s": per_op("serialize.solve_result_to_json"),
        "equilibria.solves": counts.get("equilibria.solves", 0),
        "equilibria.solve_s": per_op("equilibria.solve_game"),
        "matching.hopcroft_karp_s": per_op("matching.hopcroft_karp"),
        "workers.queue_wait_s": per_op("workers.queue_wait"),
        "access.append_s": per_op("access.log_request"),
    }, layer_table(rows, total)


# -- shared --------------------------------------------------------------

def layer_table(rows, total: float) -> List[tuple]:
    """``(layer, calls, self seconds)`` rows plus ``unattributed``; the
    self seconds add up to ``total``, the summed op latency."""
    table = sorted(((name, int(row[0]), row[2]) for name, row in
                    rows.items()), key=lambda row: -row[2])
    attributed = sum(row[2] for row in table)
    table.append(("unattributed", 0, total - attributed))
    return table


def source_digest() -> str:
    """Hash of the program and benchmark sources a count depends on."""
    digest = hashlib.sha256()
    files = sorted((pb_env.SRC / "repro").rglob("*.py"))
    files += sorted(pb_env.HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(pb_env.ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def guard_counts(workload: str, seed: int, ops: int,
                 counts: Dict[str, int]) -> None:
    """The determinism guard: the same code and seed must do the same
    work.  Counts are recorded per (workload, seed, ops, sources) and a
    later run that disagrees fails."""
    path = pb_env.STATE / "counts.json"
    key = f"{workload}|seed={seed}|ops={ops}|src={source_digest()}"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != counts:
        raise pb_env.BenchError(
            f"DETERMINISM FAILURE: {key} did {counts}, "
            f"an earlier run with the same seed did {known[key]}")
    known[key] = counts
    pb_env.STATE.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = op_count(workload, seconds)
    if workload == "serve-mixed":
        import pb_serve

        def one_pass(setup_reps, traced=False):
            result = serve_times(
                pb_serve.run_pass(seed, ops, setup_reps, traced))
            return result["setups"], result
    else:
        def one_pass(setup_reps, traced=False):
            setups = [launch_library(workload, seed, ops, "--setup-only")[0]
                      for _ in range(setup_reps - 1)]
            setup, result = launch_library(
                workload, seed, ops, *(["--trace"] if traced else []))
            return setups + [setup], result

    if not trace:
        setups, result = one_pass(SETUP_REPS)
        raw = result["latencies"]
        print(f"measured: p50 {pb_stats.median(raw):.6f}s, "
              f"p90 {pb_stats.percentile(raw, 90):.6f}s, window "
              f"{result['window_raw']:.3f}s; reference seconds per "
              f"measured second {scale(result):.4f}", file=sys.stderr)
        guard_counts(workload, seed, ops, result["counts"])
        return finish(END_TO_END, summary(result, setups), ops,
                      result["failures"])

    plain = one_pass(1)[1]
    traced = one_pass(1, traced=True)[1]
    if plain["counts"] != traced["counts"]:
        raise pb_env.BenchError(
            f"DETERMINISM FAILURE: untraced pass did {plain['counts']}, "
            f"traced pass did {traced['counts']}")
    guard_counts(workload, seed, ops, plain["counts"])
    if workload == "serve-mixed":
        layers, table = serve_layers(plain, traced)
        missing = traced["trace"]["untraced_targets"]
    else:
        layers, table = library_layers(plain, traced)
        missing = traced["untraced_targets"]
    for target in missing:
        print(f"warning: {target} not found; its layer reads 0",
              file=sys.stderr)
    total = sum(row[2] for row in table)
    layers["trace.unattributed_share"] = table[-1][2] / total
    layers["trace.overhead_share"] = 1.0 - (plain["window_ref"]
                                            / traced["window_ref"])
    print_table(workload, table, total, plain["counts"], layers)
    return finish(PER_LAYER, layers, 2 * ops,
                  plain["failures"] + traced["failures"])


def print_table(workload, table, total, counts, layers) -> None:
    out = sys.stderr
    print(f"== {workload}: self time by layer, measured seconds "
          f"(traced pass) ==", file=out)
    for name, calls, own in table:
        print(f"  {name:32s} {calls:8d} {own:10.4f}s {own / total:7.1%}",
              file=out)
    print(f"  {'total op time':32s} {'':8s} {total:10.4f}s", file=out)
    print(f"  tracing overhead: {layers['trace.overhead_share']:.1%} of "
          f"untraced throughput", file=out)
    print(f"  work counts: {json.dumps(counts, sort_keys=True)}", file=out)


def finish(spec, values: dict, attempted: int, failures: list) -> dict:
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in spec}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (pb_env.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {pb_env.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(pb_env.SRC))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except pb_env.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Hot-path benchmark smoke test (``make bench-smoke``).

Times the tracked solver hot paths, the telemetry off-paths and the
inbound trace context on small fixed instances through
:func:`repro.obs.watchdog.measure` (host-corrected reference seconds,
median and MAD over repetitions; see that module), and

* ``--write``   appends one history entry to the committed
  ``BENCH_KERNELS.json`` (schema v3), stamped with the git revision and
  whether the tree was dirty;
* ``--check``   (default) fails when any case regressed against the
  newest committed entry, as judged by
  :func:`repro.obs.watchdog.check`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_FILE = REPO_ROOT / "BENCH_KERNELS.json"

#: Publishes per event-bus micro-bench repetition.
_BUS_PUBLISHES = 50_000

#: Calls per correlation micro-bench repetition.
_CORRELATION_CALLS = 50_000

#: Passes over the four hot bodies per serve.solve.hit repetition.
_SERVED_HIT_PASSES = 10

#: The environment variable naming the directory that the measuring
#: processes make their result stores in; :func:`run_cases` removes it.
_STORES_ENV = "REPRO_BENCH_STORES"

#: An inbound W3C ``traceparent``, as a caller would send it.
_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

#: Cases that spend most of their time in HiGHS or numpy: the native
#: calibration slice tracks their drift far better than the pure-Python
#: one (run-to-run spread of the medians on the reference host: 1.8-3.4%
#: against 5.5-5.6%).  The range probes are HiGHS solves on one pinned
#: model per side.  The double-oracle solves spend about half their CPU
#: in HiGHS (48-55%; the coverage kernel takes 12-13%), and all four
#: double-oracle cases, the cache replay included, track the native
#: slice better (2.2-2.5% against 4.0-7.0% over 8 runs of each), and so
#: do the one-shot LPs (1.0% against 2.0% over 4 runs).
_NATIVE = frozenset({"simulation.medium", "fuzz.batch.small",
                     "ranges.small", "certificate.matching", "lp.one_shot",
                     "double_oracle.medium_a",
                     "double_oracle.medium_b", "double_oracle.cached",
                     "weighted_double_oracle.medium"})


def _cases():
    from repro.core.game import TupleGame
    from repro.core.serialize import game_to_json
    from repro.equilibria.solve import solve_game
    from repro.fuzz.invariants import INVARIANTS
    from repro.fuzz.runner import run_fuzz
    from repro.graphs.generators import random_bipartite_graph
    from repro.kernels import CoverageOracle, clear_shared_oracles
    from repro.simulation.engine import simulate
    from repro.solvers.double_oracle import double_oracle
    from repro.solvers.fictitious_play import fictitious_play
    from repro.solvers.lp import _CoverageMatching, solve_minimax
    from repro.solvers.ranges import strategy_ranges
    from repro.weighted.game import (WeightedTupleGame, weighted_double_oracle,
                                     weighted_minimax)

    import repro.cache as result_cache
    from repro.obs import events as obs_events
    from repro.obs import access as obs_access
    from repro.obs import tracing as obs_tracing
    from repro.serve.routes import prepare

    def publish_off() -> None:
        # The disabled fast path: one attribute check per publish.  The
        # watchdog history of this case is the proof that leaving the bus
        # off keeps instrumented hot loops effectively free.
        obs_events.disable_events()
        for index in range(_BUS_PUBLISHES):
            obs_events.publish("bench.case", case="bus-off", index=index)

    def publish_on() -> None:
        # Ring buffer + lock, no sink: the marginal cost the live bus
        # imposes on an instrumented solver loop.
        obs_events.enable_events(sink=False)
        try:
            for index in range(_BUS_PUBLISHES):
                obs_events.publish("bench.case", case="bus-on", index=index)
        finally:
            obs_events.disable_events()

    def trace_context_off() -> None:
        # Disabled tracing with the contextvars-backed trace context:
        # span() must stay a single boolean check even now that the
        # span stack lives on a per-context object.  The history of
        # this case guards the correlation layer's off-cost.
        obs_tracing.enable_tracing(False)
        for _ in range(_CORRELATION_CALLS):
            with obs_tracing.span("bench.case"):
                pass

    def trace_context_inbound() -> None:
        # What the service pays per request that carries a traceparent:
        # parse and adopt the caller's trace, then echo it back.
        for _ in range(_CORRELATION_CALLS):
            context = obs_tracing.start_trace(_TRACEPARENT)
            obs_tracing.format_traceparent(context.trace_id, context.span_id)

    def access_log_off() -> None:
        # The disabled access log: log_request() falls through on one
        # attribute load, so a service run without --access-log pays
        # nothing per request for the sink.
        obs_access.disable_access_log()
        for index in range(_CORRELATION_CALLS):
            obs_access.log_request(
                None, "POST", "/solve", 200, None, 0.0, inflight=index
            )

    do_a = TupleGame(random_bipartite_graph(15, 25, 0.15, seed=60), 4, nu=1)
    do_b = TupleGame(random_bipartite_graph(25, 40, 0.10, seed=1000), 5, nu=1)
    # do_b's graph with seeded vertex weights from perfbench's do-exact
    # weight set.
    rng = random.Random(1000)
    weighted = WeightedTupleGame(
        do_b.graph, 5,
        {v: rng.choice((1, 2, 3, 5)) for v in do_b.graph.vertices()})

    # Result-cache hit path: populate a throwaway store once here, then
    # every timed repetition replays from it (clear_shared_oracles wipes
    # the coverage kernel between reps, not the result cache).  The case
    # enables the cache only inside its own closure so the other cases
    # keep timing the uncached paths.
    stores = os.environ.get(_STORES_ENV)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-", dir=stores)
    result_cache.enable_cache(cache_dir)
    try:
        double_oracle(do_b)
    finally:
        result_cache.disable_cache()

    def cached_double_oracle() -> None:
        result_cache.enable_cache(cache_dir)
        try:
            double_oracle(do_b)
        finally:
            result_cache.disable_cache()
    fp = TupleGame(random_bipartite_graph(10, 15, 0.2, seed=150), 3, nu=1)
    # fp's graph with seeded vertex weights from the same weight set.
    rng = random.Random(150)
    fp_weighted = WeightedTupleGame(
        fp.graph, 3,
        {v: rng.choice((1, 2, 3, 5)) for v in fp.graph.vertices()})

    def one_shot_lps() -> None:
        solve_minimax(fp)
        weighted_minimax(fp_weighted)

    sim_game = TupleGame(random_bipartite_graph(8, 12, 0.25, seed=9), 3, nu=4)
    sim_config = solve_game(sim_game).mixed
    probed = TupleGame(random_bipartite_graph(8, 10, 0.25, seed=5), 3, nu=1)

    def range_probes() -> None:
        strategy_ranges(probed)

    # The double oracle's certificate above the kernel's size limit: a
    # cold G+ matching model (its own prebuilt coverage oracle, so no
    # kernel build is timed) asked once at the final attacker mixture of
    # each of two games with C(m, k) > 10^15.
    certified = []
    for shape in ((40, 60, 0.06), (50, 75, 0.05)):
        game = TupleGame(random_bipartite_graph(*shape, seed=1), 10, nu=1)
        certified.append((CoverageOracle(game.graph, game.k),
                          double_oracle(game).solution.attacker))

    def matching_certificates() -> None:
        for oracle, masses in certified:
            _CoverageMatching(oracle, 1e-9).best(masses)

    def solve_bodies(shape, k, nu):
        return [
            json.dumps({"game": json.loads(game_to_json(TupleGame(
                random_bipartite_graph(*shape, seed=seed), k, nu=nu)))},
                sort_keys=True).encode("utf-8")
            for seed in range(1, 5)]

    # Served /solve misses in perfbench serve-mixed's miss shape: JSON
    # parse and validation, the canonical graph, the solve cascade, the
    # result encoding and the response body bytes, all through the
    # library's canonical order.
    miss_bodies = solve_bodies((20, 30, 0.12), 3, 2)

    def served_misses() -> None:
        result_cache.disable_cache()
        for body in miss_bodies:
            prepare("solve", body).run()

    # Served /solve hits in serve-mixed's hot shape, from a store primed
    # once here: JSON parse and validation, the fingerprint, the SQLite
    # probe, the stored row's check and the response body bytes.
    hit_bodies = solve_bodies((8, 12, 0.25), 2, 1)
    hit_cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-",
                                     dir=stores)
    result_cache.enable_cache(hit_cache_dir)
    try:
        for body in hit_bodies:
            prepare("solve", body).run()
    finally:
        result_cache.disable_cache()

    def served_hits() -> None:
        result_cache.enable_cache(hit_cache_dir)
        try:
            for _ in range(_SERVED_HIT_PASSES):
                for body in hit_bodies:
                    if not prepare("solve", body).cache_hit:
                        raise RuntimeError("serve.solve.hit missed")
        finally:
            result_cache.disable_cache()

    return {
        "double_oracle.medium_a": lambda: double_oracle(do_a),
        "double_oracle.medium_b": lambda: double_oracle(do_b),
        "double_oracle.cached": cached_double_oracle,
        "weighted_double_oracle.medium": lambda: weighted_double_oracle(
            weighted),
        "fictitious_play.medium": lambda: fictitious_play(fp, rounds=60),
        # The exact one-shot LPs over all 9880 of fp's tuples, plain and
        # weighted: one HiGHS model each, attacker read off the duals.
        "lp.one_shot": one_shot_lps,
        # Every round's best response is a branch and bound query at
        # any size; do_b's 7.2e7 tuples are the scale perfbench's
        # fp-rounds runs, fp's 9880 above a small one.
        "fictitious_play.bnb": lambda: fictitious_play(do_b, rounds=100),
        # Both sides' optimal-polytope probes: 2 x (n + m) pinned solves
        # on one warm-started HiGHS model per side.
        "ranges.small": range_probes,
        "certificate.matching": matching_certificates,
        "serve.solve.miss": served_misses,
        "serve.solve.hit": served_hits,
        "simulation.medium": lambda: simulate(
            sim_game, sim_config, trials=400_000, seed=0
        ),
        # A small differential-fuzz batch: every solver path end to end.
        # Same fixed seed as the `make fuzz-smoke` gate, one fifth of its
        # game count, so the telemetry tracks the per-game cost drift.
        # cache-replay re-solves every game through a throwaway store; it
        # times no solver path of its own, and would read as a 1.5x step
        # in this case's history, so the case keeps its earlier catalog.
        "fuzz.batch.small": lambda: run_fuzz(
            count=10, seed=20060707,
            checks=[name for name in INVARIANTS if name != "cache-replay"]),
        # Telemetry-bus overhead, disabled vs enabled (50k publishes).
        "events.publish.off": publish_off,
        "events.publish.on": publish_on,
        # Correlation-layer off-cost (50k disabled calls each).
        "trace_context.off": trace_context_off,
        "access_log.off": access_log_off,
        # Correlation-layer on-cost (50k inbound traceparents).
        "trace_context.inbound": trace_context_inbound,
    }, clear_shared_oracles


def run_cases(baseline=False):
    from repro.obs.watchdog import measure

    # _cases runs in each measuring process.  Its reset,
    # clear_shared_oracles, makes every repetition pay the oracle build
    # again: the tracked number is a cold solve.  The processes inherit
    # the stores directory through the environment, and it goes when
    # they are done.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as stores:
        os.environ[_STORES_ENV] = stores
        try:
            timings = measure(_cases, native=_NATIVE, baseline=baseline)
        finally:
            del os.environ[_STORES_ENV]
    for name, summary in timings.items():
        print(f"  {name:32s} {summary['median_s'] * 1000:9.2f} ms "
              f"± {summary['mad_s'] * 1000:7.2f} ms MAD "
              f"over {summary['reps']} reps")
    return timings


def write(timings) -> None:
    from repro.obs.watchdog import record_history

    document = record_history(BENCH_FILE, timings, REPO_ROOT)
    newest = document["history"][-1]
    print(f"wrote {BENCH_FILE} ({len(document['history'])} history "
          f"entries, newest {newest['git_rev']}"
          f"{' (dirty)' if newest['dirty'] else ''})")


def check(timings) -> int:
    if not BENCH_FILE.exists():
        print(f"{BENCH_FILE} missing; run python tools/bench_smoke.py --write",
              file=sys.stderr)
        return 1
    from repro.obs.watchdog import watch_file

    report = watch_file(BENCH_FILE, current=timings)
    print(report.summary())
    if report.ok and not report.skipped:
        print(f"bench-smoke OK: {len(report.checked)} hot paths within "
              "their bands")
        return 0
    print("bench-smoke REGRESSION" if not report.ok
          else "bench-smoke: cases missing from the committed baseline",
          file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="append a history entry for the current git "
                           "revision to BENCH_KERNELS.json")
    mode.add_argument("--check", action="store_true",
                      help="fail on a regression against the newest "
                           "committed entry (default)")
    args = parser.parse_args()
    timings = run_cases(baseline=args.write)
    if args.write:
        write(timings)
        return 0
    return check(timings)


if __name__ == "__main__":
    raise SystemExit(main())

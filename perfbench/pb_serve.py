"""The ``serve-mixed`` workload: a closed loop of two connections against
``repro-defender serve`` running in its own process.

Set-up launches the server with fresh ``--cache-dir`` and
``--access-log-dir`` temp dirs, waits for its first answered request
(``GET /healthz``) and primes the hot set: each hot game is posted twice,
a miss and then a hit, and the hit body becomes the reference every
timed hit must match byte for byte.  The timed window then replays the
seeded request sequence in blocks of :data:`BLOCK` requests, pausing
between blocks to calibrate host speed (see ``pb_stats``).  Work counts
come from ``GET /metrics`` deltas around the window and server-side
latencies from the access log.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional

import pb_checks
import pb_env
import pb_inputs
import pb_stats

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0
#: The timed window runs in blocks of this many requests, with the load
#: paused for a host-speed calibration between blocks.
BLOCK = 100
_SERVING = re.compile(rb"serving on http://([^:\s]+):(\d+)")

#: Work counts read from ``GET /metrics`` (Prometheus names).
METRIC_COUNTS = {
    "cache.hits": "repro_cache_hits_count",
    "cache.misses": "repro_cache_misses_count",
    "cache.stores": "repro_cache_stores_count",
    "equilibria.solves": "repro_equilibria_solve_count",
    "lp.calls": "repro_lp_solve_count",
    "kernel.builds": "repro_perf_kernel_build_count",
    "kernel.queries": "repro_perf_kernel_query_seconds_count",
}
_RESPONSES = re.compile(r"repro_serve_responses_(\d+)_count")


class Server:
    """One ``repro-defender serve`` process with its own temp dirs.

    With ``trace`` set, the server starts through
    ``pb_serve_boot.py``, which installs the layer wrappers and writes
    their table to that path on shutdown.
    """

    def __init__(self, trace: bool = False) -> None:
        pb_env.STATE.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="serve-", dir=pb_env.STATE))
        self.access_log = self.work / "access" / "access.jsonl"
        self.trace_table = self.work / "trace.json" if trace else None
        flags = ["serve", "--port", "0",
                 "--cache-dir", str(self.work / "cache"),
                 "--access-log-dir", str(self.work / "access")]
        if trace:
            command = [sys.executable, str(pb_env.HERE / "pb_serve_boot.py"),
                       "--table", str(self.trace_table)] + flags
        else:
            command = [sys.executable, "-m", "repro.cli"] + flags
        self._stderr = open(self.work / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=pb_env.ROOT, env=pb_env.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        line = self.proc.stdout.readline()
        match = _SERVING.search(line)
        if match is None:
            self.stop()
            raise pb_env.BenchError(f"server did not start: {line!r}; "
                             f"stderr: {self.stderr_tail()}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """One HTTP exchange: ``(status, X-Request-Id, body)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return (response.status, response.getheader("X-Request-Id"),
                    response.read())
        finally:
            connection.close()

    def counts(self) -> Dict[str, int]:
        status, _, body = self.request("GET", "/metrics")
        if status != 200:
            raise pb_env.BenchError(f"GET /metrics answered {status}")
        values: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
        counts = {name: int(values.get(metric, 0))
                  for name, metric in METRIC_COUNTS.items()}
        for name, value in values.items():
            match = _RESPONSES.fullmatch(name)
            if match:
                counts[f"serve.responses_{match.group(1)}"] = int(value)
        return counts

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise pb_env.BenchError("no VmHWM in /proc status")

    def stderr_tail(self) -> str:
        try:
            return (self.work / "stderr.log").read_text(
                errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> Optional[dict]:
        """Interrupt the server, wait for it, and return the trace table
        (traced servers) before the temp dirs are removed."""
        table = None
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self._stderr.close()
            if self.trace_table is not None and self.trace_table.exists():
                table = json.loads(self.trace_table.read_text())
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return table

    def read_access(self) -> Dict[str, float]:
        """Server-side latency per trace id, from the access log."""
        latencies = {}
        with open(self.access_log, encoding="utf-8") as log:
            for line in log:
                record = json.loads(line)
                latencies[record["trace_id"]] = record["latency_s"]
        return latencies


def start_and_prime(hot_bodies: List[bytes], hot_games, trace: bool):
    """Launch a server, wait for its first answer and prime the hot set.

    Returns ``(server, reference hit bodies, failures)``.
    """
    server = Server(trace=trace)
    try:
        status, _, _ = server.request("GET", "/healthz")
        if status != 200:
            raise pb_env.BenchError(f"GET /healthz answered {status}")
        references, failures = [], []
        for game, body in zip(hot_games, hot_bodies):
            first = server.request("POST", "/solve", body)
            second = server.request("POST", "/solve", body)
            reason = pb_checks.check_miss(game, first[0], first[2])
            if reason is None and second[0] != 200:
                reason = f"primed hit answered {second[0]}"
            if reason is None:
                a, b = json.loads(first[2]), json.loads(second[2])
                if b["cache_hit"] is not True or a["result"] != b["result"]:
                    reason = "primed hit does not replay the primed miss"
            if reason is not None:
                failures.append(f"priming: {reason}")
            references.append(second[2])
        return server, references, failures
    except BaseException:
        server.stop()
        raise


def closed_loop(server: Server, ops) -> tuple:
    """Send ``ops`` over :data:`CONNECTIONS` closed-loop clients.

    Returns ``(records, window seconds)``; a record is ``(status,
    request id, body, latency)`` or ``(None, None, error text, latency)``.
    """
    records: List[Optional[tuple]] = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            began = perf_counter()
            try:
                status, request_id, body = server.request(
                    "POST", "/solve", ops[index].body)
            except (OSError, http.client.HTTPException) as exc:
                status, request_id, body = None, None, repr(exc).encode()
            records[index] = (status, request_id, body,
                              perf_counter() - began)

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, perf_counter() - start


def settled_counts(server: Server, before: Dict[str, int],
                   sent: int) -> Dict[str, int]:
    """Scrape ``/metrics`` until every timed response is counted.

    The server bumps its response counters after closing the connection,
    so a scrape right after the last reply can miss it.  The scrapes'
    own 200s (the one before the window and every earlier poll) are
    subtracted, leaving exactly the timed requests' counts.
    """
    def responses(counts):
        return sum(v for k, v in counts.items()
                   if k.startswith("serve.responses_"))

    for scrapes in range(1, 101):
        after = server.counts()
        if responses(after) - responses(before) >= sent + scrapes:
            break
        sleep(0.02)
    else:
        raise pb_env.BenchError("response counters did not settle")
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in set(after) | set(before)}
    delta["serve.responses_200"] -= scrapes
    return {name: value for name, value in sorted(delta.items()) if value}


def check_record(op, record, misses, references) -> Optional[str]:
    status, _, body, _ = record
    if status is None:
        return f"{op.kind} request failed: {body.decode(errors='replace')}"
    if op.kind == "hit":
        return pb_checks.check_hit(status, body, references[op.ref])
    if op.kind == "miss":
        return pb_checks.check_miss(misses[op.ref], status, body)
    return pb_checks.check_reject(op.ref, status, body)


def timed_blocks(server: Server, ops) -> tuple:
    """Run ``ops`` in blocks of :data:`BLOCK`, calibrating between blocks.

    Returns ``(records, block windows, reference seconds per wall second
    for each block)``; each block's factor comes from the calibrations on
    either side of it and the steal during it.
    """
    records, windows, factors = [], [], []
    before = pb_stats.calibrate()
    for first in range(0, len(ops), BLOCK):
        counters = pb_stats.cpu_counters()
        block, window = closed_loop(server, ops[first:first + BLOCK])
        unstolen = pb_stats.unstolen_share(counters, pb_stats.cpu_counters())
        after = pb_stats.calibrate()
        records += block
        windows.append(window)
        factors.append(pb_stats.speed_factor([before, after]) * unstolen)
        before = after
    return records, windows, factors


def run_pass(seed: int, count: int, setup_reps: int, trace: bool) -> dict:
    """Set up ``setup_reps`` times, then run one timed window on the last
    server.  Returns the raw results the metrics are computed from."""
    hot, misses, ops = pb_inputs.serve_inputs(seed, count)
    hot_bodies = [pb_inputs.solve_body(game) for game in hot]
    setups = []
    for rep in range(setup_reps):
        before = pb_stats.calibrate()
        counters = pb_stats.cpu_counters()
        began = perf_counter()
        server, references, setup_failures = start_and_prime(
            hot_bodies, hot, trace)
        elapsed = perf_counter() - began
        unstolen = pb_stats.unstolen_share(counters, pb_stats.cpu_counters())
        setups.append(elapsed * unstolen * pb_stats.speed_factor(
            [before, pb_stats.calibrate()]))
        if rep < setup_reps - 1:
            server.stop()
    try:
        counts_before = server.counts()
        records, windows, factors = timed_blocks(server, ops)
        counts = settled_counts(server, counts_before, len(ops))
        rss = server.peak_rss_mb()
        server_latency = server.read_access()
    finally:
        table = server.stop()
    failures = setup_failures
    for index, (op, record) in enumerate(zip(ops, records)):
        reason = check_record(op, record, misses, references)
        if reason is not None:
            failures.append({"op": index, "reason": reason})
    return {
        "ops": ops, "records": records, "windows": windows,
        "factors": factors, "setups": setups, "counts": counts,
        "peak_rss_mb": rss, "server_latency": server_latency,
        "failures": failures, "trace": table,
    }

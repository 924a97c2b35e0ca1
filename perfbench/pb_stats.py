"""Order statistics shared by the benchmark: nearest-rank percentiles,
the rule that decides which tail percentile a sample can support, and
the host-speed calibration every reported time goes through."""

from __future__ import annotations

import math
import statistics
from time import thread_time
from typing import Sequence, Tuple

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one slow instance moves the figure by itself.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100]; got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def min_count_for_tail(q: float) -> int:
    """The smallest sample count whose ``q``-th percentile has
    :data:`MIN_BEYOND` samples beyond it."""
    count = 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


# -- host-speed calibration -------------------------------------------------
#
# The benchmark host is a shared 2-vCPU VM.  Two things move the wall time
# of identical work by far more than any usable regression bound:
#
# * the speed of a vCPU drifts by up to half between minutes (a fixed
#   pure-Python loop takes 17 ms in one minute and 25 ms in the next);
# * the hypervisor steals the vCPUs: 3-4% of the time with one busy
#   thread, 15-38% while the serve workload keeps both vCPUs busy.
#
# So every timed stretch is reported in *reference seconds*: its wall
# time times the share of runnable CPU time the host did not steal
# during it (from /proc/stat), times REFERENCE_SLICE_S over the CPU time
# of calibration slices measured right next to it.  A change to the
# program moves the timed work and not the slices or the steal, so it
# shows in full; a change of host speed or load moves both and largely
# cancels.

CALIBRATION_ITERATIONS = 50_000
#: CPU time of one slice on the reference host (2-vCPU x86 VM, CPython 3.11).
REFERENCE_SLICE_S = 0.0044


def calibration_slice() -> float:
    """Thread CPU time of one fixed pure-Python slice of work, in
    seconds; CPU time leaves out whatever the host stole meanwhile."""
    began = thread_time()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return thread_time() - began


def calibrate(slices: int = 10) -> float:
    """Median CPU time of ``slices`` calibration slices."""
    return statistics.median(calibration_slice() for _ in range(slices))


def speed_factor(slice_times: Sequence[float]) -> float:
    """Reference seconds per CPU-second at the calibrated speed."""
    return REFERENCE_SLICE_S / statistics.median(slice_times)


def cpu_counters() -> Tuple[int, int]:
    """``(busy, steal)`` clock ticks summed over all CPUs since boot, from
    ``/proc/stat``; ``(0, 0)`` where it cannot be read."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of the runnable CPU time between two :func:`cpu_counters`
    readings that the host did not steal (1.0 without data)."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return busy / (busy + steal) if busy + steal > 0 else 1.0


def local_factors(slice_times: Sequence[float], counters: Sequence,
                  radius: int = 5):
    """Reference seconds per wall second for each of ``n`` ops run back
    to back, each preceded by one calibration slice; ``counters`` holds
    the :func:`cpu_counters` reading before and after every op
    (``2n`` readings).  Each op uses the slices and the steal of the ops
    within ``radius`` of it, which smooths the 10 ms tick of the
    counters."""
    count = len(slice_times)
    factors = []
    for i in range(count):
        low, high = max(0, i - radius), min(count, i + radius + 1)
        factors.append(speed_factor(slice_times[low:high]) * unstolen_share(
            counters[2 * low], counters[2 * high - 1]))
    return factors

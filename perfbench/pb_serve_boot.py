"""Start ``repro-defender serve`` with the benchmark's layer wrappers.

    python3 perfbench/pb_serve_boot.py --table OUT.json serve --port 0 ...

Imports the service, installs the :mod:`pb_tracer` wrappers keyed by
each request's trace id, hands the remaining arguments to
``repro.cli.main`` and, once the server has shut down, writes the
per-request layer table to ``--table``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pb_tracer  # noqa: E402
import repro.cli  # noqa: E402
from repro.obs import tracing  # noqa: E402
# Importing the service binds the app's ``from x import f`` names before
# the wrappers replace them.
from repro.serve import WorkerPool  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", required=True)
    args, rest = parser.parse_known_args(argv)
    tracer = pb_tracer.Tracer(tracing.current_trace_id)
    missing = pb_tracer.install(tracer, pb_tracer.SERVE_TARGETS)
    WorkerPool.submit = tracer.wrap_submit(WorkerPool.submit)
    try:
        return repro.cli.main(rest)
    finally:
        Path(args.table).write_text(json.dumps(
            {"table": tracer.table, "untraced_targets": missing}))


if __name__ == "__main__":
    sys.exit(main())

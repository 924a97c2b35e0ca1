# Developer/CI entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH, so no editable install is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test perfbench-check bench bench-smoke bench-smoke-baseline bench-watch cache-smoke fuzz-smoke obs-check report-smoke serve-smoke slo-smoke api-docs api-docs-check lint mypy ci

## tier-1 test suite (the gate every PR must keep green)
test:
	$(PYTHON) -m pytest -x -q

## the fixed-work benchmark's own tests (perfbench/): its inputs,
## answer checks and determinism guard stay checked on every change to
## the code they drive
perfbench-check:
	$(PYTHON) -m pytest -q perfbench

## regenerate the experiment tables + benchmark telemetry
## (writes benchmarks/results/*.{txt,json} and bench_summary.json)
bench:
	$(PYTHON) -m pytest -q benchmarks

## time the tracked hot paths in host-corrected reference seconds and
## fail when any median exceeds the newest committed BENCH_KERNELS.json
## entry by more than its MAD-derived band (repro.obs.watchdog.check;
## skips cleanly when scipy is absent)
bench-smoke:
	@if $(PYTHON) -c "import numpy, scipy" >/dev/null 2>&1; then \
		$(PYTHON) tools/bench_smoke.py --check; \
	else \
		echo "numpy/scipy not installed -- skipping bench smoke"; \
	fi

## re-baseline BENCH_KERNELS.json from the current hot-path timings
## (appends one history entry stamped with the git revision and whether
## the tree is dirty)
bench-smoke-baseline:
	$(PYTHON) tools/bench_smoke.py --write

## perf-regression watchdog: the newest committed history entry versus
## the earlier ones, through the same comparator as bench-smoke
bench-watch:
	$(PYTHON) -c "from repro.obs.watchdog import _main; raise SystemExit(_main())" --file BENCH_KERNELS.json --strict

## result-cache lifecycle gate: cold solve -> byte-identical hit ->
## distinct weighted identities -> gc -> miss, on the committed fixtures
cache-smoke:
	$(PYTHON) tools/cache_smoke.py

## HTTP solve-service gate: ephemeral-port boot, one request per
## endpoint plus one invalid, then metrics + ledger-record assertions
## and the end-to-end trace-correlation check (headers = ledger =
## events = access log)
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## SLO exit-code gate: `slo check` must pass the committed healthy
## access-log fixture and fail the breaching one
slo-smoke:
	$(PYTHON) tools/slo_smoke.py

## differential fuzz gate: replay the counterexample corpus, then a
## fixed-seed fresh batch across every solver path, then a smaller
## fixed-seed batch under `python -O` (asserts stripped, so no check may
## lean on one) -- deterministic, <60s
fuzz-smoke:
	$(PYTHON) -m repro.fuzz --count 50 --seed 20060707 --corpus tests/corpus --replay
	$(PYTHON) -O -m repro.fuzz --count 20 --seed 20061014

## smoke-check the observability layer (tracing + metrics + events +
## ledger + report exports)
obs-check:
	$(PYTHON) tools/check_obs.py

## render the HTML/markdown run report from the committed ledger fixture
## and fail unless it is valid and self-contained
report-smoke:
	$(PYTHON) tools/check_obs.py --report-smoke

## regenerate docs/api.md from docstrings
api-docs:
	$(PYTHON) tools/gen_api_docs.py

## fail if docs/api.md is stale
api-docs-check:
	$(PYTHON) tools/gen_api_docs.py --check

## two-phase static analysis over src/repro, tools/ and benchmarks/
## with every rule (docs/static_analysis.md); fails on any finding
lint:
	$(PYTHON) -m repro.lint

## static types: strict on core/matching, permissive elsewhere
## (configured in pyproject.toml; skips cleanly when mypy is absent)
mypy:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed -- skipping type check"; \
	fi

## the full CI gate: static analysis, types, instrumentation smoke test,
## report rendering, docs freshness, tier-1 tests, hot-path perf smoke,
## perf watchdog, result-cache lifecycle, solve-service lifecycle,
## differential fuzz, benchmark self-tests; without mypy its last line
## says that no type check ran
ci: lint mypy obs-check report-smoke api-docs-check test bench-smoke bench-watch cache-smoke serve-smoke slo-smoke fuzz-smoke perfbench-check
	@$(PYTHON) -c "import mypy" >/dev/null 2>&1 || \
		echo "make ci: no type check ran (mypy not installed)"

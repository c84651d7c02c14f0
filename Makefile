# Development convenience targets.  Everything assumes the source
# layout (src/) without installation: PYTHONPATH=src.  Prepend rather
# than assign so a caller's PYTHONPATH survives (same idiom as the
# tier-1 command in ROADMAP.md: src${PYTHONPATH:+:$PYTHONPATH}).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench bench-report perf-quick batch-demo \
	profile-demo durability-demo durability-props

test:
	$(PYTHON) -m pytest -x -q

bench-smoke:
	$(PYTHON) -m pytest benchmarks/ -q -rfE -p no:cacheprovider \
	  -k "ablation or no_regression or snode_scaling or batch or durability or claim_firings or dips_work or match_algorithms or fig3 or claim_parallel"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Regression gate: measure match-work counters for the benchmark
# scenarios, write BENCH_44.json, and fail if a gated counter regresses
# more than 10% against the newest committed report,
# benchmarks/BENCH_44.json.
bench-report:
	$(PYTHON) benchmarks/bench_report.py --check

# The durability unit suite (WAL, checkpoint, fault injection), then
# the crash-at-any-point and refused-append recovery properties on
# every matcher and fsync policy.  CI's crash-injection job runs
# exactly this.
durability-props:
	$(PYTHON) -m pytest tests/durability -q -p no:cacheprovider
	$(PYTHON) -m pytest tests/properties/test_crash_recovery.py \
	  tests/test_cli_durability.py -q -p no:cacheprovider

# The repository benchmark's correctness checks (perf/README.md): a
# --quick pass of all five workloads, then the instrument's self-tests.
# No timing is judged.  CI's perf-checks job runs exactly this.
perf-quick:
	python3 perf/run.py --quick && $(PYTHON) -m pytest perf/tests -q

batch-demo:
	$(PYTHON) -W error::DeprecationWarning examples/bulk_load.py

# Exercise the --profile surface end-to-end: feed the per-sensor stats
# program three readings through the REPL and print the per-rule /
# per-node match-work tables on exit.
profile-demo:
	printf 'make reading ^sensor t1 ^value 10\n\
	make reading ^sensor t1 ^value 30\n\
	make reading ^sensor t2 ^value 22\n\
	run\n\
	exit\n' | $(PYTHON) -m repro.cli \
	  examples/programs/sensor_stats.ops --profile

# Crash a durable session mid-append, recover it from the WAL, then do
# the same through a checkpoint; asserts state equality both ways.
durability-demo:
	$(PYTHON) -W error::DeprecationWarning examples/crash_recovery.py

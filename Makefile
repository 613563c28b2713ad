# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint check bench bench-smoke bench-diff torture-smoke sweep-smoke perfbench-smoke figures examples regen-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# Source lint: the token pass (bin/hsfq_lint) plus the whole-program
# typed analyzer (bin/hsfq_tlint, over .cmt artifacts).  Both also run
# as part of `dune runtest`.  See doc/STATIC_ANALYSIS.md.
lint:
	dune build @lint @lint-typed

# Tier-1 verification: strict build + tests + lint + bench, torture,
# parallel-sweep and perfbench smoke passes.
check: build test lint bench-smoke torture-smoke sweep-smoke perfbench-smoke

# Full harness: micro-benchmarks, parallel sweeps, scale and smp rows,
# re-recorded into BENCH_sched.json.  The paper's figures are
# `dune exec bin/hsfq_sim.exe -- run --all`.
bench:
	dune exec bench/main.exe

# One iteration of every micro-benchmark (no Bechamel quota), a sweep
# determinism check, and the scale and smp workloads at toy size with
# hard asserts: compaction fires and reclaims, P=1 never migrates, P>1
# storms do, per-event cost stays flat in P, allocation budgets hold.
# The full scale and smp rows live in BENCH_sched.json, hard-gated by
# `make bench-diff`.
bench-smoke:
	dune build @bench-smoke

# Perf-regression gate: a fresh `--micro-only` run diffed against the
# committed BENCH_sched.json.  Micro ns rows outside ±25% are advisory
# (timing noise can't fail the build); the scale and smp sections are
# hard-gated.  The fresh run measures no sweeps, so for
# the "sweeps" section this only re-checks that every committed speedup
# is >= 1x; comparing fresh sweep timings takes a full `make bench`.
# Re-run `make bench` to refresh the baseline when a change is real.
bench-diff:
	dune build @bench-diff

# Lifecycle torture, quick slice: 8 seeds x 2000 ops with per-op
# audits.  The full acceptance sweep is
# `dune exec bin/hsfq_sim.exe -- torture --seeds 100 -n 50000`.
torture-smoke:
	dune build @torture-smoke

# Parallel-sweep smoke: a tiny jobs=2 torture sweep on the domain pool
# with a worker --minor-heap, so the fan-out path stays wired from the
# CLI down.
sweep-smoke:
	dune build @sweep-smoke

# The simulator benchmark (perfbench/, its own dune project) compiles
# against the libraries' interfaces — Scheduler_intf.FAIR, Leaf_sched,
# Hierarchy — and nothing else in `make check` builds it.  Its toy-size
# self-test builds the harness and runs every workload twice, asserting
# the replays, the layer sum and repeatable outcomes.
perfbench-smoke:
	dune build @perfbench/test/selftest

# Regenerate the golden trace dumps (test/golden/*.trace) after an
# intentional change to the event schema, the exporters or the traced
# experiments' scheduling.  test/test_obs.ml requires byte-equality
# with these files; review the diff before committing.
regen-golden:
	dune build bin/hsfq_sim.exe
	dune exec bin/hsfq_sim.exe -- trace fig1 --text > test/golden/fig1.trace
	dune exec bin/hsfq_sim.exe -- trace fig5 --text --capacity 1024 > test/golden/fig5.trace

# Figure data as CSV under ./figures (for plotting).
figures:
	dune exec bin/hsfq_sim.exe -- csv --all --dir figures

examples:
	dune exec examples/quickstart.exe
	dune exec examples/video_server.exe
	dune exec examples/multiclass.exe
	dune exec examples/qos_manager.exe
	dune exec examples/file_server.exe
	dune exec examples/router.exe

clean:
	dune clean

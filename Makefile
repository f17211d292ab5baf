# Convenience targets around dune.

.PHONY: all build test check bench metrics fleet faults perf engines \
	validate sim respond clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate plus a telemetry smoke run: build, full test suite, and one
# interpreted program under CSOD with metrics on (must detect and print
# the METRICS / CYCLE ATTRIBUTION tables).
check:
	dune build
	dune runtest
	dune exec bin/csod_run.exe -- exec examples/demo.mc --input 12 --tool csod --metrics

bench:
	dune exec bench/main.exe

# Machine-readable JSONL telemetry for every workload (stdout only).
metrics:
	@dune exec bench/main.exe -- metrics

# Fleet bench: serial vs. parallel wall clock plus a determinism
# re-check, one csod.bench.fleet/1 JSONL row per app (stdout only).
fleet:
	@dune exec bench/main.exe -- fleet

# Resilience bench: sweep the deterministic fault injector over a range
# of rates, one csod.bench.resilience/1 JSONL row per (app, rate) — the
# detection-rate-vs-fault-rate curve — then the active-response rows
# (csod.bench.respond/1: survival per app, armed-hook overhead) (stdout
# only; CI splits the two by their "schema" tag).
faults:
	@dune exec bench/main.exe -- resilience

# Throughput bench: real ns/op of the hot paths (malloc, free, read,
# write, trap), one csod.bench.throughput/2 JSONL row per (op, mode)
# (stdout only).  BENCH_THROUGHPUT.jsonl holds a committed baseline.
perf:
	@dune exec bench/main.exe -- throughput

# Engine bench: end-to-end executions/sec of the AST interpreter vs the
# bytecode VM over app and pure-compute kernel workloads, one
# csod.bench.exec/1 JSONL row per (workload, mode) (stdout only).
# BENCH_EXEC.jsonl holds a committed baseline.
engines:
	@dune exec bench/main.exe -- exec

# Event-stream hygiene: the JSONL emitted by --events must be one JSON
# object per line, never a torn line, with every schema-tagged line
# matching its spec (csod_run validate), and the detecting seed-3 run
# must stream its detection record.
validate:
	dune exec bin/csod_run.exe -- run heartbleed --seed 3 --events /tmp/csod_events.jsonl > /dev/null
	dune exec bin/csod_run.exe -- validate /tmp/csod_events.jsonl
	grep -q '"event":"detection"' /tmp/csod_events.jsonl

# Bounded simulation sweep: ~2k weighted operation sequences across the
# five stack-layer alphabets (heap+sparse memory, runtime, fleet, store,
# respond),
# model invariants checked after every step, counterexamples shrunk and
# printed as runnable csod.sim.repro/1 lines (non-zero exit on failure).
# The committed planted-bug repro must also keep replaying bit-identically.
sim:
	dune exec bin/csod_run.exe -- sim --seed 1 --runs 500 --ops 60
	dune exec bin/csod_run.exe -- sim --replay examples/sim/planted.repro.jsonl

# Survival smoke: Heartbleed under the failure-oblivious policy must run
# to completion (exit 0) with at least one redirect recorded as a
# csod.respond.event/1 line, and a short zziplib service with code-less
# patching armed must fire and then clear a patch alert once fleet
# evidence convicts the overflowing context.
respond:
	dune exec bin/csod_run.exe -- run heartbleed --seed 1 --respond oblivious --events /tmp/csod_respond.jsonl > /dev/null
	grep -q '^{"event":"respond",.*"kind":"redirect-' /tmp/csod_respond.jsonl
	dune exec bin/csod_run.exe -- validate /tmp/csod_respond.jsonl
	dune exec bin/csod_run.exe -- serve zziplib --users 200 --epoch 32 --epochs 12 --domains 2 --seed 1 --respond patch=3 --alerts 'patch>0@2' > /tmp/csod_respond_serve.out
	grep -q 'patch>0@2 FIRING' /tmp/csod_respond_serve.out
	grep -q 'patch>0@2 cleared' /tmp/csod_respond_serve.out

clean:
	dune clean

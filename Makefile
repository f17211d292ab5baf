# Convenience targets around dune.

.PHONY: all build test check help-clean bench metrics fleet faults perf \
	engines validate sim respond loc clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate plus a telemetry smoke run: build, full test suite, and one
# interpreted program under CSOD with metrics on (must detect and print
# the METRICS / CYCLE ATTRIBUTION tables), then clean help text.
check:
	dune build
	dune runtest
	dune exec bin/csod_run.exe -- exec examples/demo.mc --input 12 --tool csod --metrics
	$(MAKE) help-clean

# Every subcommand's --help renders without a markup error: cmdliner
# reports a bad doc-string escape on stderr and still exits 0.  The
# subcommands are the COMMANDS section of the top-level help, so a new
# one cannot skip the check; the top-level help ("") is checked too.
help-clean:
	dune build
	@cmds=$$(./_build/default/bin/csod_run.exe --help=plain \
	  | sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p'); \
	if [ -z "$$cmds" ]; then echo "no subcommands in csod_run --help=plain"; exit 1; fi; \
	for c in "" $$cmds; do \
	  err=$$(./_build/default/bin/csod_run.exe $$c --help=plain 2>&1 >/dev/null); \
	  if [ -n "$$err" ]; then \
	    echo "csod_run $$c --help=plain wrote to stderr:"; echo "$$err"; exit 1; \
	  fi; \
	done

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
# must stream its detection record and, with snapshots scheduled, its
# snapshot records between the recorder's own.
validate:
	dune exec bin/csod_run.exe -- run heartbleed --seed 3 --snapshot-sec 0.01 --events /tmp/csod_events.jsonl > /dev/null
	dune exec bin/csod_run.exe -- validate /tmp/csod_events.jsonl
	grep -q '"event":"detection"' /tmp/csod_events.jsonl
	grep -q '^{"event":"snapshot",' /tmp/csod_events.jsonl

# Bounded simulation sweep: ~3k weighted operation sequences across the
# six stack-layer alphabets (heap+sparse memory, runtime, fleet, store,
# respond, then runtime-threads by name),
# model invariants checked after every step, counterexamples shrunk and
# printed as runnable csod.sim.repro/1 lines (non-zero exit on failure).
# The committed planted-bug repro must also keep replaying bit-identically.
sim:
	dune exec bin/csod_run.exe -- sim --seed 1 --runs 500 --ops 60
	dune exec bin/csod_run.exe -- sim --alphabet runtime-threads --seed 1 --runs 500 --ops 60
	dune exec bin/csod_run.exe -- sim --replay examples/sim/planted.repro.jsonl

# Survival smoke: Heartbleed under the failure-oblivious policy must run
# to completion (exit 0) with at least one redirect recorded as a
# flight-recorder respond record, streamed by --events and drawn as an
# instant by --trace-out, and a short zziplib service with code-less
# patching armed must fire and then clear a patch alert once fleet
# evidence convicts the overflowing context.
respond:
	dune exec bin/csod_run.exe -- run heartbleed --seed 1 --respond oblivious --events /tmp/csod_respond.jsonl --trace-out /tmp/csod_respond_trace.json > /dev/null
	grep -q '^{"event":"respond","seq":[0-9]*,"at":[0-9]*,"action":"redirect-' /tmp/csod_respond.jsonl
	dune exec bin/csod_run.exe -- validate /tmp/csod_respond.jsonl
	grep -q '{"name":"redirect-read via watchpoint: [^"]*","ph":"i"' /tmp/csod_respond_trace.json
	dune exec bin/csod_run.exe -- serve zziplib --users 200 --epoch 32 --epochs 12 --domains 2 --seed 1 --respond patch=3 --alerts 'patch>0@2' > /tmp/csod_respond_serve.out
	grep -q 'patch>0@2 FIRING' /tmp/csod_respond_serve.out
	grep -q 'patch>0@2 cleared' /tmp/csod_respond_serve.out

# Lines of OCaml (.ml + .mli) under each source tree, the counts every
# CHANGES.md entry reports.
loc:
	@for d in lib bin bench test; do \
	  printf '%-7s %6d\n' "$$d/" "$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"; \
	done

clean:
	dune clean

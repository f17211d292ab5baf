#!/bin/sh
# Validate that a file (or stdin) is well-formed JSONL: exactly one JSON
# object per line, no torn or truncated lines.  Used by CI on the event
# streams csod_run --events and bench metrics produce.
#
#   tools/validate_jsonl.sh events.jsonl
#   csod_run run heartbleed --events - | tools/validate_jsonl.sh
#
# With --schema NAME every line must additionally carry that schema tag
# and its required fields are type-checked; a NAME the validator does not
# know is an error:
#
#   tools/validate_jsonl.sh --schema csod.bench.resilience/1 resilience.jsonl
set -eu

schema=""
if [ "${1:-}" = "--schema" ]; then
    schema="$2"
    shift 2
fi

input="${1:--}"

# The program is passed via -c (not a heredoc on stdin) so that stdin
# stays available for piped JSONL when input is "-".
program=$(cat <<'EOF'
import json
import numbers
import sys

path, schema = sys.argv[1], sys.argv[2]
stream = sys.stdin if path == "-" else open(path, encoding="utf-8")

# Required fields per known schema: name -> expected Python type.
KNOWN = {
    "csod.bench.resilience/1": {
        "app": str,
        "config": str,
        "users": int,
        "domains": int,
        "fault_rate": numbers.Real,
        "faults": str,
        "detections": int,
        "detection_rate": numbers.Real,
        "degraded_executions": int,
        "faults_injected": int,
        "worker_crashes": int,
        "store_contexts": int,
        "wall_seconds": numbers.Real,
    },
    "csod.bench.throughput/2": {
        "op": str,
        "mode": str,
        "iters": int,
        "ns_per_op": numbers.Real,
        "ops_per_sec": numbers.Real,
    },
    "csod.bench.exec/1": {
        "workload": str,
        "kind": str,
        "mode": str,
        "runs": int,
        "cycles": int,
        "interp_wall_seconds": numbers.Real,
        "vm_wall_seconds": numbers.Real,
        "interp_execs_per_sec": numbers.Real,
        "vm_execs_per_sec": numbers.Real,
        "speedup": numbers.Real,
    },
    "csod.respond.event/1": {
        "kind": str,
        "source": str,
        "site": int,
        "ctx": list,
        "addr": int,
        "offset": int,
        "len": int,
        "at_sec": numbers.Real,
    },
    "csod.bench.respond/1": {
        "metric": str,
        "app": str,
        "mode": str,
        "runs": int,
    },
    "csod.fleet.health/1": {
        "epoch": int,
        "arrivals": int,
        "detections": int,
        "cumulative": int,
        "patched": int,
        "users": int,
        "cdf": numbers.Real,
        "store_contexts": int,
        "degraded": int,
        "worker_crashes": int,
        "faults": dict,
        "snapshots": int,
        "epoch_seconds": numbers.Real,
        "merge_seconds": numbers.Real,
        "observer_seconds": numbers.Real,
        "execs_per_sec": numbers.Real,
        "straggler_skew": numbers.Real,
        "telemetry": str,
        "domains": list,
    },
    "csod.fleet.alert/1": {
        "alert": str,
        "spec": str,
        "state": str,
        "epoch": int,
        "since": int,
        "window": dict,
    },
    "csod.serve.history/1": {
        "seq": int,
        "kind": str,
        "crc": str,
        "body": dict,
    },
    "csod.sim.repro/1": {
        "alphabet": str,
        "seed": int,
        "ops": list,
        "failed_at": int,
        "failure": str,
        "replay_hash": str,
        "shrunk_from": int,
    },
}

# Operation vocabulary of each simulation alphabet (lib/sim): a repro may
# only name ops its alphabet declares.  Planted-bug variants share their
# base alphabet's vocabulary.
SIM_OPS = {
    "heap": {"alloc", "free", "double-free", "write-u8", "write-u64",
             "read-u8", "read-u64", "fill", "cache", "recycle"},
    "runtime": {"alloc", "free", "write", "read", "overflow", "disarm",
                "fault-ebusy", "fault-eacces", "fault-trap-drop",
                "fault-trap-delay"},
    "store": {"add1", "add2", "merge", "persist-save", "persist-load",
              "fault-persist-torn", "fault-persist-enospc"},
    "fleet": {"barrier", "fault-trap-drop", "persist-save", "persist-load",
              "crash"},
    "respond": {"respond-oblivious-read", "respond-oblivious-write",
                "convict-context", "apply-patch"},
}
SIM_OPS["store-buggy-merge"] = SIM_OPS["store"]
SIM_OPS["fleet-evidence-bug"] = SIM_OPS["fleet"]
SIM_OPS["respond-lost-conviction"] = SIM_OPS["respond"]

def check_respond_event(obj, where):
    if obj["kind"] not in ("redirect-read", "redirect-write", "escape",
                           "patch"):
        sys.exit(f"{where}: unknown respond event kind {obj['kind']!r}")
    if obj["source"] not in ("watchpoint", "asan", "canary"):
        sys.exit(f"{where}: unknown respond source {obj['source']!r}")
    ctx = obj["ctx"]
    if len(ctx) != 2 or any(
            not isinstance(c, int) or isinstance(c, bool) for c in ctx):
        sys.exit(f"{where}: respond ctx {ctx!r} is not an [int, int] pair")

# Per-metric required fields of csod.bench.respond/1: survival rows carry
# the redirect tallies, the overhead row carries the paired timings.
RESPOND_METRICS = {
    "survival": {
        "survived": int,
        "survival_rate": numbers.Real,
        "detections": int,
        "redirected_reads": int,
        "redirected_writes": int,
        "escapes": int,
    },
    "overhead": {
        "ns_per_op": numbers.Real,
        "baseline_ns_per_op": numbers.Real,
        "overhead_frac": numbers.Real,
    },
}

def check_respond_bench(obj, where):
    metric = obj["metric"]
    extra = RESPOND_METRICS.get(metric)
    if extra is None:
        sys.exit(f"{where}: unknown respond bench metric {metric!r}")
    for key, ty in extra.items():
        if key not in obj:
            sys.exit(f"{where}: {metric} row missing field {key!r}")
        if not isinstance(obj[key], ty) or isinstance(obj[key], bool):
            sys.exit(f"{where}: {metric} field {key!r} has type "
                     f"{type(obj[key]).__name__}")
    if metric == "survival":
        if not 0 <= obj["survived"] <= obj["runs"]:
            sys.exit(f"{where}: survived {obj['survived']} outside "
                     f"[0, {obj['runs']}]")
        if not 0.0 <= obj["survival_rate"] <= 1.0:
            sys.exit(f"{where}: survival_rate out of [0, 1]")
    elif metric == "overhead" and obj["baseline_ns_per_op"] <= 0:
        sys.exit(f"{where}: non-positive baseline_ns_per_op")

def check_exec_bench(obj, where):
    if obj["kind"] not in ("app", "kernel"):
        sys.exit(f"{where}: unknown exec workload kind {obj['kind']!r}")
    if obj["mode"] not in ("serial", "metrics"):
        sys.exit(f"{where}: unknown exec mode {obj['mode']!r}")
    if obj["runs"] < 1:
        sys.exit(f"{where}: non-positive run count")
    if not isinstance(obj.get("deterministic"), bool):
        sys.exit(f"{where}: missing bool field 'deterministic'")
    for key in ("interp_wall_seconds", "vm_wall_seconds",
                "interp_execs_per_sec", "vm_execs_per_sec", "speedup"):
        if obj[key] <= 0:
            sys.exit(f"{where}: non-positive {key}")

def check_sim_repro(obj, where):
    alphabet = obj["alphabet"]
    ops = SIM_OPS.get(alphabet)
    if ops is None:
        sys.exit(f"{where}: unknown alphabet {alphabet!r}")
    if not obj["ops"]:
        sys.exit(f"{where}: empty op sequence")
    for i, step in enumerate(obj["ops"]):
        if not isinstance(step, dict):
            sys.exit(f"{where}: op {i} is not an object")
        name = step.get("op")
        if name not in ops:
            sys.exit(f"{where}: op {i} {name!r} is not in the "
                     f"{alphabet} alphabet")
        args = step.get("args")
        if not isinstance(args, list) or any(
                not isinstance(a, int) or isinstance(a, bool) for a in args):
            sys.exit(f"{where}: op {i} args are not a list of ints")
    if not 0 <= obj["failed_at"] < len(obj["ops"]):
        sys.exit(f"{where}: failed_at {obj['failed_at']} outside the "
                 f"{len(obj['ops'])}-op sequence")
    h = obj["replay_hash"]
    if len(h) != 16 or any(c not in "0123456789abcdef" for c in h):
        sys.exit(f"{where}: replay_hash {h!r} is not 16 lowercase hex digits")
    if obj["shrunk_from"] < len(obj["ops"]):
        sys.exit(f"{where}: shrunk_from {obj['shrunk_from']} below the kept "
                 f"{len(obj['ops'])} ops")

# ---- Stateful checks for the serve streams -------------------------------
#
# Alert transitions must alternate fire -> clear per spec (the engine only
# emits transitions), and the window snapshot on each event must describe a
# span that ends at or before the event's epoch.  History lines must carry
# contiguous sequence numbers and a well-formed 64-bit checksum.

alert_states = {}    # spec -> last seen state ("fire" | "clear")
history_next = None  # expected next seq, once the first line fixes the origin
mid_stream = False   # history segment starting past seq 0: prior alert
                     # state is unknown, so an initial clear is legal

def check_alert(obj, where):
    for key, ty in KNOWN["csod.fleet.alert/1"].items():
        if key not in obj:
            sys.exit(f"{where}: alert record missing field {key!r}")
        if not isinstance(obj[key], ty) or isinstance(obj[key], bool):
            sys.exit(f"{where}: alert field {key!r} has type "
                     f"{type(obj[key]).__name__}")
    spec, state = obj["spec"], obj["state"]
    if state not in ("fire", "clear"):
        sys.exit(f"{where}: alert state {state!r} is not fire/clear")
    w = obj["window"]
    for key in ("epochs", "first_epoch", "last_epoch"):
        v = w.get(key)
        if not isinstance(v, int) or isinstance(v, bool):
            sys.exit(f"{where}: alert window lacks int field {key!r}")
    if not w["first_epoch"] <= w["last_epoch"] <= obj["epoch"]:
        sys.exit(f"{where}: alert window [{w['first_epoch']}, "
                 f"{w['last_epoch']}] outside epoch {obj['epoch']}")
    if w["epochs"] < 1:
        sys.exit(f"{where}: alert window covers {w['epochs']} epochs")
    prev = alert_states.get(spec)
    if state == "fire" and prev == "fire":
        sys.exit(f"{where}: {spec} fired twice without clearing")
    if state == "clear" and prev != "fire" \
            and not (mid_stream and prev is None):
        sys.exit(f"{where}: {spec} cleared without firing")
    if state == "fire" and obj["since"] != obj["epoch"]:
        sys.exit(f"{where}: fire event since {obj['since']} != "
                 f"epoch {obj['epoch']}")
    if state == "clear" and not 0 <= obj["since"] <= obj["epoch"]:
        sys.exit(f"{where}: clear event since {obj['since']} "
                 f"outside [0, {obj['epoch']}]")
    alert_states[spec] = state

def check_history(obj, where):
    global history_next, mid_stream
    if obj["kind"] not in ("meta", "health", "alert"):
        sys.exit(f"{where}: unknown history kind {obj['kind']!r}")
    if history_next is None and obj["seq"] != 0:
        mid_stream = True
    crc = obj["crc"]
    if len(crc) != 16 or any(c not in "0123456789abcdef" for c in crc):
        sys.exit(f"{where}: crc {crc!r} is not 16 lowercase hex digits")
    if history_next is not None and obj["seq"] != history_next:
        sys.exit(f"{where}: seq {obj['seq']}, expected {history_next}")
    history_next = obj["seq"] + 1
    body = obj["body"]
    if obj["kind"] == "health":
        for key in ("epoch", "arrivals", "detections", "cumulative"):
            v = body.get(key)
            if not isinstance(v, int) or isinstance(v, bool):
                sys.exit(f"{where}: health body lacks int field {key!r}")
        if not 0.0 <= body.get("cdf", -1.0) <= 1.0:
            sys.exit(f"{where}: health body cdf out of [0, 1]")
    elif obj["kind"] == "alert":
        check_alert(body, where)

fields = KNOWN.get(schema)
if schema and fields is None:
    sys.exit(f"unknown schema {schema!r}; known: {', '.join(sorted(KNOWN))}")

lines = 0
with stream:
    for n, line in enumerate(stream, start=1):
        if not line.endswith("\n"):
            sys.exit(f"{path}:{n}: truncated final line (no newline)")
        line = line.rstrip("\n")
        if not line:
            sys.exit(f"{path}:{n}: empty line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{n}: invalid JSON: {e}")
        if not isinstance(obj, dict):
            sys.exit(f"{path}:{n}: line is not a JSON object")
        if schema:
            if obj.get("schema") != schema:
                sys.exit(f"{path}:{n}: schema {obj.get('schema')!r}, "
                         f"expected {schema!r}")
            for key, ty in fields.items():
                if key not in obj:
                    sys.exit(f"{path}:{n}: missing field {key!r}")
                if not isinstance(obj[key], ty) or isinstance(obj[key], bool):
                    sys.exit(f"{path}:{n}: field {key!r} has type "
                             f"{type(obj[key]).__name__}")
            if "detection_rate" in fields \
                    and not 0.0 <= obj["detection_rate"] <= 1.0:
                sys.exit(f"{path}:{n}: detection_rate out of [0, 1]")
            if "cdf" in fields \
                    and not 0.0 <= obj["cdf"] <= 1.0:
                sys.exit(f"{path}:{n}: cdf out of [0, 1]")
            if schema == "csod.fleet.alert/1":
                check_alert(obj, f"{path}:{n}")
            elif schema == "csod.serve.history/1":
                check_history(obj, f"{path}:{n}")
            elif schema == "csod.sim.repro/1":
                check_sim_repro(obj, f"{path}:{n}")
            elif schema == "csod.respond.event/1":
                check_respond_event(obj, f"{path}:{n}")
            elif schema == "csod.bench.exec/1":
                check_exec_bench(obj, f"{path}:{n}")
            elif schema == "csod.bench.respond/1":
                check_respond_bench(obj, f"{path}:{n}")
        lines += 1

if not lines and schema:
    sys.exit(f"{path}: empty stream (expected {schema} rows)")
print(f"{path}: {lines} valid JSONL line(s)"
      + (f" [{schema}]" if schema else ""))
EOF
)
exec python3 -c "$program" "$input" "$schema"

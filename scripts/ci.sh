#!/bin/sh
# Tier-1 verification: formatting, static checks, build, and the full test
# suite under the race detector. Run from the repository root:
#
#	./scripts/ci.sh
#
# Any failure exits non-zero.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== move-engine dupe guard =="
# The locked-move pass protocol (prefix-max rollback, convergence
# epsilon) lives in internal/moves and nowhere else. A copy of its
# comparison idioms in another package means the dedup regressed —
# point the offender at moves.PassLog / moves.Run instead.
dupes=$(grep -rn --include='*.go' \
	--exclude='*_test.go' --exclude-dir=moves \
	-E 'sum > gmax|gmax *\+ *1e-12|gmax *<= *1e-12|> *gmax *\+ *moves\.EpsGain' \
	. || true)
if [ -n "$dupes" ]; then
	echo "pass-loop logic reimplemented outside internal/moves:" >&2
	echo "$dupes" >&2
	exit 1
fi

echo "== goroutine guard =="
# Parallelism lives in one place: Options.Parallel, spent by the engine's
# worker pool on whole multi-start runs and k-way subproblems. Inside a
# run every engine is serial. Only the engine pool, the serving scheduler,
# the commands and the benchmark may start goroutines; a go statement
# anywhere else is a second parallelism mechanism.
spawns=$(grep -rnE --include='*.go' --exclude='*_test.go' \
	'^[[:space:]]*go[[:space:]]+(func[[:space:]]*\(|[A-Za-z_][A-Za-z0-9_.]*(\[[^]]*\])?\()' . |
	grep -vE '^\./(cmd|perfbench|internal/engine|internal/sched)/' || true)
if [ -n "$spawns" ]; then
	echo "goroutines started outside internal/engine, internal/sched, cmd/ and perfbench/:" >&2
	echo "$spawns" >&2
	exit 1
fi

echo "== hierarchy guard =="
# One hierarchy representation: both ml-prop modes coarsen a
# hypergraph.Contracted view, and a level graph is built only by
# Contracted.CoarseGraph. A Builder in the coarsening or multilevel code
# means a copying coarsener came back.
builders=$(grep -rn --include='*.go' --exclude='*_test.go' \
	'hypergraph\.NewBuilder' internal/cluster internal/multilevel || true)
if [ -n "$builders" ]; then
	echo "level graphs built outside Contracted.CoarseGraph:" >&2
	echo "$builders" >&2
	exit 1
fi

echo "== scratch guard =="
# Each hierarchy buffer has one owner that allocates it: the contraction
# view, the coarsener or the localized refiner makes what it uses, and the
# refiner runs on the hypergraph.Contracted view itself. A buffer pool or
# a second graph interface for the refiner means a second allocator or
# view type came back.
pools=$(grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=perfbench \
	'NewPool|hypergraph\.Pool|LocalGraph' . || true)
if [ -n "$pools" ]; then
	echo "hierarchy scratch pooled or viewed through a second interface:" >&2
	echo "$pools" >&2
	exit 1
fi

echo "== container guard =="
# One ordered container for float gains: ds.GainHeap, with ID or LIFO
# ties, owning its position index or sharing one. A sift or rotate method
# outside internal/ds means a second gain heap or search tree came back.
containers=$(grep -rnE --include='*.go' --exclude='*_test.go' \
	'^func \([^)]*\) (siftUp|siftDown|rotateLeft|rotateRight)\(' . |
	grep -v '^\./internal/ds/' || true)
if [ -n "$containers" ]; then
	echo "ordered gain containers outside internal/ds (use ds.GainHeap):" >&2
	echo "$containers" >&2
	exit 1
fi

echo "== harness guard =="
# One solve path for the reproduction: internal/bench runs its studies
# through prop.Partition and prop.Repartition. An engine, the polish
# fixpoint or the portfolio engine imported there means the harness grew
# a private solver wrapper again. (Figure 1, the ablation, the ML-FM row
# and the scale rows need core, la and multilevel, which the API cannot
# express.)
wrappers=$(grep -rnE --include='*.go' --exclude='*_test.go' \
	'"prop/internal/(fm|kl|sk|anneal|window|spectral|placement|warm|refine|engine)"' \
	internal/bench || true)
if [ -n "$wrappers" ]; then
	echo "engine packages imported by internal/bench (solve through prop.Partition):" >&2
	echo "$wrappers" >&2
	exit 1
fi

echo "== knob guard =="
# A tuning value with one value in use is a constant in its package, so
# the knobs retired under that rule must not be declared again.
knobs=$(grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=perfbench \
	'PROPParams|FlowParams|ClusteredStart|UncontractBatch|MaxPasses|SweepObjective|ml-batch' . || true)
if [ -n "$knobs" ]; then
	echo "retired tuning knobs declared again (make them package constants):" >&2
	echo "$knobs" >&2
	exit 1
fi

echo "== k-way guard =="
# A k-way partition is recursive bisection through internal/multiway.
kway=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=perfbench \
	'KWayDirect|kwaydirect|PartWindow' . || true)
if [ -n "$kway" ]; then
	echo "a second k-way engine came back (recurse through internal/multiway):" >&2
	echo "$kway" >&2
	exit 1
fi

echo "== trace reader guard =="
# One trace reader: internal/obs/report decodes and validates the JSONL
# trace against obs.Schema, and cmd/tracestat is its command. A
# cmd/tracecheck, or an event-kind or timestamp literal in non-test Go
# outside internal/obs/ and perfbench/, means a second trace reader came
# back.
readers=$({
	[ ! -e cmd/tracecheck ] || echo "cmd/tracecheck exists"
	grep -rnE --include='*.go' --exclude='*_test.go' \
		'"(run_start|run_end|phase_start|delta_apply|ts_us)"' . |
		grep -vE '^\./(internal/obs|perfbench)/'
} || true)
if [ -n "$readers" ]; then
	echo "a second trace reader came back (read traces with internal/obs/report):" >&2
	echo "$readers" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark smoke =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== trace smoke =="
# End-to-end telemetry check: a traced run must emit schema-valid JSONL
# and must not change the reported cut.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/propart -suite balu -runs 2 -par 1 -q \
	-trace "$tracedir/trace.jsonl" >"$tracedir/cut.txt"
go run ./cmd/tracestat "$tracedir/trace.jsonl" >/dev/null
go run ./cmd/propart -suite balu -runs 2 -par 1 -q >"$tracedir/cut_untraced.txt"
if ! cmp -s "$tracedir/cut.txt" "$tracedir/cut_untraced.txt"; then
	echo "trace smoke: traced cut differs from untraced cut" >&2
	exit 1
fi

echo "== fuzz smoke =="
# Short native-fuzz runs over the netlist readers, the gain heap and
# PROP's change stamps: enough to replay the corpus and shake the obvious
# parser panics, heap-order bugs and unstamped gain writes without
# stalling CI.
for target in FuzzReadHGR FuzzReadJSON FuzzReadNetAre; do
	go test -run=NONE -fuzz="^${target}\$" -fuzztime=10s ./internal/hgio
done
go test -run=NONE -fuzz='^FuzzGainHeap$' -fuzztime=10s ./internal/ds
go test -run=NONE -fuzz='^FuzzCalculatorStamps$' -fuzztime=10s ./internal/core

echo "== warm-start smoke =="
# Incremental golden check: partition, perturb with a delta, repartition
# warm from the saved sides, and verify the warm assignment stands on its
# own. PROP's prefix-rollback passes never end worse than their starting
# cut, so a crash, a broken projection, or an infeasible completion is
# what this would catch.
go run ./cmd/propart -suite balu -runs 2 -par 1 -out "$tracedir/balu.sides" -q >/dev/null
cat >"$tracedir/eco.json" <<'EOF'
{"add_nodes":[{"name":"eco0","weight":1},{"name":"eco1","weight":2}],
 "remove_nodes":[3,11],
 "add_nets":[{"name":"econet0","cost":1,"pins":[0,1,801]},
             {"name":"econet1","cost":2,"pins":[2,802]}],
 "recost":[{"net":5,"cost":3}]}
EOF
go run ./cmd/propart -suite balu -runs 2 -par 1 -q \
	-warm "$tracedir/balu.sides" -delta "$tracedir/eco.json" \
	-out "$tracedir/balu_warm.sides" >"$tracedir/warm_cut.txt"
if ! [ -s "$tracedir/warm_cut.txt" ] || ! [ -s "$tracedir/balu_warm.sides" ]; then
	echo "warm-start smoke: no output produced" >&2
	exit 1
fi

echo "== flow smoke =="
# Corridor max-flow polish: on the same portfolio (runs/seed), AlgoFlow's
# cut must never be worse than PROP's, and the flow sides must stand up to
# an independent recount + balance check (-check runs prop.Verify).
go run ./cmd/propart -suite balu -runs 2 -par 1 -q >"$tracedir/prop_cut.txt"
go run ./cmd/propart -suite balu -algo flow -runs 2 -par 1 -q \
	-out "$tracedir/balu_flow.sides" >"$tracedir/flow_cut.txt"
propcut=$(head -1 "$tracedir/prop_cut.txt")
flowcut=$(head -1 "$tracedir/flow_cut.txt")
if [ "$flowcut" -gt "$propcut" ]; then
	echo "flow smoke: flow cut $flowcut worse than PROP cut $propcut" >&2
	exit 1
fi
go run ./cmd/propart -suite balu -check "$tracedir/balu_flow.sides" >/dev/null
# A traced flow run must emit schema-valid events (pass + flow kinds).
# Its report aggregates too: flow adoption rates plus the
# corridor/expand/dinic/adopt phase tree.
go run ./cmd/propart -suite balu -algo flow -runs 2 -par 1 -q \
	-trace "$tracedir/flow_trace.jsonl" >/dev/null
go run ./cmd/tracestat -top 5 "$tracedir/flow_trace.jsonl" >/dev/null

echo "== run-report smoke =="
# Phase telemetry end to end: a traced multilevel run must pass the
# phase-nesting checks and aggregate into a run report.
go run ./cmd/propart -suite balu -algo ml-prop -q \
	-trace "$tracedir/ml_trace.jsonl" >/dev/null
go run ./cmd/tracestat -top 5 "$tracedir/ml_trace.jsonl"
# propart -report prints the same aggregation to stderr after the run.
go run ./cmd/propart -suite balu -algo ml-prop -q -report \
	>/dev/null 2>"$tracedir/report.txt"
if ! grep -q "phase coverage" "$tracedir/report.txt"; then
	echo "run-report smoke: propart -report produced no report" >&2
	exit 1
fi

echo "== serve smoke =="
# Scale-out serving end to end, driven with curl: propserve on a free port
# with a journal; tenants t0 and t1 each post a single-item /v1/batch (the
# durable path: per-tenant quota, journal, fair-share scheduler) and every
# streamed NDJSON line must read "ok":true; SIGTERM must drain cleanly and
# exit 0 with a journal segment left behind; and a second boot on the same
# journal (replay of a non-empty journal) must answer a sync /v1/partition.
go build -o "$tracedir/propserve" ./cmd/propserve
go run ./cmd/circgen -nodes 400 -nets 420 -pins 1400 -seed 3 -format json \
	-out "$tracedir/serve_netlist.json"
{
	printf '{"items":[{"netlist":'
	cat "$tracedir/serve_netlist.json"
	printf '}]}'
} >"$tracedir/serve_batch.json"
# start_propserve LOG: boot propserve on a free port against the smoke
# journal, logging to LOG; sets serve_pid and serve_addr.
start_propserve() {
	"$tracedir/propserve" -addr 127.0.0.1:0 -journal "$tracedir/journal" 2>"$1" &
	serve_pid=$!
	serve_addr=
	for _ in $(seq 1 100); do
		serve_addr=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$1" | head -1)
		[ -n "$serve_addr" ] && return 0
		sleep 0.1
	done
	echo "serve smoke: propserve never announced an address" >&2
	cat "$1" >&2
	exit 1
}
# A failed check exits through the EXIT trap, which must not leave a
# server running.
trap 'kill ${serve_pid:-} 2>/dev/null || true; rm -rf "$tracedir"' EXIT
start_propserve "$tracedir/serve.log"
for tenant in t0 t1; do
	curl -sS -N --fail -X POST -H 'Content-Type: application/json' \
		-H "X-Tenant: $tenant" --data-binary @"$tracedir/serve_batch.json" \
		"http://$serve_addr/v1/batch?algo=prop&runs=2&seed=9" >"$tracedir/batch_$tenant.ndjson"
	if ! [ -s "$tracedir/batch_$tenant.ndjson" ] ||
		grep -qv '"ok":true' "$tracedir/batch_$tenant.ndjson"; then
		echo "serve smoke: tenant $tenant's batch did not stream ok lines:" >&2
		cat "$tracedir/batch_$tenant.ndjson" >&2
		exit 1
	fi
done
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
	echo "serve smoke: propserve exited non-zero after SIGTERM" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
if ! grep -q "drained cleanly" "$tracedir/serve.log"; then
	echo "serve smoke: no clean drain in the server log" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
if ! ls "$tracedir/journal"/*.ndjson >/dev/null 2>&1; then
	echo "serve smoke: the batches left no journal segments" >&2
	exit 1
fi
# Second boot on the same journal: replay must come up and serve.
start_propserve "$tracedir/serve2.log"
code=$(curl -sS -o "$tracedir/partition.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data-binary @"$tracedir/serve_netlist.json" \
	"http://$serve_addr/v1/partition?algo=prop&runs=2&seed=9")
if [ "$code" != 200 ]; then
	echo "serve smoke: restart on the replayed journal answered $code:" >&2
	cat "$tracedir/partition.json" "$tracedir/serve2.log" >&2
	exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || {
	echo "serve smoke: second propserve exited non-zero" >&2
	exit 1
}
serve_pid=

echo "== n-level scale smoke =="
# Million-node-class readiness on CI hardware: generate a 100k-node
# circuit on the fly (nothing checked in), run the in-place n-level
# 2-way partition in a dedicated subprocess, and hold it to a wall-clock
# budget. The row's check_ok field is the independent full recount plus
# the balance check, so a silently wrong cut fails here too.
go build -o "$tracedir/bench" ./cmd/bench
start=$(date +%s)
"$tracedir/bench" -scale-row 100000 -seed 7 >"$tracedir/scale_row.json"
elapsed=$(( $(date +%s) - start ))
if ! grep -q '"check_ok":true' "$tracedir/scale_row.json"; then
	echo "scale smoke: 100k-node n-level row failed its recount:" >&2
	cat "$tracedir/scale_row.json" >&2
	exit 1
fi
if [ "$elapsed" -gt 240 ]; then
	echo "scale smoke: 100k-node n-level row took ${elapsed}s (budget 240s)" >&2
	exit 1
fi
# The row's cut is pinned: n-level is deterministic for a circuit and seed,
# so another cut means the hierarchy or the refiners changed their
# partitions. Changing the pinned value needs the same justification as a
# golden re-pin.
scale_cut=$(sed -n 's/.*"cut_cost":\([^,}]*\).*/\1/p' "$tracedir/scale_row.json")
if [ "$scale_cut" != 4127 ]; then
	echo "scale smoke: 100k-node n-level row cut ${scale_cut}, pinned at 4127" >&2
	cat "$tracedir/scale_row.json" >&2
	exit 1
fi
echo "scale smoke: 100k nodes in ${elapsed}s, cut 4127, recount ok"

echo "ci: all checks passed"

#!/usr/bin/env bash
# Builds the benchmark and propserve from source and runs the benchmark
# with the given arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --compare old.jsonl new.jsonl
#
# Binaries, the Go build cache and per-run scratch files stay under
# .bench_build/ in the repository root. The build needs no network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
(cd "$root" && go build -o "$out/propserve" ./cmd/propserve) >&2
cd "$root"
exec "$out/perfbench" --propserve "$out/propserve" --workdir "$out" "$@"

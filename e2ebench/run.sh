#!/usr/bin/env bash
# Builds the end-to-end benchmark, and the repro and schub binaries it
# drives, from this checkout's sources, then runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload repro --seed 1 --seconds 45 --trace 0
#   bash e2ebench/run.sh --workload perturb --repeat 10
#
# Everything it writes stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): binaries, the Go build cache,
# temporary files, per-run scratch state and the traced runs' reports.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/bin"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

# The benchmark is its own module; it reaches the repository's packages
# through a replace directive, so it builds only inside a full checkout.
(cd "$here" && go build -o "$out/bin/" . repro/cmd/repro repro/cmd/schub) >&2

exec "$out/bin/e2ebench" -bindir "$out/bin" -workdir "$out" "$@"

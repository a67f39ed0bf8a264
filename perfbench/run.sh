#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. The service roots a run creates live in
# .perfbench_work/. Where the kernel lets the process mount a tmpfs in a
# private mount namespace, that directory is memory-backed for the run, so
# the numbers measure the program rather than the disk; otherwise the roots
# stay on disk. The run reports which storage it used on stderr.
set -euo pipefail

work=.perfbench_work

if [[ "${1:-}" == "--in-namespace" ]]; then
    bin=$2
    shift 2
    storage=disk
    if mount -t tmpfs -o size=2g,mode=0700 perfbench "$work" 2>/dev/null; then
        storage=tmpfs
    fi
    exec "$bin" --storage "$storage" "$@"
fi

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/benchpark-perfbench"
mkdir -p "$work"
if unshare --mount --propagation private true 2>/dev/null; then
    exec unshare --mount --propagation private bash "$0" --in-namespace "$bin" "$@"
fi
exec "$bin" --storage disk "$@"

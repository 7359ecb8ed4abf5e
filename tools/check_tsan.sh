#!/usr/bin/env bash
# ThreadSanitizer leg over the worker pool and the obs registry.
#
# The targeted binaries are pathweaver-util's unit tests (worker pool
# internals), pathweaver-obs's unit tests (tri-state flags, registry
# interning), and the root concurrency_stress integration tests, which were
# written as the TSan workload: pool work racing flag toggles, snapshots
# racing recording, concurrent metric registration.
#
# -Z sanitizer is nightly-only; like check_miri.sh this degrades to
# skip-with-notice when no nightly toolchain is installed, so the leg is
# advisory where the toolchain is missing and blocking where it exists. A
# skip also prints a GitHub Actions `::warning` annotation so it shows in
# the run summary.

set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "check_tsan: SKIPPED — no nightly toolchain available" >&2
    echo "::warning title=TSan leg skipped::no nightly toolchain available; the pool and obs registry were not checked under ThreadSanitizer"
    echo "check_tsan: install with 'rustup toolchain install nightly' to enable" >&2
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"
if ! rustup +nightly component list 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "check_tsan: SKIPPED — nightly rust-src component missing (needed for -Zbuild-std)" >&2
    echo "::warning title=TSan leg skipped::nightly rust-src component missing (needed for -Zbuild-std); ThreadSanitizer did not run"
    exit 0
fi

export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-Zsanitizer=thread"
# TSan must see the standard library's own synchronization, so std is
# rebuilt instrumented.
export PATHWEAVER_THREADS="${PATHWEAVER_THREADS:-4}"

cargo +nightly test -Zbuild-std --target "$host" \
    -p pathweaver-util -p pathweaver-obs \
    -p pathweaver --test concurrency_stress
echo "check_tsan: pool + obs clean under ThreadSanitizer"

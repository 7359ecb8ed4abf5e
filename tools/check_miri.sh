#!/usr/bin/env bash
# Miri leg: interpret the unsafe-heavy crates' unit tests under Miri.
#
# pwlint's U-rules prove the unsafe sites are *documented*; Miri checks the
# arguments are *true* (no UB in the pool's lifetime-erased job pointers or
# the aligned matrix storage). SIMD intrinsics cannot run under Miri, so the
# run forces scalar dispatch and the kernels' `cfg(miri)` guards skip
# feature detection.
#
# Degrades to skip-with-notice when a nightly toolchain with Miri is not
# installed (the offline CI image may not carry one): exits 0 after printing
# the notice, so the leg is advisory where Miri is unavailable and blocking
# where it is. The notice is also a GitHub Actions `::warning` annotation,
# so a skipped leg shows in the run summary instead of passing silently.

set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "check_miri: SKIPPED — no nightly toolchain with Miri available" >&2
    echo "::warning title=Miri leg skipped::no nightly toolchain with Miri available; unsafe code was not checked under Miri"
    echo "check_miri: install with 'rustup +nightly component add miri' to enable" >&2
    exit 0
fi

export PATHWEAVER_SIMD=scalar
export MIRIFLAGS="${MIRIFLAGS:---disable-isolation}"

cargo +nightly miri test -p pathweaver-util -p pathweaver-vector
echo "check_miri: pathweaver-util + pathweaver-vector clean under Miri"

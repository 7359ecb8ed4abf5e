#!/usr/bin/env bash
# Dependency allowlist check (cargo-deny substitute).
#
# The build environment has no crates.io access: every external dependency is
# a vendored offline shim under vendor/, wired through workspace path
# dependencies. This script fails CI when either
#
#   1. a package outside the approved external set (or the first-party
#      pathweaver crates) appears in Cargo.lock, or
#   2. any package resolves to a remote registry instead of a local path
#      (a `source = ...` entry in Cargo.lock).
#
# Keeping the check lockfile-based means it needs no network and no extra
# tooling — `bash` and `grep` only.

set -euo pipefail
cd "$(dirname "$0")/.."

LOCKFILE=Cargo.lock
if [[ ! -f "$LOCKFILE" ]]; then
    echo "error: $LOCKFILE missing — run 'cargo generate-lockfile' and commit it" >&2
    exit 1
fi

# Approved external dependencies (ISSUE/ROADMAP policy). serde_derive is the
# proc-macro half of the vendored serde shim, not an additional dependency.
ALLOWED="rand proptest crossbeam parking_lot bytes serde serde_json serde_derive"

status=0

while IFS= read -r name; do
    case "$name" in
        pathweaver|pathweaver-*) continue ;;
    esac
    ok=0
    for a in $ALLOWED; do
        if [[ "$name" == "$a" ]]; then
            ok=1
            break
        fi
    done
    if [[ "$ok" == 0 ]]; then
        echo "error: dependency '$name' is not in the approved list" >&2
        status=1
    fi
done < <(grep '^name = ' "$LOCKFILE" | sed 's/^name = "\(.*\)"$/\1/')

if grep -q '^source = ' "$LOCKFILE"; then
    echo "error: Cargo.lock resolves packages from a remote source; all" >&2
    echo "       dependencies must be local path crates (vendor/ shims)" >&2
    grep -B2 '^source = ' "$LOCKFILE" >&2
    status=1
fi

if [[ "$status" == 0 ]]; then
    echo "check_deps: all $(grep -c '^name = ' "$LOCKFILE") packages within policy"
fi
exit "$status"

#!/bin/sh
# lint.sh — the full static-analysis gate, runnable locally and in CI.
#
# Four layers, strictest first:
#
#   1. sgmrlint   — the project's own invariant analyzers (detenc,
#                   ctxhygiene, failcover, hotalloc; see internal/lint),
#                   run over the whole module in one process so the
#                   cross-package facts flow from each package to its
#                   dependents. Always runs: it needs only the go
#                   toolchain.
#   2. escape gate — `sgmrlint -escapes`: rebuild with -gcflags=-m and
#                   fail on any heap escape the compiler proves inside a
#                   //lint:hotpath function. Always runs.
#   3. staticcheck — general Go correctness/style. Runs when installed
#                   (CI pins the version; see .github/workflows/ci.yml).
#   4. govulncheck — known-vulnerability scan over the call graph. Runs
#                   when installed; requires network for the vuln DB.
#
# The optional tools are gated on `command -v` rather than installed here:
# this repo builds offline by design, so the script never fetches anything.
#
#   ./scripts/lint.sh                 # everything available
#   SGMRLINT_ONLY=1 ./scripts/lint.sh # just the project analyzers
set -eu
cd "$(dirname "$0")/.."

echo "== sgmrlint (project invariant analyzers) =="
go build -o /tmp/sgmrlint ./cmd/sgmrlint
/tmp/sgmrlint ./...
echo "ok"

echo "== sgmrlint -escapes (hotpath escape gate, -gcflags=-m) =="
/tmp/sgmrlint -escapes ./...
echo "ok"

if [ -n "${SGMRLINT_ONLY:-}" ]; then
    exit 0
fi

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
    echo "ok"
else
    echo "skipped: staticcheck not installed (CI runs it pinned; go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
    echo "ok"
else
    echo "skipped: govulncheck not installed (CI runs it pinned; go install golang.org/x/vuln/cmd/govulncheck@v1.1.4)"
fi

#!/usr/bin/env bash
# Tier-1 under a wall budget: runs `go test -json ./...`, prints the output of
# every failed test, each package's elapsed time and the ten slowest tests,
# and exits non-zero when a test failed or a package took more than 300 s,
# half of go test's 600 s default package timeout. Needs jq; exits 2 when jq
# is missing or cannot read the log, so a gate that cannot run never passes.
#
#   scripts/test-budget.sh                    # what CI's test job runs
#   GOFLAGS=-count=1 scripts/test-budget.sh   # bypass the test cache
set -uo pipefail

budget=300
command -v jq > /dev/null || { echo "test-budget: jq not found" >&2; exit 2; }
log=$(mktemp)
trap 'rm -f "$log"' EXIT

status=0
go test -json ./... > "$log" || status=$?

jq -js '
  [.[] | select(.Action == "fail") | [.Package, .Test]] as $failed
  | .[] | select(.Action == "output" or .Action == "build-output")
  | select([.Package, .Test] as $k | any($failed[]; . == $k)) | .Output' "$log" || exit 2

echo "seconds per package:"
jq -rs '
  map(select(.Test == null and (.Action == "pass" or .Action == "fail")))
  | sort_by(-.Elapsed) | .[] | "\(.Elapsed)\t\(.Action)\t\(.Package)"' "$log" || exit 2

echo "ten slowest tests:"
jq -rs '
  map(select(.Test != null and (.Test | contains("/") | not) and (.Action == "pass" or .Action == "fail")))
  | sort_by(-.Elapsed) | .[:10][] | "\(.Elapsed)\t\(.Package) \(.Test)"' "$log" || exit 2

over=$(jq -rs --argjson budget "$budget" '
  map(select(.Test == null and (.Elapsed // 0) > $budget))
  | .[] | "\(.Package) took \(.Elapsed) s, over the \($budget) s budget"' "$log") || exit 2
if [ -n "$over" ]; then
  echo "$over" >&2
  exit 1
fi
exit "$status"

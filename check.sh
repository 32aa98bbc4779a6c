#!/bin/sh
# check.sh runs the exact static gate CI enforces (the "static" job in
# .github/workflows/ci.yml), so contributors can verify locally with
# one command:
#
#	./check.sh
#
# It fails on unformatted files, go vet findings, failing lsdlint or
# lsdschema self-tests, lsdlint findings in the Go tree, lsdschema
# findings in the domain schemas and constraint sets, a suppression
# inventory that drifted from the lint/suppressions.txt baseline, a
# bench-smoke allocation regression, a serve-smoke p99 latency
# regression, or a broken train → save → serve → match path (the
# lsdserve smoke at the end).
set -e
cd "$(dirname "$0")"

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

# The linters' own tests run before the tree-wide lint: a broken
# analyzer or driver must fail loudly here, not pass vacuously by
# reporting nothing. This includes the golden-file tests of every
# analyzer (internal/analysis/testdata) and the -checks/-timing/-budget
# driver tests.
go test ./internal/analysis/... ./cmd/lsdlint/... ./internal/schemacheck/... ./cmd/lsdschema/...

# Tree-wide lint with per-analyzer timing and a wall-clock budget: the
# whole-program analyzers (statecodec, snapshotonce, boundedread,
# hotalloc) walk the full call graph, so their cost stays visible here
# and the run fails outright if it outgrows the budget.
go run ./cmd/lsdlint -timing -budget 120s ./...

# lsdschema with no arguments checks every built-in datagen domain:
# mediated schemas, constraint sets, and synthesized source schemas.
go run ./cmd/lsdschema

# Suppression baseline: the tree's lint:ignore inventory must match
# lint/suppressions.txt exactly. Adding or removing a justified
# suppression is fine — but only as a reviewed change to the committed
# baseline (see lint/README.md), so suppression debt cannot drift in
# silently.
supfile="$(mktemp)"
go run ./cmd/lsdlint -suppressions ./... > "$supfile" 2>/dev/null
go run ./cmd/lsdschema -suppressions >> "$supfile" 2>/dev/null
if ! diff -u --label "committed baseline (lint/suppressions.txt)" \
	--label "live tree inventory" lint/suppressions.txt "$supfile"; then
	rm -f "$supfile"
	cat >&2 <<'EOM'

check.sh: the tree's lint:ignore inventory drifted from the committed
baseline. In the diff above, '-' lines are suppressions the baseline
expects but the tree no longer carries (delete them from the baseline),
and '+' lines are suppressions in the tree that have not been reviewed
into the baseline. If the drift is intentional, regenerate the baseline
and commit it with the change that caused it:

    go run ./cmd/lsdlint -suppressions ./... > lint/suppressions.txt
    go run ./cmd/lsdschema -suppressions >> lint/suppressions.txt

then re-run ./check.sh. Suppression policy: lint/README.md.
EOM
	exit 1
fi
rm -f "$supfile"

# bench-smoke: re-measure the micro-benchmarks and fail on an allocs/op
# regression beyond tolerance against the latest committed
# bench/BENCH_*.json baseline. The gated ops are the three base-learner
# predicts, the constraint handler on each domain (ConstraintRun/*)
# and the request-body XML parse (ParseListings/RealEstateI and
# ParseListings/RealEstateII). Catches accidental reintroduction of
# per-call allocation on the hot paths without requiring a full bench
# run.
go run ./cmd/lsdbench -exp micro -smoke bench

# serve-smoke: re-measure the HTTP serving benchmark and fail on a p99
# latency regression beyond tolerance (>25% plus slack) against the
# latest committed serving baseline in bench/BENCH_*.json. Catches
# request-path slowdowns the allocation gate cannot see.
go run ./cmd/lsdbench -exp serve -smoke bench

# lsdserve smoke: the full model-persistence path, end to end. Generate
# a tiny domain, train and save a model artifact with cmd/lsd, serve it
# with cmd/lsdserve, and ask for one match over HTTP. Fails if any step
# breaks — including the artifact wire format drifting out of sync
# between writer (lsd -save) and reader (lsdserve).
smokedir="$(mktemp -d)"
servepid=""
cleanup() {
	[ -n "$servepid" ] && kill "$servepid" 2>/dev/null
	rm -rf "$smokedir"
}
trap cleanup EXIT

go run ./cmd/lsdgen -out "$smokedir/data" -domain "Real Estate I" -listings 10 >/dev/null
base="$smokedir/data/real-estate-i/realestatei-src"
mkdir "$smokedir/models"
go run ./cmd/lsd -mediated "$smokedir/data/real-estate-i/mediated.dtd" \
	-train "${base}1,${base}2,${base}3" \
	-save "$smokedir/models/realestate.lsdm" >/dev/null

go build -o "$smokedir/lsdserve" ./cmd/lsdserve
"$smokedir/lsdserve" -addr 127.0.0.1:0 -models "$smokedir/models" \
	-ready-fd "$smokedir/ready" >/dev/null &
servepid=$!
i=0
while [ ! -s "$smokedir/ready" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "lsdserve smoke: server never became ready" >&2
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$smokedir/ready")"

# JSON-encode the target source's DTD and XML (escape backslash, quote,
# tab; fold newlines) into a one-shot match request.
json_escape() {
	sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' "$1" | awk '{printf "%s\\n", $0}'
}
{
	printf '{"model":"realestate","dtd":"%s",' "$(json_escape "${base}4.dtd")"
	printf '"xml":"%s","omit_predictions":true}' "$(json_escape "${base}4.xml")"
} > "$smokedir/req.json"

response="$(curl -sf --data-binary @"$smokedir/req.json" "http://$addr/v1/match")"
case "$response" in
*'"mapping"'*) ;;
*)
	echo "lsdserve smoke: match response has no mapping: $response" >&2
	exit 1
	;;
esac
kill "$servepid"
wait "$servepid" 2>/dev/null || true
servepid=""
echo "lsdserve smoke: train -> save -> serve -> match OK"

echo "check.sh: all static checks passed"

#!/bin/sh
# End-to-end observability smoke: build CI and LM containers with privsp
# build -out, serve them from a real privspd with -admin, run remote
# queries through the privsp CLI while the daemon is live, scrape
# /metrics mid-run, and fail if the exported metric families diverge from
# docs/metrics.catalog in either direction — an undocumented metric and a
# silently dropped one are both regressions. Finishes with a SIGTERM the
# daemon must answer with a graceful shutdown and exit status 0.
#
#   ./bench/metrics_smoke.sh
set -eu
# pipefail so a daemon crash mid-pipe ("$bin" ... | tee) can't be masked by
# a succeeding tail stage; guarded because not every /bin/sh has it.
if (set -o pipefail) 2>/dev/null; then
	set -o pipefail
fi
cd "$(dirname "$0")/.."

port=$((21000 + $$ % 9000))
aport=$((port + 1))
bin=$(mktemp -t privspd.XXXXXX)
qbin=$(mktemp -t privsp.XXXXXX)
cidb=$(mktemp -t ci.psdb.XXXXXX)
lmdb=$(mktemp -t lm.psdb.XXXXXX)
dlog=$(mktemp -t privspd.log.XXXXXX)
scrape=$(mktemp -t scrape.XXXXXX)
exported=$(mktemp -t exported.XXXXXX)
cataloged=$(mktemp -t cataloged.XXXXXX)
pid=""
cleanup() {
	if [ -n "$pid" ]; then
		kill "$pid" 2>/dev/null || true
		# Reap before deleting the binary: an unreaped daemon could still
		# be writing its log, and a killed-but-running one would leak past
		# the script's exit.
		wait "$pid" 2>/dev/null || true
		pid=""
	fi
	rm -f "$bin" "$qbin" "$cidb" "$lmdb" "$dlog" "$scrape" "$exported" "$cataloged"
}
trap cleanup EXIT
trap 'cleanup; trap - INT; kill -INT $$' INT
trap 'cleanup; trap - TERM; kill -TERM $$' TERM

go build -o "$bin" ./cmd/privspd
go build -o "$qbin" ./cmd/privsp
"$qbin" build -preset Oldenburg -scale 0.05 -seed 1 -scheme CI -out "$cidb"
"$qbin" build -preset Oldenburg -scale 0.05 -seed 1 -scheme LM -out "$lmdb"

"$bin" -db "$cidb,$lmdb" \
	-listen "127.0.0.1:$port" -admin "127.0.0.1:$aport" >"$dlog" 2>&1 &
pid=$!

ready=0
for _ in $(seq 1 100); do
	if curl -fsS "http://127.0.0.1:$aport/healthz" >/dev/null 2>&1; then
		ready=1
		break
	fi
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "metrics-smoke: daemon exited during startup:" >&2
		cat "$dlog" >&2
		exit 1
	fi
	sleep 0.2
done
if [ "$ready" != "1" ]; then
	echo "metrics-smoke: /healthz never came up" >&2
	cat "$dlog" >&2
	exit 1
fi

# Queries over the real wire protocol, daemon live the whole time.
"$qbin" query -remote "127.0.0.1:$port" -db CI \
	-preset Oldenburg -scale 0.05 -seed 1 -s 0 -t 42
"$qbin" query -remote "127.0.0.1:$port" -db LM \
	-preset Oldenburg -scale 0.05 -seed 1 -s 3 -t 7

curl -fsS "http://127.0.0.1:$aport/metrics" >"$scrape"

# The exported families must match the checked-in catalog exactly.
awk '$1 == "#" && $2 == "TYPE" { print $3, $4 }' "$scrape" | sort >"$exported"
awk '!/^(#|$)/ && ($3 == "" || $3 == "daemon") { print $1, $2 }' \
	docs/metrics.catalog | sort >"$cataloged"
if ! diff -u "$cataloged" "$exported"; then
	echo "metrics-smoke: exported families diverge from docs/metrics.catalog (see diff above)" >&2
	exit 1
fi

# The load must actually have been counted.
for series in \
	'privsp_server_queries_total{db="CI"} 1' \
	'privsp_server_queries_total{db="LM"} 1' \
	'privsp_server_connections_total 2'; do
	if ! grep -Fq "$series" "$scrape"; then
		echo "metrics-smoke: expected series '$series' in scrape:" >&2
		grep -F "${series%% *}" "$scrape" >&2 || true
		exit 1
	fi
done

# The scrape taken before shutdown counted the CI query.
val=$(awk '$1 == "privsp_server_queries_total{db=\"CI\"}" { print $2 }' "$scrape")
if [ -z "$val" ] || [ "$val" -lt 1 ]; then
	echo "metrics-smoke: privsp_server_queries_total{db=\"CI\"} = '${val:-missing}', want >= 1" >&2
	exit 1
fi

# SIGTERM is a graceful shutdown: the daemon logs it and exits 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" != 0 ] || ! grep -q 'shutting down' "$dlog"; then
	echo "metrics-smoke: SIGTERM ended the daemon with status $status, want 0 after a 'shutting down' line:" >&2
	cat "$dlog" >&2
	exit 1
fi
echo "metrics-smoke: ok (catalog consistent, queries counted, graceful shutdown)"

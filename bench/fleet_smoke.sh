#!/bin/sh
# End-to-end fleet leakage smoke: build one CI container, serve the
# identical bytes from two real privspd processes in -replica-role (each
# answers only XOR PIR selector shares and never reconstructs a page), run
# CLI queries through `privsp query -fleet` so every read is split across
# the two daemons, then check the two-server privacy claims from the
# outside:
#
#   1. The adversarial trace the CLI prints (either replica's whole view)
#      is byte-identical across queries with different endpoints.
#   2. Both replicas' /metrics query-path counters — queries, rounds,
#      share fetches, scans, pages scanned — are byte-identical: each
#      server did exactly the same amount of work and neither scrape
#      reveals which pages the fan-out reconstructed. (Timing histograms
#      and connection byte counters are excluded: they differ by wall
#      clock and health-probe timing, not by access pattern.)
#   3. A one-replica fleet is refused ("at least 2"): there is no
#      single-server fallback.
#   4. With replica B stopped, a query over the fleet fails with a
#      replica-down error naming B, and replica A answers no share of it:
#      both shares on one server would give it the page index.
#
#   ./bench/fleet_smoke.sh
set -eu
if (set -o pipefail) 2>/dev/null; then
	set -o pipefail
fi
cd "$(dirname "$0")/.."

porta=$((24000 + $$ % 8000))
admina=$((porta + 1))
portb=$((porta + 2))
adminb=$((porta + 3))
bin=$(mktemp -t privspd.XXXXXX)
qbin=$(mktemp -t privsp.XXXXXX)
container=$(mktemp -t ci.psdb.XXXXXX)
dloga=$(mktemp -t replica-a.log.XXXXXX)
dlogb=$(mktemp -t replica-b.log.XXXXXX)
out1=$(mktemp -t query1.XXXXXX)
out2=$(mktemp -t query2.XXXXXX)
out3=$(mktemp -t query3.XXXXXX)
out4=$(mktemp -t query4.XXXXXX)
counta=$(mktemp -t counters-a.XXXXXX)
countb=$(mktemp -t counters-b.XXXXXX)
pida=""
pidb=""
cleanup() {
	for pid in $pida $pidb; do
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
	pida=""
	pidb=""
	rm -f "$bin" "$qbin" "$container" "$dloga" "$dlogb" "$out1" "$out2" "$out3" "$out4" "$counta" "$countb"
}
trap cleanup EXIT
trap 'cleanup; trap - INT; kill -INT $$' INT
trap 'cleanup; trap - TERM; kill -TERM $$' TERM

go build -o "$bin" ./cmd/privspd
go build -o "$qbin" ./cmd/privsp
"$qbin" build -preset Oldenburg -scale 0.05 -scheme CI -seed 1 -out "$container"

"$bin" -db "$container" -pir xorpir -replica-role \
	-listen "127.0.0.1:$porta" -admin "127.0.0.1:$admina" >"$dloga" 2>&1 &
pida=$!
"$bin" -db "$container" -pir xorpir -replica-role \
	-listen "127.0.0.1:$portb" -admin "127.0.0.1:$adminb" >"$dlogb" 2>&1 &
pidb=$!

for admin in "$admina" "$adminb"; do
	ready=0
	for _ in $(seq 1 100); do
		if curl -fsS "http://127.0.0.1:$admin/healthz" >/dev/null 2>&1; then
			ready=1
			break
		fi
		sleep 0.2
	done
	if [ "$ready" != "1" ]; then
		echo "fleet-smoke: replica admin :$admin never came up" >&2
		cat "$dloga" "$dlogb" >&2
		exit 1
	fi
done

fleet="127.0.0.1:$porta,127.0.0.1:$portb"
"$qbin" query -fleet "$fleet" \
	-preset Oldenburg -scale 0.05 -s 0 -t 42 | tee "$out1"
"$qbin" query -fleet "$fleet" \
	-preset Oldenburg -scale 0.05 -s 3 -t 7 | tee "$out2"

# Both runs must have split every read into selector shares across the two
# replicas, and both must have found a path.
for f in "$out1" "$out2"; do
	if ! grep -q "shares fan-out" "$f"; then
		echo "fleet-smoke: query did not resolve to shares fan-out:" >&2
		cat "$f" >&2
		exit 1
	fi
	if ! grep -q "^cost " "$f"; then
		echo "fleet-smoke: query found no path:" >&2
		cat "$f" >&2
		exit 1
	fi
done

# Claim 1: the printed adversarial view is byte-identical across queries
# with different endpoints. Everything from the trace banner on IS the
# view; strip the lines above it (cost and simulated-time lines are the
# client's own results, legitimately query-dependent).
trace1=$(sed -n '/per-replica trace/,$p' "$out1")
trace2=$(sed -n '/per-replica trace/,$p' "$out2")
if [ -z "$trace1" ]; then
	echo "fleet-smoke: no per-replica trace in query output" >&2
	exit 1
fi
if [ "$trace1" != "$trace2" ]; then
	echo "fleet-smoke: adversarial view changed across endpoints:" >&2
	printf '%s\n---\n%s\n' "$trace1" "$trace2" >&2
	exit 1
fi

# Claim 2: the replicas' query-path counter deltas are byte-identical.
# Daemons start at zero (eager registration), so the scrape IS the delta.
counters() {
	curl -fsS "http://127.0.0.1:$1/metrics" | awk '
		$1 ~ /^privsp_(server_(queries|rounds|share_fetches|pages_served)_total|pir_(scans|pages_scanned)_total)/ \
			{ print $1, $2 }' | sort
}
counters "$admina" >"$counta"
counters "$adminb" >"$countb"
if ! diff -u "$counta" "$countb"; then
	echo "fleet-smoke: replica counter deltas diverge (see diff above) — the two servers did different work" >&2
	exit 1
fi
if ! grep -q 'privsp_server_share_fetches_total{db="CI"} [1-9]' "$counta"; then
	echo "fleet-smoke: no share fetches counted on replica A:" >&2
	cat "$counta" >&2
	exit 1
fi

# Claim 3: one address is not a fleet. The dial refuses it before touching
# the network, so the replicas' counters above are unaffected.
if "$qbin" query -fleet "127.0.0.1:$porta" \
	-preset Oldenburg -scale 0.05 -s 0 -t 42 >"$out3" 2>&1; then
	echo "fleet-smoke: a one-replica fleet query succeeded; want a refusal:" >&2
	cat "$out3" >&2
	exit 1
fi
if ! grep -q "at least 2" "$out3"; then
	echo "fleet-smoke: one-replica fleet failed for the wrong reason:" >&2
	cat "$out3" >&2
	exit 1
fi

# Claim 4: a fleet with one of two replicas down refuses the query, and
# the survivor sees none of it. A fresh CLI process finds B dead at dial
# time; a long-lived fleet that loses B refuses at query start
# (internal/fleet's TestFailover). Either way A's share-fetch counter must
# not move.
sharesa() {
	counters "$admina" | awk '$1 == "privsp_server_share_fetches_total{db=\"CI\"}" { print $2 }'
}
before=$(sharesa)
kill "$pidb"
wait "$pidb" 2>/dev/null || true
pidb=""
if "$qbin" query -fleet "$fleet" \
	-preset Oldenburg -scale 0.05 -s 0 -t 42 >"$out4" 2>&1; then
	echo "fleet-smoke: a query with replica B down succeeded; want a refusal:" >&2
	cat "$out4" >&2
	exit 1
fi
if ! grep -q "replica 127.0.0.1:$portb down" "$out4"; then
	echo "fleet-smoke: query with replica B down failed for the wrong reason:" >&2
	cat "$out4" >&2
	exit 1
fi
after=$(sharesa)
if [ -z "$before" ] || [ "$before" != "$after" ]; then
	echo "fleet-smoke: replica A answered shares of a refused query (share fetches $before -> $after)" >&2
	exit 1
fi

kill "$pida"
wait "$pida" 2>/dev/null || true
pida=""
echo "fleet-smoke: ok (traces identical across endpoints, replica counter deltas byte-identical, one-replica fleet refused, query with a replica down refused unseen)"

#!/bin/sh
# Chaos smoke: a real privspd under fault injection AND overload at once —
# -chaos adds connection latency, torn frames and dropped dials, while
# -max-inflight 1 forces admission shedding under 8 concurrent query loops.
# The daemon must never crash or deadlock; shed queries surface as typed
# busy errors the client retries whole (fresh randomness); /readyz reads
# 503 while the budget is full and recovers to 200 as load drains; and the
# shed/busy counters prove both sides of the overload conversation ran.
#
#   ./bench/chaos_smoke.sh
set -eu
# pipefail so a daemon crash mid-pipe can't be masked by a succeeding tail
# stage; guarded because not every /bin/sh has it.
if (set -o pipefail) 2>/dev/null; then
	set -o pipefail
fi
cd "$(dirname "$0")/.."

port=$((22000 + $$ % 9000))
aport=$((port + 1))
bin=$(mktemp -t privspd.XXXXXX)
qbin=$(mktemp -t privsp.XXXXXX)
cidb=$(mktemp -t ci.psdb.XXXXXX)
dlog=$(mktemp -t privspd.log.XXXXXX)
scrape=$(mktemp -t scrape.XXXXXX)
okcount=$(mktemp -t okcount.XXXXXX)
notready=$(mktemp -t notready.XXXXXX)
pid=""
poller=""
cleanup() {
	if [ -n "$poller" ]; then
		kill "$poller" 2>/dev/null || true
		wait "$poller" 2>/dev/null || true
		poller=""
	fi
	if [ -n "$pid" ]; then
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
		pid=""
	fi
	rm -f "$bin" "$qbin" "$cidb" "$dlog" "$scrape" "$okcount" "$notready"
}
trap cleanup EXIT
trap 'cleanup; trap - INT; kill -INT $$' INT
trap 'cleanup; trap - TERM; kill -TERM $$' TERM

go build -o "$bin" ./cmd/privspd
go build -o "$qbin" ./cmd/privsp
"$qbin" build -preset Oldenburg -scale 0.05 -seed 1 -scheme CI -out "$cidb"

"$bin" -db "$cidb" \
	-listen "127.0.0.1:$port" -admin "127.0.0.1:$aport" \
	-max-inflight 1 -chaos 'latency=1ms,tear=9,dialfail=7,seed=7' \
	>"$dlog" 2>&1 &
pid=$!

ready=0
for _ in $(seq 1 100); do
	if curl -fsS "http://127.0.0.1:$aport/healthz" >/dev/null 2>&1; then
		ready=1
		break
	fi
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "chaos-smoke: daemon exited during startup:" >&2
		cat "$dlog" >&2
		exit 1
	fi
	sleep 0.2
done
if [ "$ready" != "1" ]; then
	echo "chaos-smoke: /healthz never came up" >&2
	cat "$dlog" >&2
	exit 1
fi

# Background readiness poller: record whether /readyz ever reads 503 while
# the query loops saturate the one-query admission budget.
(
	while :; do
		code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$aport/readyz" || true)
		if [ "$code" = "503" ]; then
			echo shedding >>"$notready"
		fi
		sleep 0.01
	done
) &
poller=$!

# 8 concurrent query loops against a budget of 1: most attempts get shed at
# least once, the client retries whole queries with fresh randomness, and
# under torn frames or dropped dials individual queries may still fail —
# the daemon must simply survive all of it.
: >"$okcount"
workers=""
i=0
while [ "$i" -lt 8 ]; do
	(
		j=0
		while [ "$j" -lt 3 ]; do
			if "$qbin" query -remote "127.0.0.1:$port" -db CI \
				-preset Oldenburg -scale 0.05 -seed 1 -s "$i" -t $((10 + i * 3 + j)) \
				>/dev/null 2>&1; then
				echo ok >>"$okcount"
			fi
			j=$((j + 1))
		done
	) &
	workers="$workers $!"
	i=$((i + 1))
done
for w in $workers; do
	wait "$w" || true
done

kill "$poller" 2>/dev/null || true
wait "$poller" 2>/dev/null || true
poller=""

if ! kill -0 "$pid" 2>/dev/null; then
	echo "chaos-smoke: daemon died under chaos load:" >&2
	cat "$dlog" >&2
	exit 1
fi

# Enough whole queries must have survived shedding plus injected faults.
ok=$(wc -l <"$okcount" | tr -d ' ')
if [ "$ok" -lt 8 ]; then
	echo "chaos-smoke: only $ok/24 queries succeeded under chaos" >&2
	cat "$dlog" >&2
	exit 1
fi

# Overload was observed: the readiness probe read 503 at least once while
# the budget was full...
if [ ! -s "$notready" ]; then
	echo "chaos-smoke: /readyz never read 503 under 8 loops against a budget of 1" >&2
	exit 1
fi
# ...and it recovers to 200 now that the load has drained.
drained=0
for _ in $(seq 1 50); do
	if curl -fsS "http://127.0.0.1:$aport/readyz" >/dev/null 2>&1; then
		drained=1
		break
	fi
	sleep 0.1
done
if [ "$drained" != "1" ]; then
	echo "chaos-smoke: /readyz stuck at 503 after the load drained" >&2
	exit 1
fi
if ! curl -fsS "http://127.0.0.1:$aport/healthz" >/dev/null 2>&1; then
	echo "chaos-smoke: /healthz failed after chaos load" >&2
	exit 1
fi

# Both sides of the overload conversation are counted: queries were shed,
# Busy frames reached clients, and the queries that got through completed.
curl -fsS "http://127.0.0.1:$aport/metrics" >"$scrape"
for family in privsp_shed_total privsp_busy_sent_total 'privsp_server_queries_total{db="CI"}'; do
	val=$(awk -v f="$family" '$1 == f { print $2 }' "$scrape")
	if [ -z "$val" ] || [ "$val" = "0" ]; then
		echo "chaos-smoke: $family = '${val:-missing}', want > 0" >&2
		grep -F "$family" "$scrape" >&2 || true
		exit 1
	fi
done

# Graceful shutdown still works after a chaos run: SIGTERM is logged and
# the daemon exits 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" != 0 ] || ! grep -q 'shutting down' "$dlog"; then
	echo "chaos-smoke: SIGTERM ended the daemon with status $status, want 0 after a 'shutting down' line:" >&2
	cat "$dlog" >&2
	exit 1
fi
echo "chaos-smoke: ok ($ok/24 queries through chaos, shed+busy counted, readyz 503->200)"

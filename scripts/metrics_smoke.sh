#!/bin/sh
# End-to-end /metrics smoke test (make metrics-smoke; non-gating in CI):
# synthesize a tiny workload, train with -metrics-out, start rrc-server
# with a 4-shard online layer, drive recommend + consume traffic, and
# validate both the training metrics file and a live /metrics scrape
# with rrc-inspect -expfmt — including the per-shard rrc_shard_*
# families and a sharded-root rrc-inspect -wal pass over the event log.
# A -follow standby tails the server throughout, so the scrape also
# shows what the replication stream's WAL reads cost per record shipped.
# An rrc-router in front of the server is scraped too: both processes
# must export the Go runtime's heap gauges (rrc_go_*).
set -eu

ADDR=${METRICS_SMOKE_ADDR:-127.0.0.1:18395}
FOLLOW_ADDR=${METRICS_SMOKE_FOLLOW_ADDR:-127.0.0.1:18396}
ROUTER_ADDR=${METRICS_SMOKE_ROUTER_ADDR:-127.0.0.1:18394}
tmp=$(mktemp -d)
server_pid=
follower_pid=
router_pid=
cleanup() {
	[ -n "$router_pid" ] && kill "$router_pid" 2>/dev/null || true
	[ -n "$follower_pid" ] && kill "$follower_pid" 2>/dev/null || true
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/bin/" ./cmd/rrc-datagen ./cmd/rrc-train ./cmd/rrc-server ./cmd/rrc-router ./cmd/rrc-inspect

# go_gauges FILE MIN_CYCLES: FILE exports the three rrc_go_* families;
# the heap goal is positive from the first instant, the live heap and the
# cycle count once MIN_CYCLES collections have run.
go_gauges() {
	for fam in rrc_go_heap_live_bytes rrc_go_heap_goal_bytes rrc_go_gc_cycles_total; do
		grep -q "^$fam " "$1" || {
			echo "$1 lacks $fam" >&2
			exit 1
		}
	done
	awk -v min="$2" '
		$1 == "rrc_go_heap_live_bytes" { live = $2 }
		$1 == "rrc_go_heap_goal_bytes" { goal = $2 }
		$1 == "rrc_go_gc_cycles_total" { cycles = $2 }
		END { exit !(goal > 0 && cycles >= min && (min == 0 || live > 0)) }' "$1" || {
		echo "$1: rrc_go_* gauges not positive:" >&2
		grep '^rrc_go_' "$1" >&2
		exit 1
	}
}

"$tmp/bin/rrc-datagen" -preset gowalla -users 40 -out "$tmp/data.tsv"
"$tmp/bin/rrc-train" -data "$tmp/data.tsv" -out "$tmp/model.tsppr" \
	-window 20 -omega 3 -steps 5000 -metrics-out "$tmp/train.prom"
"$tmp/bin/rrc-inspect" -expfmt "$tmp/train.prom"
grep -q '^rrc_train_checkpoints_total' "$tmp/train.prom" || {
	echo "train.prom lacks rrc_train_checkpoints_total" >&2
	exit 1
}

# The model file is the one authority for |W|: a -window that disagrees
# with it exits 2 by name before the server listens.
rc=0
timeout 10 "$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$ADDR" -window 50 \
	-events-dir "$tmp/window-events" 2>"$tmp/window.err" || rc=$?
if [ "$rc" != 2 ] || ! grep -qF '|W| = 20' "$tmp/window.err"; then
	echo "rrc-server -window 50 over a |W| = 20 model: exit $rc, want 2 naming |W| = 20" >&2
	cat "$tmp/window.err" >&2
	exit 1
fi

"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$ADDR" \
	-events-dir "$tmp/events" -shards 4 &
server_pid=$!
ok=
for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.2
done
[ -n "$ok" ] || { echo "server never became healthy" >&2; exit 1; }

"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$FOLLOW_ADDR" \
	-events-dir "$tmp/standby" -shards 4 -follow "http://$ADDR" &
follower_pid=$!

# History with repeats beyond the Ω=3 gap so the candidate set is
# non-empty and the engine families appear in the exposition.
curl -sf -X POST "http://$ADDR/recommend" \
	-d '{"user":0,"history":[0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6,7,8,9],"n":5}' \
	>/dev/null

# No flag told the server |W|: a request's omega is valid up to the
# model's |W| − 1 = 19, and 20 is refused.
for probe in 19:200 20:400; do
	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/recommend" \
		-d "{\"user\":0,\"history\":[0,1,2,3],\"omega\":${probe%:*}}")
	[ "$code" = "${probe#*:}" ] || {
		echo "/recommend with omega ${probe%:*}: $code, want ${probe#*:}" >&2
		exit 1
	}
done

# Online traffic across several users so more than one shard owns state.
for u in 0 1 2 3 4 5 6 7; do
	curl -sf -X POST "http://$ADDR/consume" -d "{\"user\":$u,\"item\":3}" >/dev/null
done

# Repeated /recommend/user reads for an unchanged user: the first fills
# the response cache, the second must be served from it, and a consume
# in between invalidates — so hits, misses, and invalidations all move.
curl -sf -X POST "http://$ADDR/recommend/user" -d '{"user":0,"n":5}' >/dev/null
curl -sf -X POST "http://$ADDR/recommend/user" -d '{"user":0,"n":5}' >/dev/null
curl -sf -X POST "http://$ADDR/consume" -d '{"user":0,"item":3}' >/dev/null
curl -sf -X POST "http://$ADDR/recommend/user" -d '{"user":0,"n":5}' >/dev/null

# 600 appends into one shard (users 2, 4 and 5 all live on shard 2; not
# user 0, whose cached read above must stay the single invalidation)
# take its segment nine index strides deep, then wait for the standby
# to have made all 609 of the run's events durable in its own WAL. A
# standby appends each stream response with one call, so its
# rrc_wal_append_seconds_count counts responses; the records it applied
# are the sum of rrc_replica_applied_total over its shards, which moves
# only once a response is durable.
i=0
while [ "$i" -lt 600 ]; do
	for u in 2 4 5; do
		curl -sf -X POST "http://$ADDR/consume" -d "{\"user\":$u,\"item\":$((i % 9))}" >/dev/null
		i=$((i + 1))
	done
done
ok=
for _ in $(seq 1 50); do
	if curl -sf "http://$FOLLOW_ADDR/metrics" |
		awk '$1 ~ /^rrc_replica_applied_total[{]/ { n += $2 } END { exit n != 609 }'; then
		ok=1
		break
	fi
	sleep 0.2
done
[ -n "$ok" ] || { echo "standby never applied all 609 streamed records" >&2; exit 1; }

curl -sf "http://$ADDR/metrics" >"$tmp/scrape.prom"
"$tmp/bin/rrc-inspect" -expfmt - <"$tmp/scrape.prom"

# What a server holds of the model is one gauge, set at every engine
# swap: present and positive on the primary and on the follower.
curl -sf "http://$FOLLOW_ADDR/metrics" >"$tmp/follower.prom"
for f in "$tmp/scrape.prom" "$tmp/follower.prom"; do
	awk '$1 == "rrc_model_resident_bytes" { v = $2 } END { exit !(v > 0) }' "$f" || {
		echo "$f: rrc_model_resident_bytes absent or not positive" >&2
		exit 1
	}
done

# The memory the process holds is visible from inside it: after 600+
# requests the server has collected at least once, so all three heap
# gauges are positive. The router has served a request or two and may not
# have collected yet; its heap goal is positive regardless.
go_gauges "$tmp/scrape.prom" 1
"$tmp/bin/rrc-router" -addr "$ROUTER_ADDR" -nodes "http://$ADDR" &
router_pid=$!
ok=
for _ in $(seq 1 50); do
	if curl -sf -X POST "http://$ROUTER_ADDR/recommend/user" -d '{"user":1,"n":5}' >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.2
done
[ -n "$ok" ] || { echo "router never served a routed read" >&2; exit 1; }
curl -sf "http://$ROUTER_ADDR/metrics" >"$tmp/router.prom"
"$tmp/bin/rrc-inspect" -expfmt - <"$tmp/router.prom"
go_gauges "$tmp/router.prom" 0
kill "$router_pid" 2>/dev/null || true
wait "$router_pid" 2>/dev/null || true
router_pid=

# Replication reads cost what they deliver: each stream poll resumes at
# the byte where the last read stopped, so per record shipped the stream
# framed fewer than 2 records. Re-entering at the WAL index entry below
# the resume point averaged about 30 here; re-scanning the segment from
# byte 0, about 300.
scanned=$(sed -n 's/^rrc_wal_read_scanned_records_total //p' "$tmp/scrape.prom")
delivered=$(sed -n 's/^rrc_wal_read_delivered_records_total //p' "$tmp/scrape.prom")
[ "${delivered:-0}" -ge 609 ] || {
	echo "rrc_wal_read_delivered_records_total = ${delivered:-absent}, want >= 609" >&2
	exit 1
}
[ "$scanned" -lt $((delivered * 2)) ] || {
	echo "stream reads scanned $scanned records to deliver $delivered: 2 or more each" >&2
	exit 1
}
for fam in rrc_shard_snapshot_lock_seconds_count rrc_shard_snapshot_write_seconds_count; do
	grep -q "^$fam" "$tmp/scrape.prom" || {
		echo "/metrics lacks $fam" >&2
		exit 1
	}
done
for fam in rrc_http_requests_total rrc_http_request_seconds_count \
	rrc_engine_recommend_seconds_count rrc_items_recommended_total; do
	grep -q "^$fam" "$tmp/scrape.prom" || {
		echo "/metrics lacks $fam" >&2
		exit 1
	}
done

# Every shard exports its lifecycle families; all four must be serving
# (state 2) with zero restarts and breaker trips after clean traffic.
for i in 0 1 2 3; do
	grep -q "^rrc_shard_state{shard=\"$i\"} 2$" "$tmp/scrape.prom" || {
		echo "/metrics lacks rrc_shard_state{shard=\"$i\"} 2" >&2
		exit 1
	}
	grep -q "^rrc_shard_restarts_total{shard=\"$i\"} 0$" "$tmp/scrape.prom" || {
		echo "/metrics lacks rrc_shard_restarts_total{shard=\"$i\"} 0" >&2
		exit 1
	}
	grep -q "^rrc_shard_breaker_trips_total{shard=\"$i\"} 0$" "$tmp/scrape.prom" || {
		echo "/metrics lacks rrc_shard_breaker_trips_total{shard=\"$i\"} 0" >&2
		exit 1
	}
done
grep -q '^rrc_online_sessions 8$' "$tmp/scrape.prom" || {
	echo "/metrics lacks rrc_online_sessions 8" >&2
	exit 1
}

# The windows live outside the Go heap, where rrc_go_heap_* cannot see
# them: the slab gauge holds at least |W| = 20 item ids of 4 B for each
# session, on the primary and on the follower that applied them.
for f in "$tmp/scrape.prom" "$tmp/follower.prom"; do
	awk '$1 == "rrc_online_sessions" { n = $2 } $1 == "rrc_sessions_slab_bytes" { b = $2 }
		END { exit !(n > 0 && b >= n * 20 * 4) }' "$f" || {
		echo "$f: rrc_sessions_slab_bytes under sessions x |W| x 4 B:" >&2
		grep -E '^rrc_(online_sessions|sessions_slab_bytes) ' "$f" >&2
		exit 1
	}
done

# Response-cache families: the repeat read above must have hit, the
# first read missed, and the interleaved consume invalidated.
grep -q '^rrc_rescache_hits_total 1$' "$tmp/scrape.prom" || {
	echo "/metrics lacks rrc_rescache_hits_total 1" >&2
	exit 1
}
grep -q '^rrc_rescache_misses_total 2$' "$tmp/scrape.prom" || {
	echo "/metrics lacks rrc_rescache_misses_total 2" >&2
	exit 1
}
grep -q '^rrc_rescache_invalidations_total 1$' "$tmp/scrape.prom" || {
	echo "/metrics lacks rrc_rescache_invalidations_total 1" >&2
	exit 1
}
grep -q '^rrc_rescache_entries ' "$tmp/scrape.prom" || {
	echo "/metrics lacks rrc_rescache_entries" >&2
	exit 1
}

# Shut both down cleanly and verify the sharded WAL root.
kill "$follower_pid" 2>/dev/null || true
wait "$follower_pid" 2>/dev/null || true
follower_pid=
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=
"$tmp/bin/rrc-inspect" -wal "$tmp/events" | grep -q 'sharded root: shards=4 unhealthy=0' || {
	echo "rrc-inspect -wal did not report a healthy 4-shard root" >&2
	exit 1
}
echo "metrics smoke: OK (stream reads scanned $scanned WAL records to deliver $delivered)"

#!/bin/sh
# End-to-end partitioned-fleet smoke test (make replica-smoke;
# non-gating in CI): five processes over real sockets — two replicated
# pairs each owning one partition of the user-key space (-partition 0/2
# and 1/2), and rrc-router in front with a partitioned topology file.
# All traffic flows through the router, bucketed per partition with
# rrc-inspect -owner. Half-way through the soak partition 0's primary
# is SIGKILLed; the router must promote THAT pair's standby itself
# (-auto-promote) and keep serving, and each partition is held to its
# own client error budget: the victim partition tolerates the probe
# rounds between kill and promotion (< 1 error per 5 requests), while
# the untouched partition must stay near-error-free (< 1 per 20) — one
# pair's outage is not allowed to shed the other pair's keys. Before
# the kill, replication lag is asserted back to 0 on both standbys so
# the takeover provably loses nothing. After the soak the router's
# rrc_router_* families are scraped (zero misdirects — the topology and
# every node's -partition agree) and rrc-inspect audits the victim
# pair's roots offline (-epoch, -diverge), plus the topology file
# itself (-topology).
set -eu

PRIMARY0=${REPLICA_SMOKE_PRIMARY:-127.0.0.1:18397}
STANDBY0=${REPLICA_SMOKE_STANDBY:-127.0.0.1:18398}
ROUTER=${REPLICA_SMOKE_ROUTER:-127.0.0.1:18399}
PRIMARY1=${REPLICA_SMOKE_PRIMARY1:-127.0.0.1:18400}
STANDBY1=${REPLICA_SMOKE_STANDBY1:-127.0.0.1:18401}
SOAK_SECS=${REPLICA_SMOKE_SOAK:-30}
tmp=$(mktemp -d)
primary0_pid=
standby0_pid=
primary1_pid=
standby1_pid=
router_pid=
cleanup() {
	for pid in "$primary0_pid" "$standby0_pid" "$primary1_pid" "$standby1_pid" "$router_pid"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/bin/" ./cmd/rrc-datagen ./cmd/rrc-train ./cmd/rrc-server \
	./cmd/rrc-router ./cmd/rrc-inspect

# Removed surface fails loudly: a flag that no longer exists is refused
# by the flag package (exit 2), never silently ignored.
refused() {
	rc=0
	"$@" >/dev/null 2>"$tmp/refused.err" || rc=$?
	if [ "$rc" != 2 ] || ! grep -q 'flag provided but not defined' "$tmp/refused.err"; then
		echo "$*: exit $rc, want the flag package's exit 2" >&2
		exit 1
	fi
}
refused "$tmp/bin/rrc-router" -hedge-delay 1ms
refused "$tmp/bin/rrc-router" -max-lag 10
refused "$tmp/bin/rrc-server" -auto-promote
refused "$tmp/bin/rrc-inspect" -replan x -to 3

"$tmp/bin/rrc-datagen" -preset gowalla -users 40 -out "$tmp/data.tsv"
"$tmp/bin/rrc-train" -data "$tmp/data.tsv" -out "$tmp/model.tsppr" \
	-window 20 -omega 3 -steps 5000

# The partitioned topology file, validated offline before any process
# sees it — a bad file must die here, not at the router's next reload.
cat >"$tmp/topology" <<EOF
partitions 2
partition 0 http://$PRIMARY0 http://$STANDBY0
partition 1 http://$PRIMARY1 http://$STANDBY1
EOF
"$tmp/bin/rrc-inspect" -topology "$tmp/topology"

# Bucket the soak's users by owning partition with the same hash the
# router and the servers use.
U0=""
U1=""
for u in $(seq 0 19); do
	if [ "$("$tmp/bin/rrc-inspect" -owner "$u" -partitions 2)" = 0 ]; then
		U0="$U0 $u"
	else
		U1="$U1 $u"
	fi
done
[ -n "$U0" ] && [ -n "$U1" ] || { echo "user bucketing left a partition empty" >&2; exit 1; }

# nth INDEX WORD... prints WORD[INDEX mod count] (POSIX sh, no arrays).
nth() {
	i=$1
	shift
	eval printf '%s\\n' "\"\${$((i % $# + 1))}\""
}

wait_healthy() {
	for _ in $(seq 1 50); do
		if curl -sf "http://$1/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.2
	done
	echo "$1 never became healthy" >&2
	return 1
}

"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$PRIMARY0" -window 20 -omega 3 \
	-events-dir "$tmp/p0" -shards 2 -partition 0/2 &
primary0_pid=$!
"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$PRIMARY1" -window 20 -omega 3 \
	-events-dir "$tmp/p1" -shards 2 -partition 1/2 &
primary1_pid=$!
wait_healthy "$PRIMARY0"
wait_healthy "$PRIMARY1"

"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$STANDBY0" -window 20 -omega 3 \
	-events-dir "$tmp/s0" -shards 2 -partition 0/2 -follow "http://$PRIMARY0" &
standby0_pid=$!
"$tmp/bin/rrc-server" -model "$tmp/model.tsppr" -addr "$STANDBY1" -window 20 -omega 3 \
	-events-dir "$tmp/s1" -shards 2 -partition 1/2 -follow "http://$PRIMARY1" &
standby1_pid=$!
wait_healthy "$STANDBY0"
wait_healthy "$STANDBY1"

# The router owns failover: fast probes so the takeover fits the soak,
# -retry-budget 1 so every client request can fund one failover retry.
"$tmp/bin/rrc-router" -addr "$ROUTER" -topology "$tmp/topology" \
	-auto-promote -probe-interval 100ms -probe-fails 2 \
	-retry-budget 1 -max-attempts 4 -retry-backoff 50ms &
router_pid=$!
wait_healthy "$ROUTER"

# soak_for SECS: mixed /consume + /recommend/user traffic through the
# router, alternating partitions, one outcome line per request appended
# to the issuing partition's file.
soak_for() {
	end=$(( $(date +%s) + $1 ))
	while [ "$(date +%s)" -lt "$end" ]; do
		p=$(( n % 2 ))
		if [ "$p" = 0 ]; then
			u=$(nth $(( n / 2 )) $U0)
		else
			u=$(nth $(( n / 2 )) $U1)
		fi
		i=$(( n % 13 ))
		if [ $(( n % 5 )) -eq 4 ]; then
			code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
				"http://$ROUTER/recommend/user" -d "{\"user\":$u,\"n\":3}")
			case $code in 200|404) echo ok ;; *) echo "err read $code" ;; esac >>"$tmp/outcomes.$p"
		else
			code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
				"http://$ROUTER/consume" -d "{\"user\":$u,\"item\":$i}")
			case $code in 200) echo ok ;; *) echo "err write $code" ;; esac >>"$tmp/outcomes.$p"
		fi
		n=$(( n + 1 ))
		sleep 0.05
	done
}

: >"$tmp/outcomes.0"
: >"$tmp/outcomes.1"
n=0
half=$(( SOAK_SECS / 2 ))
[ "$half" -ge 1 ] || half=1

echo "soaking ${half}s against the healthy 2-partition fleet"
soak_for "$half"

# Quiesce and require lag 0 on both standbys: everything acknowledged
# so far is replicated, so the kill below can lose nothing.
lag_zero() {
	curl -sf "http://$1/metrics" | awk '
		/^rrc_replica_lag_records/ { if ($NF != 0) bad = 1 }
		END { exit bad }'
}
for standby in "$STANDBY0" "$STANDBY1"; do
	ok=
	for _ in $(seq 1 50); do
		if lag_zero "$standby"; then
			ok=1
			break
		fi
		sleep 0.2
	done
	[ -n "$ok" ] || { echo "replication lag on $standby never drained to 0" >&2; exit 1; }
done
echo "lag drained to 0 on both standbys; killing partition 0's primary (SIGKILL)"

kill -9 "$primary0_pid" 2>/dev/null || true
wait "$primary0_pid" 2>/dev/null || true
primary0_pid=

echo "soaking ${half}s through partition 0's failover"
soak_for "$half"

# Per-partition error budgets: the victim partition may only fail for
# the probe rounds between the kill and the promotion; the untouched
# partition's pair never changed and is held to a far tighter budget.
check_budget() { # check_budget PARTITION DIVISOR
	total=$(wc -l <"$tmp/outcomes.$1")
	errs=$(grep -c '^err' "$tmp/outcomes.$1" || true)
	echo "partition $1: $total requests, $errs client-visible errors (budget < total/$2)"
	[ "$total" -gt 0 ] || { echo "no partition-$1 requests made it through" >&2; exit 1; }
	if [ $(( errs * $2 )) -ge "$total" ]; then
		echo "partition $1 error rate over budget ($errs/$total):" >&2
		grep '^err' "$tmp/outcomes.$1" | sort | uniq -c >&2
		exit 1
	fi
}
check_budget 0 5
check_budget 1 20

# The router must have converged per partition: a write for each key
# range lands (partition 0's now on its promoted standby).
for u in "$(nth 0 $U0)" "$(nth 0 $U1)"; do
	curl -sf -X POST "http://$ROUTER/consume" -d "{\"user\":$u,\"item\":1}" >/dev/null || {
		echo "write for user $u through router failed after failover" >&2
		exit 1
	}
done

# Expositions: the promoted standby still exports the replication
# families; the router exports its rrc_router_* families including the
# failover it drove, the retry-budget ledger, and ZERO misdirects (the
# topology file and every node's -partition agreed all soak).
curl -sf "http://$STANDBY0/metrics" >"$tmp/standby.prom"
curl -sf "http://$ROUTER/metrics" >"$tmp/router.prom"
"$tmp/bin/rrc-inspect" -expfmt - <"$tmp/standby.prom"
"$tmp/bin/rrc-inspect" -expfmt - <"$tmp/router.prom"
for fam in rrc_replica_lag_records rrc_replica_lag_seconds \
	rrc_replica_applied_total rrc_replica_epoch; do
	grep -q "^$fam" "$tmp/standby.prom" || {
		echo "standby /metrics lacks $fam" >&2
		exit 1
	}
done
for fam in rrc_router_requests_total rrc_router_node_state \
	rrc_router_node_epoch rrc_router_failovers_total \
	rrc_router_misdirects_total rrc_router_budget_clients \
	rrc_router_budget_evictions_total; do
	grep -q "^$fam" "$tmp/router.prom" || {
		echo "router /metrics lacks $fam" >&2
		exit 1
	}
done
awk '/^rrc_router_failovers_total/ { if ($NF + 0 >= 1) found = 1 }
	END { exit !found }' "$tmp/router.prom" || {
	echo "router never recorded the failover it drove" >&2
	exit 1
}
awk '/^rrc_router_misdirects_total/ { if ($NF + 0 != 0) bad = 1 }
	END { exit bad }' "$tmp/router.prom" || {
	echo "router recorded misdirects in a correctly partitioned fleet" >&2
	exit 1
}

# Clean shutdowns (router first, so it cannot mistake the teardown for
# another outage and promote), then offline forensics: the promoted
# standby records epoch 1, the untouched partition 1 pair never left
# epoch 0, and the victim pair's timelines must not have forked (lag
# was 0 at the kill).
for pid in "$router_pid" "$standby0_pid" "$primary1_pid" "$standby1_pid"; do
	kill "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
done
standby0_pid=
primary1_pid=
standby1_pid=
router_pid=
"$tmp/bin/rrc-inspect" -epoch "$tmp/s0" | grep -q 'epoch=1' || {
	echo "rrc-inspect -epoch did not report epoch 1 on the promoted root" >&2
	exit 1
}
"$tmp/bin/rrc-inspect" -epoch "$tmp/p1" | grep -q 'epoch=0' || {
	echo "partition 1's primary left epoch 0 — the failover leaked across partitions" >&2
	exit 1
}
"$tmp/bin/rrc-inspect" -diverge "$tmp/p0" "$tmp/s0" || {
	echo "rrc-inspect -diverge reported a fork in the victim pair" >&2
	exit 1
}
echo "replica smoke (2 partitions, routed, kill-partition-0-primary): OK"

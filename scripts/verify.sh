#!/bin/sh
# verify.sh — the repo's full verification gate, a list of commands:
#   gofmt, go vet (with and without the gates tag), go build,
#   go test -race, the portable Go delimiter fold that amd64 replaces
#   with an SSE2 kernel and the 32-bit decoders (GOARCH=386 go test of
#   internal/hdlc, internal/ppp, internal/flight and internal/telemetry,
#   GOARCH=arm64 go vet of internal/hdlc; go vet ./... above runs
#   asmdecl on the kernel itself), the three timing gates
#   (gates_test.go; the OC-48 floor covers the codecs, the Link pair
#   and the STM-16 section),
#   every scenarios/*.json run through p5sim (each graded by its own
#   assertions), the scenarios/net/*.json socket engines as two p5sim
#   halves each, a 30s differential fuzz of each fused kernel — the one production
#   encoder and the one production tokenizer, each against its
#   byte-at-a-time reference
#   (FUSED_FUZZTIME overrides, per kernel) — a 10s one of the SONET
#   deframer's chunking (SONET_FUZZTIME overrides), and a short fuzz
#   smoke of every Fuzz* target (5s each by default; FUZZTIME
#   overrides). Speed is judged elsewhere: `go run ./benchmark`.
#
# Usage: ./scripts/verify.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-5s}"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...
go vet -tags gates .

echo "== go build =="
go build ./...

echo "== go test -race (telemetry concurrency gate) =="
# The telemetry registry/tracer promise lock-free concurrent scraping;
# run their concurrency tests under the race detector first and with
# more iterations so a probe-side data race fails loudly before the
# full suite runs.
go test -race -count 2 ./internal/telemetry

echo "== go test -race =="
go test -race ./...

echo "== 32-bit and portable paths (GOARCH=386 test, GOARCH=arm64 vet) =="
# amd64 maps delimiters with delim_amd64.s; every other GOARCH runs the
# Go fold in delim_other.go, which an amd64 build never compiles. 386
# binaries run on an amd64 host, so the codec tests (TestBlockMapsExact,
# the guard-page test, the fused-path tests) run against the fold too;
# the arm64 vet checks the fold on a 64-bit GOARCH. The capture decoder
# and the exposition parser read outside input, and a capture's length
# fields turn negative as a 32-bit int, so their tests run on 386 too.
GOARCH=386 go test ./internal/hdlc ./internal/ppp ./internal/flight ./internal/telemetry
GOARCH=arm64 go vet ./internal/hdlc

echo "== timing gates (flight ≤ 5%, stage profile ≤ 8%, OC-48 floor: codecs, Link pair, STM-16 section) =="
go test -tags gates -run '^TestGate' -count=1 -v .

echo "== scenario smoke =="
# Run every committed scenario end-to-end through p5sim: a failed
# assertion makes p5sim exit non-zero (naming the .p5fr captures of a
# failed drill), failing this gate. Captures land in the temp dir.
net_dir="$(mktemp -d)"
trap 'rm -rf "$net_dir"' EXIT
scen_bin="$net_dir/p5sim"
go build -o "$scen_bin" ./cmd/p5sim
for scen in scenarios/*.json; do
    echo "-- $scen"
    TMPDIR="$net_dir" "$scen_bin" "$scen"
done

echo "== transport chaos smoke (two p5sim processes over UDP loopback) =="
# The two halves of scenarios/net/udp-stall.json interconnect over real
# UDP sockets, each riding a 250-tick stall of its port 0 line; both must
# pass the scenario's assertions (no renegotiation, no damaged frame).
net_port=$((20000 + $$ % 20000))
"$scen_bin" -listen "127.0.0.1:$net_port" scenarios/net/udp-stall.json > "$net_dir/netA.log" 2>&1 &
net_pid=$!
sleep 1
net_ok=0
"$scen_bin" -dial "127.0.0.1:$net_port" scenarios/net/udp-stall.json > "$net_dir/netZ.log" 2>&1 || net_ok=1
wait "$net_pid" || net_ok=1
cat "$net_dir/netA.log" "$net_dir/netZ.log"
[ "$net_ok" = 0 ] || { echo "transport smoke: a half failed"; exit 1; }

echo "== distributed fleet smoke (two instances, one board, correlated captures) =="
# The two halves of scenarios/net/udp-blackout.json interconnect over
# UDP with flight recorders and telemetry endpoints armed; the scripted
# blackout cuts the line mid-run. Beside the scenario's own verdict, the
# gate asserts the three distributed-observatory claims end to end:
# `p5stat -fleet` renders both instances in one board, the blackout
# yields exactly one transport-los capture per end, and the pair shares
# an incident ID that `p5trace -join` merges into one timeline.
fleet_port=$((21000 + $$ % 20000))
tport_a=$((fleet_port + 211))
tport_z=$((fleet_port + 212))
fdir_a="$net_dir/flightA"
fdir_z="$net_dir/flightZ"
mkdir -p "$fdir_a" "$fdir_z"
go build -o "$net_dir/p5stat" ./cmd/p5stat
go build -o "$net_dir/p5trace" ./cmd/p5trace
"$scen_bin" -listen "127.0.0.1:$fleet_port" -flight "$fdir_a" \
    -telemetry "127.0.0.1:$tport_a" scenarios/net/udp-blackout.json > "$net_dir/fleetA.log" 2>&1 &
fleet_a_pid=$!
sleep 1
"$scen_bin" -dial "127.0.0.1:$fleet_port" -flight "$fdir_z" \
    -telemetry "127.0.0.1:$tport_z" scenarios/net/udp-blackout.json > "$net_dir/fleetZ.log" 2>&1 &
fleet_z_pid=$!
# The -telemetry endpoints serve forever once the verdict is in; poll
# for the endpoint lines, scrape, then kill both halves.
fleet_up=0
for _ in $(seq 1 120); do
    if grep -q '^  telemetry  ' "$net_dir/fleetA.log" 2>/dev/null &&
       grep -q '^  telemetry  ' "$net_dir/fleetZ.log" 2>/dev/null; then
        fleet_up=1
        break
    fi
    sleep 1
done
if [ "$fleet_up" != 1 ]; then
    echo "fleet smoke: instances never reported"
    cat "$net_dir/fleetA.log" "$net_dir/fleetZ.log"
    exit 1
fi
cat "$net_dir/fleetA.log" "$net_dir/fleetZ.log"
grep -q 'verdict          : PASS' "$net_dir/fleetA.log" && grep -q 'verdict          : PASS' "$net_dir/fleetZ.log" || {
    echo "fleet smoke: a half failed its scenario"
    exit 1
}
"$net_dir/p5stat" -fleet "127.0.0.1:$tport_a,127.0.0.1:$tport_z" > "$net_dir/fleet-board.txt"
cat "$net_dir/fleet-board.txt"
for want in "127.0.0.1:$tport_a" "127.0.0.1:$tport_z" "wire v2" "oneway-p50" "port0"; do
    grep -q -- "$want" "$net_dir/fleet-board.txt" || {
        echo "fleet smoke: board is missing \"$want\""
        exit 1
    }
done
kill "$fleet_a_pid" "$fleet_z_pid" 2>/dev/null || true
wait "$fleet_a_pid" "$fleet_z_pid" 2>/dev/null || true
los_a=$(ls "$fdir_a"/*transport-los.p5fr 2>/dev/null | wc -l)
los_z=$(ls "$fdir_z"/*transport-los.p5fr 2>/dev/null | wc -l)
if [ "$los_a" -ne 1 ] || [ "$los_z" -ne 1 ]; then
    echo "fleet smoke: transport-los captures A=$los_a Z=$los_z, want exactly 1 each"
    ls -l "$fdir_a" "$fdir_z"
    exit 1
fi
"$net_dir/p5trace" -join "$fdir_a"/*transport-los.p5fr "$fdir_z"/*transport-los.p5fr \
    > "$net_dir/fleet-join.txt"
cat "$net_dir/fleet-join.txt"
grep -q '^incident ' "$net_dir/fleet-join.txt" || {
    echo "fleet smoke: joined timeline missing incident header"
    exit 1
}
echo "fleet smoke: OK (one board, one correlated capture pair, joined timeline)"

echo "== fused codec fuzz (${FUSED_FUZZTIME:-30s} per kernel) =="
# Every frame, control frames included, leaves through ppp.AppendFrame
# and arrives through hdlc.Tokenizer.Feed; each is held to its
# byte-at-a-time reference by a differential fuzzer, and a divergence
# is a wire-format bug with no second production path to mask it. Both
# get a longer dedicated run than the generic smoke below.
go test -run '^$' -fuzz '^FuzzFusedEncode$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/ppp
go test -run '^$' -fuzz '^FuzzFusedDecode$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/hdlc

echo "== SONET deframer chunking fuzz (${SONET_FUZZTIME:-10s}) =="
# The word-wide SONET receive path is gated the same way: one line fed
# in an arbitrary chunking, octet by octet, and to the byte-at-a-time
# reference deframer must give the same payload, counters and defect
# event log. Inputs are whole STM-1 frames, so minimisation of each new
# corpus entry is capped or it eats the run.
go test -run '^$' -fuzz '^FuzzDeframerChunking$' -fuzzminimizetime 20x \
    -fuzztime "${SONET_FUZZTIME:-10s}" ./internal/sonet

echo "== fuzz smoke ($FUZZTIME per target) =="
# Each fuzz target must run alone: `go test -fuzz` accepts only one
# match per package invocation.
go list ./... | while read -r pkg; do
    dir=$(go list -f '{{.Dir}}' "$pkg")
    targets=$(grep -ho 'func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go 2>/dev/null |
        sed 's/func //' | sort -u) || true
    [ -n "$targets" ] || continue
    for t in $targets; do
        echo "-- $pkg $t"
        go test -run '^$' -fuzz "^${t}\$" -fuzztime "$FUZZTIME" "$pkg"
    done
done

echo "verify: OK"

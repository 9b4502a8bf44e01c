#!/bin/sh
# verify.sh — the repo's full verification gate, a list of commands:
#   gofmt, go vet (with and without the gates tag), go build,
#   the census guards as a fast first test step, over one type-check of
#   the module (a package no production path imports, a *Config field
#   no production file sets, a struct field production writes and
#   nothing reads or reads and nothing sets, and the classifier that
#   tells them apart, a scenario key no committed scenario sets,
#   an export no non-test file names or an internal one no other
#   package names, a bare SONET section, a hand-built P5 unit, a Link
#   fed or drained outside TransportPort or a hand-armed recorder
#   outside their one seam),
#   go test -race (and fifty race runs of the TCP lifecycle tests),
#   go test at GOMAXPROCS=1 (no verdict may depend on the scheduler),
#   the portable Go paths that amd64 replaces with its three kernels —
#   the delimiter fold (SSE2), the word sorters (SSSE3, chosen by
#   CPUID) and the FCS slicing tables (the carry-less fold, chosen by
#   CPUID) — and the 32-bit decoders and line model (GOARCH=386 go
#   test of internal/crc, internal/hdlc, internal/ppp, internal/flight,
#   internal/telemetry, internal/obsnet, internal/sonet and
#   internal/fault,
#   GOARCH=386 go vet of the whole tree,
#   GOARCH=arm64 go vet of internal/crc and internal/hdlc; go vet ./...
#   above runs asmdecl on the kernels themselves), the three timing gates
#   (gates_test.go; the OC-48 floor covers the codecs, the Link pair
#   and the STM-16 section),
#   every scenarios/*.json run through p5sim (each graded by its own
#   assertions), every examples/* program run with go run (each must
#   exit 0), the offline commands — p5tables, p5trace -fig 5 with a
#   VCD dump, p5trace -fig 6 — each of which must exit 0, the
#   scenarios/net/*.json socket engines as two p5sim
#   halves each, a 30s differential fuzz of each fused kernel — the one production
#   encoder and the one production tokenizer, each against its
#   byte-at-a-time reference — of the receive word sorter against
#   the byte-serial destuff, and of the FCS kernel against the Sarwate
#   table (FUSED_FUZZTIME overrides, per fuzzer) — a 10s one of the SONET
#   deframer's chunking (SONET_FUZZTIME overrides), and
#   scripts/fuzz-smoke.sh, a short fuzz of every Fuzz* target (5s each
#   by default; FUZZTIME overrides). Speed is judged elsewhere:
#   `go run ./benchmark`.
#
# Usage: ./scripts/verify.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."

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

echo "== census guards (dead package, unset config field, unread or unset field, unset scenario key, uncalled export, one seam, one P5 assembly, one port) =="
# Seconds, not minutes: dead weight fails here, before the race suite.
# The typed guards share one type-check of the module.
go test -count=1 -run '^TestEvery(PackageHasAProductionPath|ConfigFieldIsSet|FieldIsRead|ExportHasACaller)$|^TestFieldCensus$|^TestOne(SectionCarrier|ArmingCall|P5Assembly|Port)$' .
go test -count=1 -run '^TestEveryScenarioKeyIsSet$' ./internal/scenario

echo "== go test -race (telemetry concurrency gate) =="
# The telemetry registry/tracer promise lock-free concurrent scraping;
# run their concurrency tests under the race detector first and with
# more iterations so a probe-side data race fails loudly before the
# full suite runs.
go test -race -count 2 ./internal/telemetry

echo "== go test -race (TCP lifecycle stress) =="
# Which TCP connection is live is decided by one step function; the
# interleaving test checks it over every event order, and fifty runs
# of the socket tests under the race detector check the shells that
# post its events.
go test -race -count=50 -run 'TCP|Lifecycle' ./internal/transport

echo "== go test -race =="
go test -race ./...

echo "== go test at GOMAXPROCS=1 =="
# A verdict may depend on the seed, not on the scheduler: a test that
# needs another goroutine to have observed something orders that with a
# handshake, so it passes on one P as on many.
GOMAXPROCS=1 go test ./...

echo "== 32-bit and portable paths (GOARCH=386 test and vet, GOARCH=arm64 vet) =="
# amd64 carries three kernels: it maps delimiters with delim_amd64.s,
# sorts dense words with sorter_amd64.s (where CPUID reports SSSE3) and
# folds the FCS of every input of 16 octets or more with fcs_amd64.s
# (where CPUID reports PCLMULQDQ, SSSE3 and SSE4.1); every other GOARCH
# runs the Go fold in delim_other.go, which an amd64 build never
# compiles, the Go word sorters (stuffWords, destuffWords) and
# fcs_other.go's slicing tables and hash/crc32. 386 binaries run on an
# amd64 host, so the codec tests (TestBlockMapsExact, the guard-page
# tests, the sorter tests, the fused-path tests, the FCS differentials)
# run against the Go paths too; the arm64 vet checks them on a 64-bit
# GOARCH. The capture decoder,
# the exposition parser and the fleet board that renders scraped bodies
# read outside input, and a capture's length
# fields turn negative as a 32-bit int, so their tests run on 386 too,
# as do the defect monitor's word-at-a-time LOS scan and the fault
# injector's octet offsets. The 386 vet type-checks every package, tests included, so a constant
# that overflows a 32-bit int anywhere in the tree fails here.
GOARCH=386 go test ./internal/crc ./internal/hdlc ./internal/ppp ./internal/flight ./internal/telemetry ./internal/obsnet ./internal/sonet ./internal/fault
GOARCH=386 go vet ./...
GOARCH=arm64 go vet ./internal/crc ./internal/hdlc

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

echo "== examples =="
# README lists each example as a command to run; run them, so one that
# panics or exits non-zero fails here rather than in a reader's hands.
for ex in examples/*/; do
    echo "-- $ex"
    go run "./$ex"
done

echo "== offline commands =="
# The commands that need no peer and no scenario: the synthesis tables
# (with the goodput surface) and both figure traces, one with a VCD
# dump. Each must exit 0.
go run ./cmd/p5tables
go run ./cmd/p5trace -fig 5 -vcd "$net_dir/fig5.vcd"
go run ./cmd/p5trace -fig 6

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

echo "== fused codec fuzz (${FUSED_FUZZTIME:-30s} per fuzzer) =="
# Every frame, control frames included, leaves through ppp.AppendFrame
# and arrives through hdlc.Tokenizer.Feed; each is held to its
# byte-at-a-time reference by a differential fuzzer, and a divergence
# is a wire-format bug with no second production path to mask it. The
# receive word sorter (destuffBlock) resolves escape runs from a table
# of its own, so it is held to the byte-serial destuff under any
# chunking as well, and the FCS kernel both codecs fold through
# (crc.Size.Update) to the Sarwate table, cut anywhere. All four get a
# longer dedicated run than the generic smoke below.
go test -run '^$' -fuzz '^FuzzFusedEncode$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/ppp
go test -run '^$' -fuzz '^FuzzFusedDecode$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/hdlc
go test -run '^$' -fuzz '^FuzzDestuffConsistency$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/hdlc
go test -run '^$' -fuzz '^FuzzUpdateSplit$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/crc

echo "== SONET deframer chunking fuzz (${SONET_FUZZTIME:-10s}) =="
# The word-wide SONET receive path is gated the same way: one line fed
# in an arbitrary chunking, octet by octet, and to the byte-at-a-time
# reference deframer must give the same payload, counters and defect
# event log. Inputs are whole STM-1 frames, so minimisation of each new
# corpus entry is capped or it eats the run.
go test -run '^$' -fuzz '^FuzzDeframerChunking$' -fuzzminimizetime 20x \
    -fuzztime "${SONET_FUZZTIME:-10s}" ./internal/sonet

# A short fuzz of every Fuzz* target (FUZZTIME each).
./scripts/fuzz-smoke.sh

echo "verify: OK"

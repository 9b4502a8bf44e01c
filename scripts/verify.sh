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
#   VCD dump, p5trace -fig 6 — each of which must exit 0 (the
#   scenarios/net/*.json socket engines run as two halves under one
#   board in go test: TestNetModeUDPTwoHalves), a 30s differential fuzz of each fused kernel — the one production
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
# the exposition parser and the board that renders scraped bodies
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

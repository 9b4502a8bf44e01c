#!/bin/sh
# bench.sh — machine-readable benchmark trajectory:
#   runs the BenchmarkSystemSteady matrix (datapath width × telemetry
#   on/off), the sharded line-card engine scale-out
#   (BenchmarkEngineAggregate, plus its stage-profiled twin
#   BenchmarkEngineAggregateProfiled), the steady-state link fast
#   paths (BenchmarkLinkEncodeSteady / BenchmarkLinkEncodeSteadyFlight /
#   BenchmarkLinkDecodeSteady) and both directions of a Link pair
#   across frame size (BenchmarkLinkPair), the escape-density and
#   frame-size sweeps of both codec kernels (BenchmarkAppendFramed /
#   BenchmarkTokenizerFeed) and of the FCS kernel under them
#   (internal/crc BenchmarkFCSUpdate), the two SONET-coupled paths
#   (BenchmarkEndToEnd_IPoverSONET / BenchmarkSONETCoupledGoodput), and
#   the armed distributed-observatory socket loop
#   (BenchmarkTransportUDPSteady), and writes
#   BENCH_<date>.json with ns/op, MB/s, allocs/op and the custom
#   metrics (bits/cycle and host ns/cycle of the RTL model, frames/s,
#   Gbps-line) per variant, so
#   successive PRs can be compared without scraping test logs.
#   Every benchmark runs eight times and the fastest run is recorded
#   (the best-of-count estimator of verify.sh's gates): on a host whose
#   speed wanders a single run is a sample of the host, not of the code.
#   The default of 25 iterations per run is what the µs-scale kernels
#   need to get past warm-up; the whole script takes about half a minute.
#
# Usage: ./scripts/bench.sh [outfile]   (or: make bench-json)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_$(date +%Y%m%d).json}"
benchtime="${BENCHTIME:-25x}"

raw=$(go test -run '^$' \
    -bench '^(BenchmarkSystemSteady|BenchmarkEngineAggregate|BenchmarkEngineAggregateProfiled|BenchmarkLinkEncodeSteady|BenchmarkLinkEncodeSteadyFlight|BenchmarkLinkDecodeSteady|BenchmarkLinkPair|BenchmarkAppendFramed|BenchmarkTokenizerFeed|BenchmarkFCSUpdate|BenchmarkEndToEnd_IPoverSONET|BenchmarkSONETCoupledGoodput|BenchmarkTransportUDPSteady)$' \
    -benchtime "$benchtime" -count 8 -benchmem . ./internal/crc)

printf '%s\n' "$raw" | awk -v date="$(date +%Y-%m-%d)" -v go="$(go version | awk '{print $3}')" '
/^Benchmark(System|EngineAggregate|LinkEncodeSteady|LinkDecodeSteady|LinkPair|AppendFramed|TokenizerFeed|FCSUpdate|EndToEnd_IPoverSONET|SONETCoupledGoodput|TransportUDPSteady)/ {
    # BenchmarkSystemSteady/width=8bit/telemetry=false-8  5  5120324 ns/op  5.86 MB/s  7.779 bits/cycle  166.0 ns/cycle  0 B/op  0 allocs/op
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
    if (!(name in best)) order[n++] = name
    else if ($3 + 0 >= best[name]) next   # keep the fastest of -count runs
    best[name] = $3 + 0
    rec = sprintf("{\"name\": \"%s\", \"iterations\": %s", name, $2)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[\/]/, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        rec = rec sprintf(", \"%s\": %s", unit, $i)
    }
    line[name] = rec "}"
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, go
    for (k = 0; k < n; k++) printf "%s\n    %s", (k ? "," : ""), line[order[k]]
    printf "\n  ]\n}\n"
}
' > "$out"

echo "bench.sh: wrote $out"

GO ?= go

.PHONY: build test race vet fuzz-smoke verify bench bench-json metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short fuzz pass over every Fuzz* target (FUZZTIME=5s by default).
fuzz-smoke:
	FUZZTIME=$(or $(FUZZTIME),5s) ./scripts/verify.sh

# The full gate: vet + build + race tests + fuzz smoke.
verify:
	./scripts/verify.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable bench trajectory: BENCH_<date>.json with ns/op,
# MB/s, bits/cycle and host ns/cycle for the width × telemetry system
# matrix.
bench-json:
	./scripts/bench.sh

# Regenerate METRICS.md from the live registry; `go test ./...` fails
# when the committed file drifts from what the code registers.
metrics:
	$(GO) test -run '^TestMetricsDocMatchesRegistry$$' -update .

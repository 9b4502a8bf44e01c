GO ?= go

.PHONY: build test race vet fuzz-smoke verify gates bench metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags gates .

# Short fuzz pass over every Fuzz* target (FUZZTIME=5s by default), alone;
# `make verify` runs it after the rest of the gate.
fuzz-smoke:
	FUZZTIME=$(or $(FUZZTIME),5s) ./scripts/fuzz-smoke.sh

# The full gate: vet + build + race tests + timing gates + smokes + fuzz.
verify:
	./scripts/verify.sh

# The three timing contracts (gates_test.go): flight-armed encode ≤ 5 %
# over unarmed, profile-armed engine step ≤ 8 % over disarmed, every
# codec sweep point, Link pair size and the STM-16 section ≥ 311 MB/s
# of wire.
gates:
	$(GO) test -tags gates -run '^TestGate' -count=1 -v .

# Smoke: every benchmark of the root package, the FCS kernel, the
# stuffing word path (BenchmarkStuffByte, BenchmarkStuffBlock) and the
# delimiter bitmap (BenchmarkBlockMaps, the SSE2 kernel on amd64), the RTL
# kernel's dispatch (BenchmarkKernelCycle, ns/cycle with no unit work),
# the P5's resync buffer (BenchmarkResyncBuffer, one word pushed and
# packed at W = 4) and the SONET map/demap runs once (CI runs this same
# target). Speeds
# are recorded and compared by `go run ./benchmark`, not from here.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/crc ./internal/hdlc ./internal/rtl ./internal/p5 ./internal/sonet

# Regenerate METRICS.md from the live registry; `go test ./...` fails
# when the committed file drifts from what the code registers.
metrics:
	$(GO) test -run '^TestMetricsDocMatchesRegistry$$' -update .

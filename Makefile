GO ?= go

.PHONY: build test race lint goldens

build:
	$(GO) build ./...

# lint runs simlint (tools/simlint): the five analyzers that machine-check
# the repo's determinism and kernel-discipline invariants over every
# production package. Kept separate from `test` so a house-rule violation
# is distinguishable from a test failure.
lint:
	$(GO) run ./tools/simlint ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# goldens regenerates the committed reference logs, parser transcripts and
# the experiments' full-precision goldens in memory and fails if testdata/
# drifted from what the code emits. The CI golden drift check runs exactly
# this; `go test ./internal/experiments -update` (and the same flag in the
# other packages) refreshes them on purpose.
goldens:
	$(GO) test -count=1 \
		-run 'TestReferenceLogUpToDate|TestMergedReferenceLogUpToDate|TestFailoverReferenceLogUpToDate|TestClusterExperimentsUpToDate|TestExperimentsUpToDate|TestGolden' \
		./internal/darshan ./internal/experiments \
		./cmd/darshan-parser ./cmd/dxt-parser ./cmd/traceviewer

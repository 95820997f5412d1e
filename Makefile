GO ?= go
GOFMT ?= gofmt

.PHONY: build test race lint goldens

build:
	$(GO) build ./...

# lint fails on any Go file gofmt would rewrite (except simlint's analyzer
# fixtures, which are test inputs) and then runs simlint (tools/simlint):
# the five analyzers that machine-check the repo's determinism and
# kernel-discipline invariants over every production package. Kept
# separate from `test` so a house-rule violation is distinguishable from a
# test failure.
lint:
	@unformatted=$$($(GOFMT) -l bench cmd examples internal tools | grep -v '^tools/simlint/rules/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
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

GO ?= go

.PHONY: build test race lint

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

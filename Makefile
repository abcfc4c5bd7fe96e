GO ?= go

.PHONY: all build test test-short vet fmt-check lint bench bench-smoke ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the files, when gofmt would reformat any tracked
# Go file (bench/ and the lint fixtures included) or cannot parse one.
fmt-check:
	@out=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l 2>&1) || { echo "$$out"; exit 1; }; \
	if [ -n "$$out" ]; then echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

# lint runs the full static suite: gofmt over every tracked Go file,
# go vet, the repo's own invariant analyzers (cmd/sflint: determinism,
# hotpath, codecreg — see DESIGN.md §10), and, when
# installed, staticcheck and govulncheck. The external tools are gated
# on availability so offline checkouts still get gofmt + vet + sflint;
# CI installs them and runs the same target.
lint: fmt-check vet
	$(GO) run ./cmd/sflint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# bench compiles and runs every package microbenchmark once, at full
# size. These time single functions while you work on them; the
# repository benchmark, which a performance claim is judged by, is
#   bash bench/run.sh
# (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-smoke is the CI-sized benchmark pass: every benchmark once at
# -short sizes, output discarded — it only has to not crash.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

ci: build lint test

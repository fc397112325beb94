# Tier-1 gate: everything `make ci` runs must stay green. Nothing here is
# started in the background: every recipe line runs to completion, and ci's
# last step (leak-check) fails if a process of anything it ran survives.
#
#   make ci           vet + build + full test suite + race subset, then
#                     leak-check. Every other check is a test that `make test`
#                     runs: formatting (TestGofmt), obs hook inlining
#                     (TestTimedHooksInline), the committed documents' gates
#                     (TestQuickSweepsLeaveCommittedGates, through -exp=gates),
#                     the critical-path partition
#                     (TestTracedRunPartitionsElapsedTime) and the two-process
#                     worker (TestWorkerPingPongAcrossTwoProcesses).
#   make vet          go vet ./...
#   make build        go build ./...
#   make test         go test ./...
#   make race         race detector on every internal package plus the sim and
#                     rt layers — the fuzz seeds for the lock-free queues and
#                     request pool run as unit tests here, so real-goroutine
#                     interleavings are probed under -race on every CI pass.
#                     The socket-batch and rt wake-up tests then run 20
#                     times more: one race-detector pass seldom catches two
#                     batches racing for one peer's header arena or a lost
#                     completion wakeup.
#   make leak-check   the last step of ci: fails, and lists them, if any process
#                     of a binary ci builds or runs is still alive (`go run`'s
#                     exe/paper, .bench_build/hostbench, cmd/mpirun's
#                     mpirun.test, which re-executes itself as ranks, and
#                     any other binary `go run` or `go test` built under a
#                     go-build temporary directory, such as the paper.test
#                     that cmd/paper's tests re-execute as two ranks).
#   make benchdiff    compare the working-tree BENCH documents against HEAD's
#                     committed generation (markdown trend tables; exits
#                     nonzero past tolerance). Run after a full regeneration.
#   make host-bench   the host-time benchmark (benchmark/README.md): every
#                     workload of BENCHMARK.json end to end, two sets, compared
#                     against the bounds. Minutes of wall time; not part of ci.
#   make mtscale | net
#                     full-size sweep, regenerates the committed BENCH_<doc>.json
#                     in place (the only way those files are ever written;
#                     the write validates the document first).
#   make results      regenerate results.txt (paper -exp=all -quick; minutes).
#   make loc          the two non-test line counts the harness-diet PRs track.

GO ?= go
DOCS := mtscale net
PAPER := $(GO) run ./cmd/paper

.PHONY: ci vet build test race leak-check benchdiff host-bench $(DOCS) results loc

ci: vet build test race
	$(MAKE) leak-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./sim ./rt/... ./mpi ./bench
	$(GO) test -race -count=20 -run 'Batch|Wake' ./internal/transport ./rt

# The pattern matches the program path (argv[0]) only, so a shell or editor
# whose command line merely mentions one of these paths is not a leak; the
# bracketed letters also keep it from matching the shell that runs pgrep.
LEAKED := '^([^ ]*/exe/[p]aper|[^ ]*\.bench_build/[h]ostbench|[^ ]*/[m]pirun\.test|[^ ]*/go-buil[d][0-9]+/[^ ]*)( |$$)'

leak-check:
	@if pgrep -fa $(LEAKED); then echo "leak-check: the processes above are still running" >&2; exit 1; fi

benchdiff:
	for d in $(DOCS); do \
		git show HEAD:BENCH_$$d.json > /tmp/benchdiff_old_$$d.json && \
		$(GO) run ./cmd/benchdiff /tmp/benchdiff_old_$$d.json BENCH_$$d.json || exit 1; \
	done

host-bench:
	$(GO) run ./benchmark -sets 2

$(DOCS):
	$(PAPER) -exp=$@

results:
	$(PAPER) -exp=all -quick > results.txt

# Non-comment, non-blank lines of non-test Go outside apps/ and benchmark/,
# for everything and for cmd/ alone.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './apps/*' ! -path './benchmark/*' | xargs cat | grep -cvE '^\s*(//|$$)'
	@find cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cvE '^\s*(//|$$)'

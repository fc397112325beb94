# Tier-1 gate: everything `make ci` runs must stay green. Nothing here is
# started in the background: every recipe line runs to completion, and ci's
# last step (leak-check) fails if a process of anything it ran survives.
#
#   make ci           vet + build + full test suite + race subset + every smoke
#   make vet          go vet ./..., and the compiler's -m report must call all
#                     eight disabled obs hooks that TestDisabledHookOverhead
#                     times inlinable. (Formatting is a test: TestGofmt in
#                     gofmt_test.go fails on any file gofmt would rewrite.)
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
#   make smoke        one pattern for every BENCH document (mtscale, net):
#                     a -quick sweep through cmd/paper into /tmp, the
#                     validator on that file and on the committed file
#                     (whose full-size rows carry the gates: sharded <= shared
#                     at 16 threads; offload >= direct at 16 threads on every
#                     backend), then a benchdiff self-diff of the committed
#                     file. `make mtscale-smoke` etc. run one document.
#                     (The chaos sweep writes no document: `go test
#                     ./cmd/paper` checks its results.txt step byte for
#                     byte and asserts its claims.)
#   make critpath-smoke  tiny traced Fig 7a run piped through cmd/tracetool
#                     -check: fails unless every run's critical-path
#                     attribution sums exactly to its elapsed virtual time.
#   make mpirun-smoke a two-process cmd/mpirun ping-pong over real Unix sockets
#                     with cmd/paper as the worker.
#   make leak-check   the last step of ci: fails, and lists them, if any process
#                     of a binary ci builds or runs is still alive
#                     (/tmp/mpirun_smoke, /tmp/paper_smoke, `go run`'s
#                     exe/paper, .bench_build/hostbench, cmd/mpirun's
#                     mpirun.test, which re-executes itself as ranks, and
#                     any other binary `go run` or `go test` built under a
#                     go-build temporary directory).
#   make benchdiff    compare the working-tree BENCH documents against HEAD's
#                     committed generation (markdown trend tables; exits
#                     nonzero past tolerance). Run after a full regeneration.
#   make host-bench   the host-time benchmark (benchmark/README.md): every
#                     workload of BENCHMARK.json end to end, two sets, compared
#                     against the bounds. Minutes of wall time; not part of ci.
#   make mtscale | net
#                     full-size sweep, regenerates the committed BENCH_<doc>.json
#                     in place (the only way those files are ever written).
#   make results      regenerate results.txt (paper -exp=all -quick; minutes).
#   make loc          the two non-test line counts the harness-diet PRs track.

GO ?= go
DOCS := mtscale net
PAPER := $(GO) run ./cmd/paper

.PHONY: ci vet build test race smoke $(DOCS:%=%-smoke) critpath-smoke mpirun-smoke leak-check benchdiff host-bench $(DOCS) results loc

ci: vet build test race smoke critpath-smoke mpirun-smoke
	$(MAKE) leak-check

vet:
	$(GO) vet ./...
	@out=$$($(GO) build -gcflags=-m ./internal/obs 2>&1); for h in Progressed CmdEnqueued CmdDequeued CmdCompleted Issued Delivered EagerLanded RdvStarted; do echo "$$out" | grep -q "can inline (\*Recorder)\.$$h$$" || { echo "vet: obs hook (*Recorder).$$h is not inlinable" >&2; exit 1; }; done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./sim ./rt/... ./mpi ./bench
	$(GO) test -race -count=20 -run 'Batch|Wake' ./internal/transport ./rt

smoke: $(DOCS:%=%-smoke)

$(DOCS:%=%-smoke): %-smoke:
	$(PAPER) -exp=$* -quick -out /tmp/$*_smoke.json > /dev/null
	$(PAPER) -validate /tmp/$*_smoke.json
	$(PAPER) -validate BENCH_$*.json
	$(GO) run ./cmd/benchdiff BENCH_$*.json BENCH_$*.json > /dev/null

critpath-smoke:
	$(PAPER) -exp=fig7a -iters 2 -approaches offload -trace /tmp/critpath_smoke.json > /dev/null
	$(GO) run ./cmd/tracetool -check /tmp/critpath_smoke.json

mpirun-smoke:
	$(GO) build -o /tmp/mpirun_smoke ./cmd/mpirun
	$(GO) build -o /tmp/paper_smoke ./cmd/paper
	/tmp/mpirun_smoke -n 2 /tmp/paper_smoke

# The pattern matches the program path (argv[0]) only, so a shell or editor
# whose command line merely mentions one of these paths is not a leak; the
# bracketed letters also keep it from matching the shell that runs pgrep.
LEAKED := '^(/tmp/[m]pirun_smoke|/tmp/[p]aper_smoke|[^ ]*/exe/[p]aper|[^ ]*\.bench_build/[h]ostbench|[^ ]*/[m]pirun\.test|[^ ]*/go-buil[d][0-9]+/[^ ]*)( |$$)'

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
	$(PAPER) -validate BENCH_$@.json

results:
	$(PAPER) -exp=all -quick > results.txt

# Non-comment, non-blank lines of non-test Go outside apps/ and benchmark/,
# for everything and for cmd/ alone.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './apps/*' ! -path './benchmark/*' | xargs cat | grep -cvE '^\s*(//|$$)'
	@find cmd -name '*.go' ! -name '*_test.go' | xargs cat | grep -cvE '^\s*(//|$$)'

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"mpioffload/internal/transport"
)

// TestMain makes the test binary a cmd/mpirun worker when the launcher's
// environment is set, as the paper binary is.
func TestMain(m *testing.M) {
	if cfg, ok := transport.EnvConfig(); ok {
		if err := runWorker(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "paper worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkerPingPongAcrossTwoProcesses runs the worker mode as a real
// two-process job: two copies of this binary, given the environment
// cmd/mpirun gives its ranks, ping-pong over Unix sockets through the
// offload engine. Both must exit 0, and rank 0 must print one latency line
// per message size.
func TestWorkerPingPongAcrossTwoProcesses(t *testing.T) {
	// A short directory: a Unix socket path is limited to 108 bytes.
	dir, err := os.MkdirTemp("", "rdv")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var outs [2]bytes.Buffer
	var procs []*exec.Cmd
	defer func() { // no child outlives the test, whichever way it ends
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	for rank := range outs {
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), transport.EnvRank+"="+strconv.Itoa(rank),
			transport.EnvSize+"=2", transport.EnvRdv+"="+dir)
		cmd.Stdout, cmd.Stderr = &outs[rank], &outs[rank]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	for rank, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Errorf("rank %d: %v (deadline: %v)\n%s", rank, err, ctx.Err(), outs[rank].String())
		}
	}
	lines := regexp.MustCompile(`(?m)^pingpong +\d+ B: +\d+ ns one-way`).FindAllString(outs[0].String(), -1)
	if len(lines) != 2 {
		t.Errorf("rank 0 printed %d ping-pong lines, want 2:\n%s", len(lines), outs[0].String())
	}
}

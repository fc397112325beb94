package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpioffload/internal/transport"
)

// The test binary plays every part: re-executed with roleEnv set it is the
// launcher (run with the remaining arguments); launched by that launcher
// (transport.EnvRank set) it is a rank that records its pid and then exits
// or, with blockEnv set, blocks — the hung peer a CI timeout has to clean
// up after.
const (
	roleEnv  = "MPIRUN_TEST_LAUNCHER"
	pidEnv   = "MPIRUN_TEST_PIDDIR"
	blockEnv = "MPIRUN_TEST_BLOCK"
)

func TestMain(m *testing.M) {
	if rank := os.Getenv(transport.EnvRank); rank != "" {
		pidFile := filepath.Join(os.Getenv(pidEnv), "rank"+rank+".pid")
		os.WriteFile(pidFile, []byte(strconv.Itoa(os.Getpid())), 0o644)
		if os.Getenv(blockEnv) != "" {
			time.Sleep(time.Hour)
		}
		os.Exit(0)
	}
	if os.Getenv(roleEnv) != "" {
		os.Exit(run([]string{"-n", "2", os.Args[0]}))
	}
	os.Exit(m.Run())
}

// launch starts the launcher role with its temp directory pointed at a
// fresh dir, so a leaked rendezvous directory is visible.
func launch(t *testing.T, block bool) (cmd *exec.Cmd, tmp, pids string) {
	t.Helper()
	tmp, pids = t.TempDir(), t.TempDir()
	cmd = exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), roleEnv+"=1", "TMPDIR="+tmp, pidEnv+"="+pids)
	if block {
		cmd.Env = append(cmd.Env, blockEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, tmp, pids
}

func leftovers(t *testing.T, tmp string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(tmp, "mpirun-rdv-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestExitRemovesRendezvousDir: a job that finishes on its own exits 0 and
// leaves no /tmp/mpirun-rdv-* behind (os.Exit used to skip the clean-up).
func TestExitRemovesRendezvousDir(t *testing.T) {
	cmd, tmp, _ := launch(t, false)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("launcher: %v", err)
	}
	if left := leftovers(t, tmp); len(left) != 0 {
		t.Errorf("rendezvous directory leaked: %v", left)
	}
}

// TestSIGTERMKillsTheJob: with both ranks hung, SIGTERM to the launcher
// alone must take the ranks down with it, exit non-zero and clean up.
func TestSIGTERMKillsTheJob(t *testing.T) {
	cmd, tmp, pids := launch(t, true)
	defer cmd.Process.Kill()
	var ranks []int
	for deadline := time.Now().Add(10 * time.Second); len(ranks) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("ranks never started")
		}
		time.Sleep(10 * time.Millisecond)
		ranks = ranks[:0]
		for i := 0; i < 2; i++ {
			data, _ := os.ReadFile(filepath.Join(pids, fmt.Sprintf("rank%d.pid", i)))
			if pid, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
				ranks = append(ranks, pid)
			}
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err == nil {
			t.Error("launcher exited 0 after SIGTERM")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("launcher still running 10 s after SIGTERM")
	}
	for _, pid := range ranks {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("rank process %d outlived the launcher (kill -0: %v)", pid, err)
			syscall.Kill(pid, syscall.SIGKILL)
		}
	}
	if left := leftovers(t, tmp); len(left) != 0 {
		t.Errorf("rendezvous directory leaked: %v", left)
	}
}

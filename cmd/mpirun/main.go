// Command mpirun launches an n-rank job as n separate OS processes over
// the real socket transport — the multi-process deployment of the rt
// cluster. Each rank runs its own copy of the given program; the launcher
// wires them together through MPIOFFLOAD_* environment variables and a
// shared rendezvous directory in which every rank listens on its
// Unix-domain socket file (transport.Listen). The program builds its side
// of the job with transport.EnvConfig + rt.NewWorkerCluster; cmd/paper is
// a ready-made worker (e.g. `mpirun -n 2 ./paper`).
//
// Child stdout/stderr lines are prefixed with their rank. The first rank
// to exit non-zero kills the rest of the job and sets the exit code; a
// SIGINT or SIGTERM to the launcher (a CI timeout) kills every rank too.
// Either way the launcher reaps all children and removes its rendezvous
// directory before it exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"

	"mpioffload/internal/transport"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the launcher; it returns the exit code instead of calling
// os.Exit so the deferred clean-up runs on every path.
func run(args []string) int {
	n := flag.Int("n", 2, "number of ranks (one OS process each)")
	rdv := flag.String("rdv", "", "rendezvous directory (default: a fresh temp dir, removed on exit)")
	flag.CommandLine.Parse(args)
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mpirun [-n ranks] program [args...]")
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "mpirun: -n must be at least 1")
		return 2
	}
	dir := *rdv
	if dir == "" {
		d, err := os.MkdirTemp("", "mpirun-rdv-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpirun: %v\n", err)
			return 1
		}
		defer os.RemoveAll(d)
		dir = d
	}
	// Registered before the first child starts, so a signal can never find
	// ranks running and nobody listening.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	prog, progArgs := flag.Arg(0), flag.Args()[1:]
	var outMu sync.Mutex // one child's line at a time
	procs := make([]*exec.Cmd, *n)
	done := make(chan rankExit, *n)
	started := 0
	for i := 0; i < *n; i++ {
		// No Setpgid: the ranks stay in the launcher's process group, so a
		// group-directed signal (^C, `timeout`) reaches them directly; the
		// forwarding below covers signals aimed at the launcher alone.
		cmd := exec.Command(prog, progArgs...)
		cmd.Env = append(os.Environ(),
			transport.EnvRank+"="+strconv.Itoa(i),
			transport.EnvSize+"="+strconv.Itoa(*n),
			transport.EnvRdv+"="+dir,
		)
		outPipe, _ := cmd.StdoutPipe()
		errPipe, _ := cmd.StderrPipe()
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "mpirun: rank %d: %v\n", i, err)
			killAll(procs)
			break
		}
		procs[i] = cmd
		started++
		// Drain both pipes to EOF before Wait: Wait closes the pipes and
		// would race the scanners out of the child's final lines.
		var drained sync.WaitGroup
		drained.Add(2)
		go func() { defer drained.Done(); prefixLines(os.Stdout, outPipe, i, &outMu) }()
		go func() { defer drained.Done(); prefixLines(os.Stderr, errPipe, i, &outMu) }()
		go func() {
			drained.Wait()
			done <- rankExit{rank: i, err: cmd.Wait()}
		}()
	}

	code := 0
	if started < *n {
		code = 1
	}
	for left := started; left > 0; {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "mpirun: %v: killing the job\n", sig)
			code = 1
			killAll(procs)
		case ex := <-done:
			left--
			if ex.err != nil && code == 0 {
				fmt.Fprintf(os.Stderr, "mpirun: rank %d failed: %v\n", ex.rank, ex.err)
				code = 1
				killAll(procs) // one dead rank dooms the job; don't hang on the rest
			}
		}
	}
	return code
}

type rankExit struct {
	rank int
	err  error
}

func killAll(procs []*exec.Cmd) {
	for _, p := range procs {
		if p != nil && p.Process != nil {
			p.Process.Kill()
		}
	}
}

// prefixLines copies one child stream to w, one "[rank i]"-prefixed line
// at a time.
func prefixLines(w io.Writer, r io.Reader, rank int, mu *sync.Mutex) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(w, "[rank %d] %s\n", rank, sc.Text())
		mu.Unlock()
	}
}

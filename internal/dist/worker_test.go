package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sentinel/internal/experiment"
)

// workerProcessEnv gates TestShardWorkerProcess: set, the test binary
// is a LocalWorker subprocess rather than a test run.
const workerProcessEnv = "SENTINEL_DIST_WORKER_PROCESS"

// TestShardWorkerProcess is the subprocess the LocalWorker tests spawn
// by re-executing the test binary: it runs the shard body on the
// attempt directory, as `sentinel-sweep -worker` does. Its arguments
// after "--" are the directory, the JSON task, and a cell count after
// which it stops making progress (-1 for never). Without the
// environment gate it does nothing.
func TestShardWorkerProcess(t *testing.T) {
	if os.Getenv(workerProcessEnv) == "" {
		return
	}
	args := os.Args
	for len(args) > 0 && args[0] != "--" {
		args = args[1:]
	}
	var task Task
	if len(args) != 4 || json.Unmarshal([]byte(args[2]), &task) != nil {
		fmt.Fprintf(os.Stderr, "bad worker arguments %q\n", os.Args)
		os.Exit(2)
	}
	holdAfter, _ := strconv.Atoi(args[3])
	sh, err := OpenShard(args[1], task)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "replayed %d\n", sh.Replayed)
	if holdAfter >= 0 {
		sh.Progress = holdAfterCells{sh.Journal, holdAfter}
	}
	if err := sh.Run(context.Background(), 1); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "appended %d\n", sh.Journal.Appended())
	os.Exit(0)
}

// holdAfterCells wedges the subprocess once its journal holds n
// records, so the test can kill it partway through the shard.
type holdAfterCells struct {
	j *experiment.Journal
	n int
}

func (h holdAfterCells) AddCells(int) {}

func (h holdAfterCells) CellDone() {
	if h.j.Appended() >= h.n {
		select {}
	}
}

// syncBuffer collects subprocess stderr written by exec's copier
// goroutine while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// pollUntil polls an attempt until done reports true, failing the test
// if that takes longer than a hung-worker bound.
func pollUntil(t *testing.T, a Attempt, done func(AttemptStatus) bool) AttemptStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := a.Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempt stuck at %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLocalWorker drives real subprocess attempts: one killed partway
// through still hands back what it journaled, a successor seeded with
// that salvage adds only its own cells, and Kill removes the attempt
// directory.
func TestLocalWorker(t *testing.T) {
	t.Setenv(workerProcessEnv, "1")
	holdAfter := 2
	stderr := &syncBuffer{}
	w := &LocalWorker{
		WorkerName: "local-test",
		Dir:        t.TempDir(),
		Stderr:     stderr,
		Command: func(task Task, dir string) (string, []string) {
			task.Seed = nil // the seed is already in dir
			js, err := json.Marshal(task)
			if err != nil {
				t.Error(err)
			}
			return os.Args[0], []string{"-test.run=^TestShardWorkerProcess$", "--", dir, string(js), strconv.Itoa(holdAfter)}
		},
	}
	// Cancelling the context kills any subprocess a failed test leaves.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Killed partway: the process wedges after two cells and dies.
	a, err := w.Start(ctx, fig7Task())
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, a, func(st AttemptStatus) bool { return st.Cells == holdAfter })
	if err := a.(*localAttempt).cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	st := pollUntil(t, a, func(st AttemptStatus) bool { return st.Done })
	if st.Err == "" || st.Cells != holdAfter {
		t.Fatalf("killed attempt: %+v; want a failure holding %d cell(s)", st, holdAfter)
	}
	salvage := st.Journal
	if n, _, err := experiment.MergeJournal(experiment.NewCache(), salvage); err != nil || n != holdAfter {
		t.Fatalf("salvage holds %d cell(s) (err %v), want %d", n, err, holdAfter)
	}
	dir := a.(*localAttempt).dir
	a.Kill()
	a.Kill() // safe twice
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Kill left the attempt directory behind: %v", err)
	}

	// Seeded successor: replays the salvage and journals only the rest.
	holdAfter = -1
	task := fig7Task()
	task.Seed = salvage
	a, err = w.Start(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	st = pollUntil(t, a, func(st AttemptStatus) bool { return st.Done })
	a.Kill()
	if st.Err != "" || !bytes.HasPrefix(st.Journal, salvage) {
		t.Fatalf("seeded attempt: err %q, journal keeps the seed: %v", st.Err, bytes.HasPrefix(st.Journal, salvage))
	}
	var replayed, appended int
	for _, line := range strings.Split(stderr.String(), "\n") {
		fmt.Sscanf(line, "replayed %d", &replayed)
		fmt.Sscanf(line, "appended %d", &appended)
	}
	if replayed != 2 || appended == 0 || st.Cells != replayed+appended {
		t.Fatalf("seeded attempt: %d cell(s) = %d replayed + %d appended?", st.Cells, replayed, appended)
	}
}

package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

// The kill/restart choreography needs a daemon it can SIGKILL, which
// rules out goroutines: only a separate process dies abruptly enough
// to prove the store and journal orderings. The harness re-execs its
// own binary as that process — MaybeDaemonChild, called first thing
// from main (and from the load package's TestMain), turns the child
// invocation into a store-backed loopback daemon and never returns.
const crashDirEnv = "WPLOAD_CRASH_DIR"

// The choreography's fixed shape: crashBatches distinct async batches
// go in before the kill, each covering the whole pool of
// crashWorkloads synthetic workloads (4 cells each) in a rotated
// order, so each gets its own job id but the union of work stays
// fixed and known. crashTimeout bounds the whole run.
const (
	crashBatches   = 6
	crashWorkloads = 3
	crashTimeout   = 3 * time.Minute
)

// MaybeDaemonChild checks whether this process was re-exec'd as a
// crash-choreography daemon child and, if so, runs the daemon and
// exits. A no-op in ordinary invocations.
func MaybeDaemonChild() {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		return
	}
	os.Exit(runDaemonChild(dir))
}

func runDaemonChild(dir string) int {
	// One engine worker, so async work backs up behind the kill.
	lb, err := StartLoopback(LoopbackOptions{
		Workloads: crashWorkloads,
		Workers:   1,
		StoreDir:  filepath.Join(dir, "store"),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash-child: %v\n", err)
		return 1
	}
	// Publish the URL only once the listener is live, atomically, so
	// the parent never reads a half-written file.
	urlPath := filepath.Join(dir, "url")
	tmp := urlPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(lb.URL), 0o644); err == nil {
		err = os.Rename(tmp, urlPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash-child: %v\n", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	// Graceful exit: drain, flush the store, leave a clean journal.
	// The interesting exits are the ungraceful ones the parent forces
	// with SIGKILL, which never reach this code.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lb.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "crash-child: %v\n", err)
		return 1
	}
	return 0
}

// CrashOptions configures one kill/restart choreography run.
type CrashOptions struct {
	// Dir is the scratch directory holding the store, journal and the
	// child's URL file. Empty means a fresh temp dir, removed again
	// when the choreography passes.
	Dir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// RunCrash is the kill/restart choreography, the durability proof for
// the store+journal design:
//
//  1. start a store-backed daemon child (one engine worker, so async
//     work backs up), submit async batches, collect the 202 job ids;
//  2. SIGKILL the child the moment the last 202 lands;
//  3. restart a child on the same directory and poll every pre-kill
//     id until it answers 200/done with results byte-identical to a
//     direct engine run of the same cells — no id a client holds may
//     be lost, no replayed result may differ;
//  4. stop the child gracefully, start a third (cold process memory,
//     warm store) and run the whole pool through it: its engine must
//     report zero cache misses, proving warm-store cells are loaded,
//     not re-simulated; finally fsck the store.
//
// The daemon child is this process's own binary, re-exec'd: its main
// (or TestMain) must call MaybeDaemonChild.
func RunCrash(ctx context.Context, opt CrashOptions) (err error) {
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	dir := opt.Dir
	if dir == "" {
		tmp, tmpErr := os.MkdirTemp("", "wpcrash-")
		if tmpErr != nil {
			return fmt.Errorf("crash: %w", tmpErr)
		}
		dir = tmp
		defer func() {
			if err == nil {
				os.RemoveAll(tmp)
			} else {
				fmt.Fprintf(logw, "crash: keeping %s for inspection\n", tmp)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(ctx, crashTimeout)
	defer cancel()

	// Every batch is the full pool in a rotated order: distinct job
	// ids (api.BatchKey hashes keys in request order), identical work
	// coverage, so phase 4 knows exactly which cells must be warm.
	pool := Pool(SyntheticNames(crashWorkloads), SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	batches := make([][]api.RunRequest, crashBatches)
	for i := range batches {
		r := i % len(pool)
		batches[i] = append(append([]api.RunRequest{}, pool[r:]...), pool[:r]...)
	}

	// The byte-identity oracle: a fresh in-process engine, no HTTP,
	// no store.
	ref := engine.New(SyntheticProvider(crashWorkloads), engine.WithBaseConfig(sim.Default()))

	// Phase 1: daemon up, async batches in, ids durable.
	fmt.Fprintf(logw, "crash: phase 1: starting daemon child on %s\n", dir)
	child, url, err := startCrashChild(ctx, exe, opt.Log, dir)
	if err != nil {
		return err
	}
	client := serve.NewClient(url)
	ids := make([]string, len(batches))
	for i, reqs := range batches {
		resp, err := client.Submit(ctx, reqs)
		if err != nil {
			child.kill()
			return fmt.Errorf("crash: async submit %d: %w", i, err)
		}
		ids[i] = resp.JobID
	}

	// Phase 2: SIGKILL — no drain, no flush, no goodbye.
	fmt.Fprintf(logw, "crash: phase 2: SIGKILL after %d accepted batches\n", len(ids))
	child.kill()

	// Phase 3: restart on the same directory; every pre-kill id must
	// come back, finish, and match a direct engine run byte for byte.
	fmt.Fprintf(logw, "crash: phase 3: restarting on the same store\n")
	child, url, err = startCrashChild(ctx, exe, opt.Log, dir)
	if err != nil {
		return err
	}
	client = serve.NewClient(url)
	for i, id := range ids {
		resp, err := client.Poll(ctx, id)
		if err != nil {
			child.kill()
			return fmt.Errorf("crash: job %s (batch %d): %w", id, i, err)
		}
		if err := api.CheckIdentical(ctx, ref, batches[i], resp); err != nil {
			child.kill()
			return fmt.Errorf("crash: job %s (batch %d): %w", id, i, err)
		}
	}
	if err := child.stop(); err != nil {
		return err
	}

	// Phase 4: cold process, warm store. The whole pool must be served
	// without a single engine miss, and the store must fsck clean.
	fmt.Fprintf(logw, "crash: phase 4: cold restart, warm store: %d cells, expecting 0 misses\n", len(pool))
	child, url, err = startCrashChild(ctx, exe, opt.Log, dir)
	if err != nil {
		return err
	}
	client = serve.NewClient(url)
	resp, err := client.Run(ctx, pool)
	if err == nil {
		err = api.CheckIdentical(ctx, ref, pool, resp)
	}
	if err != nil {
		child.kill()
		return fmt.Errorf("crash: warm-store batch: %w", err)
	}
	h, err := client.Health(ctx)
	misses, ok := h["cache_misses"].(float64)
	if err != nil || !ok {
		child.kill()
		return fmt.Errorf("crash: healthz without cache_misses: %v", err)
	}
	if misses != 0 {
		child.kill()
		return fmt.Errorf("crash: warm-store child re-simulated %v cells, want 0 (store loads must count as hits)", misses)
	}
	if err := child.stop(); err != nil {
		return err
	}
	rep, err := store.Fsck(filepath.Join(dir, "store"))
	if err != nil {
		return fmt.Errorf("crash: fsck: %w", err)
	}
	if len(rep.Corrupt) != 0 {
		return fmt.Errorf("crash: fsck: %d corrupt objects: %v", len(rep.Corrupt), rep.Corrupt)
	}
	fmt.Fprintf(logw, "crash: ok — %d jobs survived SIGKILL, %d store objects fsck clean\n", len(ids), rep.Objects)
	return nil
}

// crashChild is one running daemon child. exited carries the single
// cmd.Wait result — every shutdown path consumes it exactly once.
type crashChild struct {
	cmd    *exec.Cmd
	exited chan error
}

// kill SIGKILLs the child and reaps it. The wait error (signal:
// killed) is the expected outcome, not a failure.
func (c *crashChild) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// stop asks the child to drain and flush (SIGTERM) and requires a
// clean exit — a child that cannot shut down gracefully would leave
// the next phase's premises unproven.
func (c *crashChild) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("crash: stopping child: %w", err)
	}
	if err := <-c.exited; err != nil {
		return fmt.Errorf("crash: child exited dirty on graceful stop: %w", err)
	}
	return nil
}

// startCrashChild re-execs the harness binary as a daemon child and
// waits for it to publish its URL.
func startCrashChild(ctx context.Context, exe string, log io.Writer, dir string) (*crashChild, string, error) {
	urlPath := filepath.Join(dir, "url")
	os.Remove(urlPath) // stale URL from a previous incarnation
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	if log != nil {
		cmd.Stderr = log
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("crash: starting child: %w", err)
	}
	child := &crashChild{cmd: cmd, exited: make(chan error, 1)}
	go func() { child.exited <- cmd.Wait() }()
	for {
		if data, err := os.ReadFile(urlPath); err == nil && len(data) > 0 {
			return child, string(bytes.TrimSpace(data)), nil
		}
		select {
		case err := <-child.exited:
			return nil, "", fmt.Errorf("crash: child exited before publishing its URL: %v", err)
		case <-ctx.Done():
			child.kill()
			return nil, "", fmt.Errorf("crash: waiting for child URL: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

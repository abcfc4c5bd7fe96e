package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// launchArg, as the first argument, turns the harness into a launcher:
// it runs the program named by the remaining arguments and writes that
// program's own cost to file descriptor 3 as one launchReport.
//
// The indirection exists for peak RSS. os/exec starts children with
// vfork, and at exec Linux folds the old address space's RSS
// high-water mark into the new program's ru_maxrss, so every direct
// child of the harness would report at least the harness's own peak
// (over 150 MiB once the giant graph's snapshot has been mapped and
// hashed). The launcher is a fresh process of a few MiB, so a CLI it
// starts reports its own peak.
const launchArg = "launch"

// launchReport is what the launcher writes on fd 3.
type launchReport struct {
	StartNS   int64 `json:"start_ns"` // Unix time just before the program started
	EndNS     int64 `json:"end_ns"`   // Unix time just after it exited
	CPUNS     int64 `json:"cpu_ns"`   // user + system
	MaxRSSKiB int64 `json:"maxrss_kib"`
}

// launch is the launcher's main. It fails, after writing its report,
// when the program exits nonzero.
func launch(args []string) error {
	if len(args) == 0 {
		return errors.New("launch: no program to run")
	}
	report := os.NewFile(3, "report")
	syscall.CloseOnExec(3)
	// Pdeathsig fires when the thread that started the child exits.
	// Pinning this goroutine keeps that thread until the process ends,
	// so killing the launcher kills the program too.
	runtime.LockOSThread()
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	if cmd.ProcessState == nil {
		return err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return errors.New("launch: the platform reports no rusage")
	}
	rep := launchReport{StartNS: start.UnixNano(), EndNS: end.UnixNano(),
		CPUNS: ru.Utime.Nano() + ru.Stime.Nano(), MaxRSSKiB: ru.Maxrss}
	if werr := json.NewEncoder(report).Encode(rep); werr != nil {
		return werr
	}
	if cerr := report.Close(); cerr != nil {
		return cerr
	}
	return err
}

// proc is one finished CLI process and what it cost.
type proc struct {
	start, end time.Time
	wall       time.Duration
	cpu        time.Duration // user + system, from the CLI's rusage
	rssMiB     float64       // peak resident set, from the CLI's rusage
	stdout     []byte
	stderr     []byte
}

// child is a started CLI process, run through the launcher. Its stderr
// is scanned for watch, so a caller can wait for a line such as a
// coordinator's listen address.
type child struct {
	name   string
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr watchWriter
	report []byte // the launcher's launchReport
	err    error
	done   chan struct{}
}

// start launches one of the built CLIs in the workload's directory.
// Cancelling ctx kills it; the caller must wait for it either way.
func (b *bench) start(ctx context.Context, watch *regexp.Regexp, name string, args ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, done: make(chan struct{})}
	c.stderr.re = watch
	c.stderr.found = make(chan string, 1)
	c.cmd = exec.CommandContext(ctx, self, slices.Concat([]string{launchArg, filepath.Join(b.bin, name)}, args)...)
	c.cmd.Dir = b.work
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	c.cmd.ExtraFiles = []*os.File{w}
	c.cmd.WaitDelay = 5 * time.Second
	err = c.cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		// The report is a few dozen bytes, well inside the pipe buffer,
		// so the launcher never blocks writing it before it exits.
		c.report, _ = io.ReadAll(r)
		r.Close()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the process exits and reports its cost. A nonzero
// exit is an error carrying the tail of the CLI's stderr.
func (c *child) wait() (*proc, error) {
	<-c.done
	p := &proc{stdout: c.stdout.Bytes(), stderr: c.stderr.bytes()}
	if c.err != nil {
		tail := p.stderr
		if len(tail) > 2048 {
			tail = tail[len(tail)-2048:]
		}
		return p, fmt.Errorf("%s: %w\n%s", c.name, c.err, tail)
	}
	var rep launchReport
	if err := json.Unmarshal(c.report, &rep); err != nil {
		return p, fmt.Errorf("%s: reading the launcher's report %q: %w", c.name, c.report, err)
	}
	p.start, p.end = time.Unix(0, rep.StartNS), time.Unix(0, rep.EndNS)
	p.wall = p.end.Sub(p.start)
	p.cpu = time.Duration(rep.CPUNS)
	p.rssMiB = float64(rep.MaxRSSKiB) / 1024 // Linux reports KiB
	return p, nil
}

// await returns the first submatch of the watched pattern, or an error
// when the process exits or the timeout passes first.
func (c *child) await(timeout time.Duration) (string, error) {
	select {
	case s := <-c.stderr.found:
		return s, nil
	case <-c.done:
		_, err := c.wait()
		return "", fmt.Errorf("%s exited before printing the awaited line: %v", c.name, err)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s printed no awaited line within %v", c.name, timeout)
	}
}

// exec runs one CLI to completion.
func (b *bench) exec(ctx context.Context, name string, args ...string) (*proc, error) {
	c, err := b.start(ctx, nil, name, args...)
	if err != nil {
		return nil, err
	}
	return c.wait()
}

// watchWriter buffers a child's stderr and delivers the first submatch
// of re on found.
type watchWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	re    *regexp.Regexp
	found chan string
	sent  bool
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.re != nil && !w.sent {
		if m := w.re.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.found <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *watchWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.buf.Bytes())
}

// repeat calls fn at least atLeast times and until the window has
// passed.
func (b *bench) repeat(ctx context.Context, atLeast int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < b.window; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points of xs by the exclusive method
// of Python's statistics.quantiles(xs, n=4); with fewer than two
// values every cut point is that value (0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

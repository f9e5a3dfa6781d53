package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rules"
	"repro/internal/telemetry"
)

// outDir holds everything a run leaves on disk: the rudolfd binary, the
// schema and rule files, the durable data directory and the trace files. It
// sits under the benchmark's own directory, on whatever real filesystem the
// checkout is on — never under the system temp dir, which is often a tmpfs
// where fsync is free and the durable workload would measure nothing.
const outDir = "benchmark/out"

func nproc() int { return runtime.NumCPU() }

// cleanup runs registered functions once, on every exit path (normal return,
// failure, SIGINT/SIGTERM): children are killed and waited for, run
// directories removed.
var cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanup.mu.Lock()
	cleanup.fns = append(cleanup.fns, fn)
	cleanup.mu.Unlock()
}

func runCleanup() {
	cleanup.mu.Lock()
	fns := cleanup.fns
	cleanup.fns = nil
	cleanup.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDaemon compiles cmd/rudolfd from the working tree. The output path is
// stable so an unchanged tree relinks nothing.
func buildDaemon() (bin string, took time.Duration, err error) {
	if _, err := os.Stat("cmd/rudolfd"); err != nil {
		return "", 0, fmt.Errorf("run from the repository root (cmd/rudolfd not found): %w", err)
	}
	bin, err = filepath.Abs(filepath.Join(outDir, "bin", "rudolfd"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rudolfd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building cmd/rudolfd: %w", err)
	}
	return bin, time.Since(start), nil
}

// prepare generates a workload's inputs and writes the schema and rule files
// a daemon boots from (so it only ever sees generated inputs) into a private
// run directory, whose removal it registers.
func prepare(w workload, seed int64, seconds int) (in *inputs, dir, schemaPath, rulesPath string, err error) {
	if in, err = newInputs(w, seed, seconds); err != nil {
		return nil, "", "", "", err
	}
	if err = os.MkdirAll(outDir, 0o755); err != nil {
		return nil, "", "", "", err
	}
	if dir, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return nil, "", "", "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, "", "", "", err
	}
	schemaPath = filepath.Join(dir, "schema.json")
	rulesPath = filepath.Join(dir, "rules.txt")
	var sb, rb bytes.Buffer
	if err = in.schema.WriteJSON(&sb); err != nil {
		return nil, "", "", "", err
	}
	if err = rules.WriteSet(&rb, in.schema, in.rules); err != nil {
		return nil, "", "", "", err
	}
	if err = os.WriteFile(schemaPath, sb.Bytes(), 0o644); err != nil {
		return nil, "", "", "", err
	}
	return in, dir, schemaPath, rulesPath, os.WriteFile(rulesPath, rb.Bytes(), 0o644)
}

// child is one rudolfd process.
type child struct {
	bin      string
	args     []string
	addrFile string
	cmd      *exec.Cmd
	exited   chan struct{} // closed once cmd has been reaped
	url      string
	client   *http.Client
}

// daemonArgs are the flags of a workload's daemon. The alert ticker is off
// and logging is at error level so neither perturbs the timed phases.
func daemonArgs(w workload, dir, schemaPath, rulesPath string) (args []string, addrFile string) {
	addrFile = filepath.Join(dir, "addr")
	args = []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-schema", schemaPath, "-rules", rulesPath,
		"-alert-interval", "-1s", "-log-level", "error",
	}
	if w.Durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync", "always", "-snapshot-interval", "-1s")
	}
	return args, addrFile
}

// startChild execs the daemon and returns once /readyz answers 200.
func startChild(bin string, args []string, addrFile string, client *http.Client) (*child, error) {
	c := &child{bin: bin, args: args, addrFile: addrFile, client: client}
	if err := c.start(); err != nil {
		return nil, err
	}
	onExit(c.kill)
	return c, nil
}

func (c *child) start() error {
	os.Remove(c.addrFile) // a stale file from before a restart would point at a dead port
	c.cmd = exec.Command(c.bin, c.args...)
	c.cmd.Stderr = os.Stderr
	// If the benchmark itself is killed, the daemon must not outlive it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("starting rudolfd: %w", err)
	}
	exited := make(chan struct{})
	c.exited = exited
	go func(cmd *exec.Cmd) { cmd.Wait(); close(exited) }(c.cmd) //nolint:errcheck // exit status is not a result here
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("rudolfd exited before becoming ready (args %v)", c.args)
		default:
		}
		if c.url == "" {
			if raw, err := os.ReadFile(c.addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
				c.url = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if c.url != "" {
			if resp, err := c.client.Get(c.url + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.kill()
	return fmt.Errorf("rudolfd not ready after 60s")
}

// kill sends SIGKILL and waits until the process is gone. Safe to repeat.
func (c *child) kill() {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-c.exited
	c.cmd = nil
	c.url = ""
}

// restart SIGKILLs the daemon and execs it again on the same arguments (and
// therefore the same data directory), returning the time from the kill to
// the first 200 from /readyz.
func (c *child) restart() (time.Duration, error) {
	start := time.Now()
	c.kill()
	if err := c.start(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// procStats reads the child's CPU time and peak resident set from /proc.
func (c *child) procStats() (cpu time.Duration, rssPeakMB float64, err error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks (100 Hz on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	cpu = time.Duration(ut+st) * (time.Second / 100)
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			rssPeakMB = kb / 1024
		}
	}
	return cpu, rssPeakMB, nil
}

// scrape fetches /metrics once and returns a lookup by full series name.
func (c *child) scrape() (func(series string) float64, error) {
	resp, err := c.client.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	text := string(page)
	return func(series string) float64 {
		v, _ := telemetry.ScrapeValue(text, series)
		return v
	}, nil
}

// fsType names the filesystem a path is on, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

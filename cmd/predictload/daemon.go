package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/acis-lab/larpredictor/internal/server"
)

// rootModule is the module whose ./cmd/predictd the benchmark builds.
const rootModule = "module github.com/acis-lab/larpredictor\n"

// findRoot walks up from dir to the repository root: the directory whose
// go.mod declares the predictd module (this benchmark's own go.mod is a
// different module and is skipped).
func findRoot(dir string) (string, error) {
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte(rootModule)) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod for github.com/acis-lab/larpredictor above the working directory")
		}
		dir = parent
	}
}

// buildPredictd compiles ./cmd/predictd from the repository at root into
// dir and returns the binary's path.
func buildPredictd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "predictd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/predictd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/predictd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running predictd process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	// ready is the time from exec to the first /healthz 200.
	ready time.Duration
	done  chan struct{} // closed once the process has exited and been reaped
	logs  *tail
}

// daemons tracks every live process so an interrupted run still stops them.
var daemons sync.Map // *daemon -> struct{}

// killAll stops every daemon still running and waits for each to exit.
func killAll() {
	daemons.Range(func(k, _ any) bool {
		k.(*daemon).kill()
		return true
	})
}

// History rings: predictd preallocates every stream's rings at their full
// size, and the defaults (512 raw steps, 16x360 and 256x360 tiers) cost
// 10,000 streams about 2.2 GB, more than this benchmark may take on a shared
// box. The traced pipeline uses the same sizing.
var (
	historyFlags  = []string{"-history-raw", "64", "-history-tiers", "16x32,256x8"}
	historyConfig = server.HistoryConfig{RawRows: 64, Tiers: []server.HistoryTier{{Steps: 16, Rows: 32}, {Steps: 256, Rows: 8}}}
)

// startDaemon execs predictd on a fresh loopback port pair over stateDir and
// waits until it serves /healthz. durability is "wal" or "snapshot";
// periodic snapshots are off so every run snapshots only when told to. The
// model flags stay at their defaults.
func startDaemon(bin, stateDir, durability string) (*daemon, error) {
	d := &daemon{done: make(chan struct{}), logs: &tail{}}
	d.cmd = exec.Command(bin, append([]string{
		"-listen", "127.0.0.1:0",
		"-binary-listen", "127.0.0.1:0",
		"-state", stateDir,
		"-durability", durability,
		"-snapshot-every", "0",
	}, historyFlags...)...)
	d.cmd.Stderr = d.logs
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start predictd: %w", err)
	}
	daemons.Store(d, struct{}{})
	addrs := make(chan [2]string, 1)
	go func() {
		var bin string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.logs.Write([]byte(line + "\n"))
			if _, a, ok := strings.Cut(line, "binary ingest on "); ok {
				bin = a
			}
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				addr, _, _ := strings.Cut(a, " ")
				addrs <- [2]string{addr, bin}
			}
		}
		io.Copy(io.Discard, stdout)
		d.cmd.Wait()
		daemons.Delete(d)
		close(d.done)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case <-d.done:
		return nil, fmt.Errorf("predictd exited before serving: %s", d.logs)
	case <-time.After(150 * time.Second):
		d.kill()
		return nil, fmt.Errorf("predictd not serving after 150s: %s", d.logs)
	}
	for {
		resp, err := http.Get("http://" + d.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("predictd exited before ready: %s", d.logs)
		case <-time.After(time.Millisecond):
		}
	}
	d.ready = time.Since(start)
	return d, nil
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// term sends SIGTERM, which makes predictd drain and write its snapshot,
// and waits for a clean exit.
func (d *daemon) term() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(120 * time.Second):
		d.kill()
		return errors.New("predictd did not exit within 120s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("predictd exited with %v: %s", d.cmd.ProcessState, d.logs)
	}
	return nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's VmHWM in MB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads the daemon's /metrics and sums each series by metric name
// plus, for labelled series, name{labels}.
func scrape(ctx context.Context, c *http.Client, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] += v
		if name, _, ok := strings.Cut(series, "{"); ok {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// waitIdle polls the daemon's /metrics until its shard workers have taken
// every accepted sample off their queues. Without a WAL an ack returns at
// enqueue, so the last ack of a phase can come before its samples are
// stepped. A worker locks its shard right after it takes a batch and steps
// the batch under that lock, which reads of a stream's state also take, so
// the reads that follow waitIdle see every sample stepped.
func waitIdle(ctx context.Context, c *http.Client, addr string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := scrape(ctx, c, addr)
		if err != nil {
			return err
		}
		taken, accepted := m["larpredictor_engine_batch_size_sum"], m["larpredictor_engine_ingested_total"]
		if taken >= accepted {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine still busy after 60s: %.0f of %.0f accepted samples taken", taken, accepted)
		}
		time.Sleep(time.Millisecond)
	}
}

// tail keeps the last few KB a daemon wrote, for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4096:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is the server under test: its base URL, the process whose CPU time
// and memory are charged to it, and how to stop it.
type target struct {
	base string
	pid  int
	stop func() error
}

// buildServer compiles the checkout's ./cmd/rankserve into bin.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rankserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building rankserve: %w", err)
	}
	return nil
}

// startServer execs rankserve on a free loopback port with the workload's
// GOMAXPROCS and flags, and returns once the server answers /healthz.
//
// The server runs at the lowest CPU priority (nice 19), so that when it keeps
// both vCPUs busy (agg-cached) the generator still wakes on time; at equal
// priority its p99 dispatch lag there was 2.0-3.2 ms, above the 2 ms a valid
// run allows, and 1.4 ms at nice 19. Latency is timed from the due time, so
// the server is still charged for any time the generator held a CPU.
func startServer(bin string, w *workload, client *http.Client) (*target, error) {
	args := []string{"-addr", "127.0.0.1:0", "-trace-sample", "0"}
	if w.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.workers))
	}
	if w.queueDepth > 0 {
		args = append(args, "-queue-depth", strconv.Itoa(w.queueDepth))
	}
	cmd := exec.Command("nice", append([]string{"-n", "19", bin}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.procs))
	// A harness killed mid-run takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rankserve: %w", err)
	}
	addr := make(chan string, 1)
	exited := make(chan error, 1)
	go func() {
		// Drain stderr to EOF (the server's exit) before Wait, as os/exec
		// requires; the first "listening on" line carries the address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // only draining
		exited <- cmd.Wait()
	}()
	t := &target{pid: cmd.Process.Pid}
	t.stop = func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return err
		}
		select {
		case <-exited:
			return nil
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // the wait below reports the outcome
			<-exited
			return fmt.Errorf("rankserve ignored SIGTERM for 15s; killed")
		}
	}
	select {
	case a := <-addr:
		t.base = "http://" + a
	case err := <-exited:
		return nil, fmt.Errorf("rankserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("rankserve did not report its address within 30s")
	}
	if err := waitHealthy(client, t.base); err != nil {
		t.stop() //nolint:errcheck // already failing
		return nil, err
	}
	return t, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only draining
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after 10s (last error: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTicksPerSec is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicksPerSec = 100

// cpuTicks returns the process's utime+stime in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return utime + stime, nil
}

// peakRSSKB returns the process's VmHWM (peak resident set) in KiB.
func peakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverCounters is what the harness reads from the server between phases:
// CPU time from /proc, cache traffic from /stats, allocation and GC totals
// from the expvar memstats.
type serverCounters struct {
	ticks      int64
	hits       int64
	misses     int64
	totalAlloc uint64
	numGC      uint32
}

func readCounters(client *http.Client, t *target) (serverCounters, error) {
	var c serverCounters
	var err error
	if c.ticks, err = cpuTicks(t.pid); err != nil {
		return c, err
	}
	var stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := getJSON(client, t.base+"/stats", &stats); err != nil {
		return c, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc uint64 `json:"TotalAlloc"`
			NumGC      uint32 `json:"NumGC"`
		} `json:"memstats"`
	}
	if err := getJSON(client, t.base+"/debug/vars", &vars); err != nil {
		return c, err
	}
	c.hits, c.misses = stats.Cache.Hits, stats.Cache.Misses
	c.totalAlloc, c.numGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	return c, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

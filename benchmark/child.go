package main

import (
	"bufio"
	"bytes"
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
)

// command builds a child process that is killed if the harness dies
// first, so an interrupted run leaves no process behind.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runCLI runs the mergescale binary to completion and returns its stdout
// and resource usage. A non-zero exit is an error carrying the last
// stderr line.
func runCLI(bin string, args ...string) ([]byte, *syscall.Rusage, error) {
	cmd := command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "),
			err, lastLine(stderr.String()))
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return stdout.Bytes(), ru, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// server is a `mergescale ... serve` child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the child's stderr reaches EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports

	stopOnce sync.Once
	stopErr  error
}

// startServer boots `bin args... serve` on an ephemeral localhost port and
// waits until /readyz answers 200.
func startServer(bin string, args ...string) (*server, error) {
	args = append(append([]string(nil), args...), "serve", "-addr", "127.0.0.1:0")
	cmd := command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("serving on "):]):
				default:
				}
			}
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 8 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.url = <-addr:
	case <-s.done:
		_ = s.stop()
		return nil, fmt.Errorf("server exited before listening: %s", s.stderrTail())
	case <-time.After(15 * time.Second):
		_ = s.stop()
		return nil, errors.New("server did not listen within 15s")
	}
	if err := waitReady(s.url); err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop sends SIGTERM, kills the child if it has not exited after 15s,
// and waits for it. It is safe to call more than once.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		if err := s.cmd.Wait(); err != nil {
			s.stopErr = fmt.Errorf("server exit: %v: %s", err, s.stderrTail())
		}
	})
	return s.stopErr
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(s.cmd.Process.Pid)
}

// cpuTime reads the child's user plus system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks uint64
	for _, v := range f[11:13] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cpuStat is the machine's CPU time from the first line of /proc/stat,
// in ticks: all of it, and the part the hypervisor stole from this
// virtual machine.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st cpuStat
	for i, v := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		st.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			st.steal = n
		}
	}
	return st
}

// stealPct is the share of CPU time stolen between two readings. Wall
// times track it: a run that shows much of it measured a busy host.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// vmHWM reads a process's peak resident set from /proc in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not in /proc status")
}

// waitReady polls url/readyz until it answers 200, for at most 15s.
func waitReady(url string) error {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready within 15s (last error: %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newClient is the harness's own HTTP client: keep-alive over at most
// conns connections, no proxy, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// opHeader carries the op index, so an in-process traced server can match
// its handler time to the client's latency.
const opHeader = "X-Bench-Op"

// do sends one request and returns the body of a 200 response.
func do(hc *http.Client, method, url string, op int, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, lastLine(string(b)))
	}
	return b, nil
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chatiyp/internal/api"
)

// serverProc is one chatiyp-server process started by the benchmark.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	dataDir string
	started time.Time
	done    chan struct{} // closed once the process has exited
	waitErr error
	ready   api.ReadyResponse
}

// serverSpec says how to start the server: the binary, flags beyond
// -addr, extra environment, and where its output goes.
type serverSpec struct {
	bin     string
	args    []string
	env     []string
	logPath string
	dataDir string // passed as -data-dir when set
}

// probe is a one-connection-per-request client for health and metrics
// calls, so they never share the load's keep-alive connections.
var probe = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server and polls /v1/health/ready until the
// first 200. It returns the time from spawn to that answer.
func startServer(spec serverSpec) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(spec.logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, spec.args...)
	if spec.dataDir != "" {
		args = append(args, "-data-dir", spec.dataDir)
	}
	cmd := exec.Command(spec.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), spec.env...)
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{
		cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), logPath: spec.logPath,
		dataDir: spec.dataDir, done: make(chan struct{}),
	}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", spec.bin, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	deadline := p.started.Add(120 * time.Second)
	for {
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("server exited before it was ready (%v); log:\n%s", p.waitErr, logTail(spec.logPath))
		default:
		}
		if ok := p.pollReady(); ok {
			return p, time.Since(p.started), nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("server not ready after 120s; log:\n%s", logTail(spec.logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) pollReady() bool {
	resp, err := probe.Get(p.base + "/v1/health/ready")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return json.NewDecoder(resp.Body).Decode(&p.ready) == nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM (the server drains, checkpoints its data
// directory and exits) and waits; after 30 s it kills the process.
func (p *serverProc) stop() error {
	select {
	case <-p.done:
		return p.waitErr
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.waitErr
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("server ignored SIGTERM for 30s and was killed")
	}
}

func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3 (state). utime and stime
	// are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatus returns one field of /proc/<pid>/status, e.g. VmHWM.
func procStatus(pid int, field string) (string, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// peakRSSMB is the process's high-water resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, err
	}
	return kb / 1024, nil
}

// allowedCPUs counts the CPUs a process may run on; Go sets GOMAXPROCS
// to this when the GOMAXPROCS variable is unset.
func allowedCPUs(pid int) int {
	v, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return 0
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0
			}
		}
		n += b - a + 1
	}
	return n
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// counters is one /v1/metrics scrape: counters, gauges and timing
// summaries by name.
type counters map[string]int64

func scrapeMetrics(base string) (counters, error) {
	resp, err := probe.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics answered %d", resp.StatusCode)
	}
	var body struct {
		Counters counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return body.Counters, nil
}

// delta is after−before for one counter over the measured window.
func delta(before, after counters, name string) float64 {
	return float64(after[name] - before[name])
}

// deltaMatching sums the window deltas of every counter whose name has
// the prefix and the suffix.
func deltaMatching(before, after counters, prefix, suffix string) float64 {
	var sum float64
	for name, v := range after {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += float64(v - before[name])
		}
	}
	return sum
}

// gcCPU sums the CPU time that GC cycles starting between from and to
// (seconds since the server started) spent, as printed by the runtime
// under GODEBUG=gctrace=1:
//
//	gc 7 @2.051s 3%: 0.02+1.1+0.01 ms clock, 0.05+0.3/0.9/0.1+0.02 ms cpu, ...
func gcCPU(logPath string, from, to float64) (time.Duration, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var total float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "gc" || !strings.HasPrefix(fields[2], "@") {
			continue
		}
		at, err := strconv.ParseFloat(strings.TrimSuffix(fields[2][1:], "s"), 64)
		if err != nil || at < from || at > to {
			continue
		}
		for i := 4; i+2 < len(fields); i++ {
			if fields[i+1] == "ms" && fields[i+2] == "cpu," {
				total += sumGCFields(fields[i])
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return time.Duration(total * float64(time.Millisecond)), nil
}

// sumGCFields adds up a gctrace CPU field such as "0.05+0.3/0.9/0.1+0.02".
func sumGCFields(s string) float64 {
	var sum float64
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == '+' || r == '/' }) {
		if v, err := strconv.ParseFloat(part, 64); err == nil {
			sum += v
		}
	}
	return sum
}

// cpuSteal reads the machine's total and stolen CPU time from
// /proc/stat, in clock ticks. Stolen time is time a virtual CPU was
// ready to run while the hypervisor ran something else.
func cpuSteal() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

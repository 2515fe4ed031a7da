package main

// child.go owns the server under test: building the binary, probing its
// flag set, starting and stopping it as a child process, and reading
// its CPU and memory from /proc. The benchmark depends only on the
// binary's command line and HTTP surface.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the checkout root from the working directory: the
// contract runs the benchmark from the root, `go test` from bench/.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "seraph-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/seraph-server under %s or its parent: run from the repository root", wd)
}

// buildServer compiles cmd/seraph-server into <root>/.bench_build and
// returns the binary path and the build time (reported, never part of
// setup_s).
func buildServer(root string) (string, time.Duration, error) {
	out := filepath.Join(root, ".bench_build", "seraph-server")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/seraph-server")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build seraph-server: %w\n%s", err, b)
	}
	return out, time.Since(start), nil
}

var flagLine = regexp.MustCompile(`(?m)^\s+-([A-Za-z0-9][A-Za-z0-9_-]*)`)

// parseFlagHelp extracts the flag names from `-h` output of a program
// using the standard flag package.
func parseFlagHelp(help string) map[string]bool {
	defined := map[string]bool{}
	for _, m := range flagLine.FindAllStringSubmatch(help, -1) {
		defined[m[1]] = true
	}
	return defined
}

func probeFlags(bin string) (map[string]bool, error) {
	// -h exits 0 or 2 depending on the flag package's error handling;
	// only the text matters.
	out, err := exec.Command(bin, "-h").CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, fmt.Errorf("probe flags: %w", err)
	}
	defined := parseFlagHelp(string(out))
	if len(defined) == 0 {
		return nil, fmt.Errorf("probe flags: no flags found in %q -h output", bin)
	}
	return defined, nil
}

// filterFlags drops every "-name [value]" group whose name the binary
// does not define and returns what was dropped.
func filterFlags(defined map[string]bool, groups [][]string) (args, skipped []string) {
	for _, g := range groups {
		if defined[strings.TrimLeft(g[0], "-")] {
			args = append(args, g...)
		} else {
			skipped = append(skipped, g[0])
		}
	}
	return args, skipped
}

// child is one running server process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *os.File
	exited chan struct{}
}

// live tracks the running child so a failure or SIGINT anywhere can
// kill it.
var live struct {
	sync.Mutex
	c *child
}

func killLive() {
	live.Lock()
	c := live.c
	live.Unlock()
	if c != nil {
		c.kill()
	}
}

// freePort asks the kernel for an unused loopback port. The server has
// no way to report a port it picked itself (-addr 127.0.0.1:0 logs the
// flag value), so the harness picks one and hands it over.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild execs the server and waits for /healthz. The returned
// time is the exec instant, the zero point of setup_s and restart_s.
func startChild(bin string, args []string, stderrPath string) (*child, time.Time, error) {
	port, err := freePort()
	if err != nil {
		return nil, time.Time{}, err
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, time.Time{}, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, time.Time{}, fmt.Errorf("start server: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, stderr: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(c.exited)
	}()
	live.Lock()
	live.c = c
	live.Unlock()

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := t0.Add(20 * time.Second)
	for {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, t0, nil
			}
		}
		select {
		case <-c.exited:
			return nil, time.Time{}, fmt.Errorf("server exited during start-up; see %s", stderrPath)
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, time.Time{}, fmt.Errorf("server not healthy after 20s; see %s", stderrPath)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) reap() {
	<-c.exited
	c.stderr.Close()
	live.Lock()
	if live.c == c {
		live.c = nil
	}
	live.Unlock()
}

// kill is SIGKILL: the crash the durable workloads recover from.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	c.reap()
}

// terminate is SIGTERM and waits for the graceful drain (final
// checkpoint in durable mode).
func (c *child) terminate() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		c.reap()
		return nil
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("server ignored SIGTERM for 30s")
	}
}

// clockTick is the kernel's USER_HZ; /proc/<pid>/stat counts CPU time
// in these. It has been 100 on every Linux port Go supports.
const clockTick = 100

// parseProcStat returns user and system CPU seconds from the content of
// /proc/<pid>/stat. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (user, sys float64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("non-numeric CPU fields in /proc stat")
	}
	return u / clockTick, s / clockTick, nil
}

func (c *child) cpu() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStatusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func parseProcStatusKB(status []byte, key string) (float64, bool) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(key+":")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(string(f[0]), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// rssMB returns the peak (VmHWM) and current (VmRSS) resident set.
func (c *child) rssMB() (peak, now float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, 0, err
	}
	hwm, ok1 := parseProcStatusKB(b, "VmHWM")
	rss, ok2 := parseProcStatusKB(b, "VmRSS")
	if !ok1 || !ok2 {
		return 0, 0, errors.New("no VmHWM/VmRSS in /proc status")
	}
	return hwm / 1024, rss / 1024, nil
}

// fsType names the filesystem holding dir. fsync on tmpfs is a no-op,
// which makes every WAL timing meaningless there.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file compacted away mid-walk is not an error
	})
	return n
}

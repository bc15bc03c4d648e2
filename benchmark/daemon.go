package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the harness keeps everything it writes besides
// benchmark/out: the daemon binary and per-run scratch. Relative to the
// module root, and git-ignored there.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the go.mod that
// declares module minicost, so `go run ./benchmark` from the root and
// `go test` from benchmark/ both find the tree to build.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module minicost\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module minicost above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/minicostd from the working tree into buildDir
// and returns the binary's path.
func buildDaemon(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "minicostd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/minicostd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build minicostd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one live minicostd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once cmd.Wait has reaped the child
	waitErr error         // cmd.Wait's result; read after exited closes
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; startDaemon retries on the rare race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots minicostd from the checkpoint on a free loopback port
// with GOMAXPROCS pinned to procs, and returns once /healthz answers. The
// child's stderr goes to a file under dir that failureLog reads back.
func startDaemon(bin, dir, checkpoint string, procs int, extra ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logPath := filepath.Join(dir, fmt.Sprintf("minicostd-%d.log", port))
		logFile, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := append([]string{"-addr", addr, "-checkpoint", checkpoint}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stdout = logFile
		cmd.Stderr = logFile
		d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
		err = cmd.Start()
		logFile.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("start minicostd: %w", err)
		}
		go func() {
			d.waitErr = cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		lastErr = fmt.Errorf("%w\n%s", lastErr, d.failureLog())
		_ = d.stop()
	}
	return nil, lastErr
}

// waitHealthy polls /healthz until it answers 200, the child exits, or the
// deadline passes.
func (d *daemon) waitHealthy(deadline time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	for until := time.Now().Add(deadline); time.Now().Before(until); {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return errors.New("minicostd exited before /healthz answered")
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("minicostd not healthy on %s after %s", d.base, deadline)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the child if
// it has not exited after 15 s. It returns once the process is reaped.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // errors once the child is gone; exited covers that
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("minicostd ignored SIGTERM for 15s; killed")
	}
}

// failureLog returns the child's stderr so far, for error reports only.
func (d *daemon) failureLog() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	return "--- minicostd log ---\n" + string(b)
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return procPeakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// procPeakRSSMB reads VmHWM of /proc/<pid>/status; pid may be "self".
func procPeakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 for every architecture Go supports.
const clockTick = 100

// cpuSeconds reads the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat CPU fields")
	}
	return (utime + stime) / clockTick, nil
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

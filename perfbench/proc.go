package main

import (
	"bytes"
	"encoding/json"
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
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark starts, so that any exit
// path kills and reaps them.
var children struct {
	sync.Mutex
	procs map[*serverProc]bool
}

func killAll() {
	children.Lock()
	ps := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// serverProc is one onionserve process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	args []string
	done chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, args: args, done: make(chan struct{})}
	for i, a := range args {
		if a == "-addr" && i+1 < len(args) {
			p.addr = args[i+1]
		}
	}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*serverProc]bool{}
	}
	children.procs[p] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		children.Lock()
		delete(children.procs, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

// kill sends SIGKILL and returns once the process is reaped.
func (p *serverProc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if already gone
	<-p.done
}

// stop sends SIGTERM and waits for a graceful exit; after timeout it
// kills the process and reports an error.
func (p *serverProc) stop(timeout time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.done:
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("server on %s did not stop within %v of SIGTERM", p.addr, timeout)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// waitReady polls /v1/healthz/ready until it answers 200.
func waitReady(hc *http.Client, p *serverProc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + p.addr + "/v1/healthz/ready"
	for {
		select {
		case <-p.done:
			return errors.New("server exited before it was ready")
		default:
		}
		resp, err := hc.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server on %s not ready after %v", p.addr, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func runCmd(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return nil
}

// procCPU returns the user plus system CPU time of a process.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// resetHWM restarts a process's peak-RSS accounting (Linux clear_refs
// code 5), so VmHWM then covers only what follows.
func resetHWM(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procHWM returns a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// serverVars is a flattened /v1/metrics snapshot: nested groups become
// "group.key", numbers become float64.
type serverVars map[string]any

func fetchVars(hc *http.Client, addr string) (serverVars, error) {
	resp, err := hc.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	out := serverVars{}
	var flatten func(prefix string, m map[string]any)
	flatten = func(prefix string, m map[string]any) {
		for k, v := range m {
			if sub, ok := v.(map[string]any); ok {
				flatten(prefix+k+".", sub)
				continue
			}
			out[prefix+k] = v
		}
	}
	flatten("", raw)
	return out, nil
}

func (v serverVars) num(key string) float64 {
	f, _ := v[key].(float64)
	return f
}

func (v serverVars) str(key string) string {
	s, _ := v[key].(string)
	return s
}

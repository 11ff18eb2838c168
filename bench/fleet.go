package main

import (
	"bytes"
	"context"
	"fmt"
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

// readyDeadline bounds how long a child may take to answer /readyz 200.
const readyDeadline = 60 * time.Second

// child is one fleet process. Its stdout and stderr go to logPath; the
// tail is printed when the fleet fails to come up.
type child struct {
	name    string
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan struct{} // closed once the process has been reaped
}

// fleet is the routed deployment under test: rrc-router in front of one
// rrc-server primary and, for the replicated workload, one -follow
// standby. Every request of a measured window enters through router.
type fleet struct {
	router  *child
	primary *child
	standby *child // nil unless the workload replicates
	dir     string // this fleet's private events dirs and logs
}

// buildChildren compiles rrc-server and rrc-router from the checkout at
// root into binDir. The benchmark never runs a binary it did not just
// build from the tree it sits in.
func buildChildren(ctx context.Context, root, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/rrc-server", "./cmd/rrc-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build children: %w\n%s", err, out)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts one child with its output captured to dir/<name>.log.
// Pdeathsig makes the kernel kill the child if the harness dies without
// running its cleanup.
func spawn(dir, name, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child reports its signal; nothing to act on
		close(c.done)
	}()
	return c, nil
}

// kill stops the child and waits until it has exited. The events dir is
// a throw-away copy, so there is nothing a graceful drain would save.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill() // an already-exited child is fine: done closes either way
	<-c.done
}

// logTail returns the last lines of the child's captured output.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// awaitReady polls /readyz until it answers 200, the child exits, the
// deadline passes or ctx is cancelled.
func (c *child) awaitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(readyDeadline)
	for {
		if resp, err := client.Get(c.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready on %s within %s; log tail:\n%s",
				c.name, c.base, readyDeadline, c.logTail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready; log tail:\n%s", c.name, c.logTail())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// bootFleet copies the fixture's events dir, starts the server(s) and
// then the router (the router probes its nodes once at start, so it is
// ready at once when they are), and returns when the router answers
// /readyz 200. On any failure every started child is killed.
func bootFleet(ctx context.Context, fx *fixture, binDir, dir string, replicated bool) (f *fleet, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	server := func(name string, extra ...string) (*child, error) {
		events := filepath.Join(dir, name+"-events")
		if err := copyTree(fx.eventsDir, events); err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := append([]string{
			"-model", fx.modelPath, "-addr", addr, "-events-dir", events,
			"-shards", strconv.Itoa(shards), "-window", strconv.Itoa(windowCap),
			"-omega", strconv.Itoa(omega), "-max-sessions", strconv.Itoa(maxSessions),
			"-fsync", "always",
		}, extra...)
		c, err := spawn(dir, name, filepath.Join(binDir, "rrc-server"), args...)
		if err != nil {
			return nil, err
		}
		c.base = "http://" + addr
		return c, nil
	}
	// Primary and standby load the model side by side; the standby's
	// tailers retry until the primary listens.
	if f.primary, err = server("primary"); err != nil {
		return f, err
	}
	nodes := f.primary.base
	if replicated {
		if f.standby, err = server("standby", "-follow", f.primary.base); err != nil {
			return f, err
		}
		nodes += "," + f.standby.base
	}
	for _, c := range f.children() {
		if err = c.awaitReady(ctx, client); err != nil {
			return f, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return f, err
	}
	if f.router, err = spawn(dir, "router", filepath.Join(binDir, "rrc-router"), "-addr", addr, "-nodes", nodes); err != nil {
		return f, err
	}
	f.router.base = "http://" + addr
	err = f.router.awaitReady(ctx, client)
	return f, err
}

// children lists the fleet's processes, router first.
func (f *fleet) children() []*child {
	out := []*child{}
	for _, c := range []*child{f.router, f.primary, f.standby} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// stop kills every child, waits for each, and removes the fleet's dir.
func (f *fleet) stop() {
	for _, c := range f.children() {
		c.kill()
	}
	_ = os.RemoveAll(f.dir) // best effort; the work dir is removed at exit anyway
}

// commandLines returns the exact argv of every child, for the record.
func (f *fleet) commandLines() [][]string {
	var out [][]string
	for _, c := range f.children() {
		out = append(out, c.cmd.Args)
	}
	return out
}

// procUsage is one process's consumed CPU and high-water memory, read
// from /proc: a capacity cost that moving work between the router and
// the server cannot hide.
type procUsage struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux port Go supports.
const clockTick = 100

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, fields[11], fields[12])
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			u.hwmKB, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
		}
	}
	return u, nil
}

// usage reads every child's procUsage, in children() order.
func (f *fleet) usage() ([]procUsage, error) {
	var out []procUsage
	for _, c := range f.children() {
		u, err := readUsage(c.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

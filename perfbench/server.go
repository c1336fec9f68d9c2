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
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running sfcserved process.
type child struct {
	cmd      *exec.Cmd
	api, ops string // host:port of the request and ops listeners
	dataDir  string // removed after the process stops

	mu    sync.Mutex
	lines [][]byte // stderr lines after the banner (kept only when traced)
	tail  []string // last stderr lines, for error reports
	keep  bool

	banner chan struct{} // closed once api/ops are known
	done   chan struct{} // closed when stderr reaches EOF
	exit   chan error    // the process's Wait result
}

var bannerRE = regexp.MustCompile(`serving on http://(\S+) \(ops http://([^)\s]+)\)`)

// startServer execs bin with flags on OS-chosen ports and returns once
// the banner names both listeners. With keep set, every later stderr
// line (the JSON access log) is retained for the traced analysis.
func startServer(ctx context.Context, bin string, flags []string, keep bool) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-ops", "127.0.0.1:0"}, flags...)
	c := &child{
		cmd:    exec.Command(bin, args...),
		keep:   keep,
		banner: make(chan struct{}),
		done:   make(chan struct{}),
		exit:   make(chan error, 1),
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sfcserved: %w", err)
	}
	go c.readStderr(stderr)
	go func() {
		<-c.done // Wait closes the pipe; drain it first
		c.exit <- c.cmd.Wait()
	}()
	select {
	case <-c.banner:
		return c, nil
	case <-c.done:
		err = fmt.Errorf("sfcserved exited before serving: %s", c.lastLines())
	case <-ctx.Done():
		err = ctx.Err()
	case <-time.After(30 * time.Second):
		err = errors.New("sfcserved printed no banner within 30s")
	}
	c.kill()
	return nil, err
}

func (c *child) readStderr(r io.Reader) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 64<<20) // slow-log span dumps are long lines
	seen := false
	for sc.Scan() {
		line := sc.Bytes()
		c.mu.Lock()
		if len(c.tail) == 8 {
			c.tail = c.tail[1:]
		}
		c.tail = append(c.tail, string(line[:min(len(line), 300)]))
		if seen && c.keep {
			c.lines = append(c.lines, bytes.Clone(line))
		}
		c.mu.Unlock()
		if !seen {
			if m := bannerRE.FindSubmatch(line); m != nil {
				c.api, c.ops = string(m[1]), string(m[2])
				seen = true
				close(c.banner)
			}
		}
	}
	// A scanner error (an over-long line) must not leave the child
	// blocked on a full pipe.
	io.Copy(io.Discard, r) //nolint:errcheck // draining only
}

func (c *child) lastLines() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, " | ")
}

// logLines returns the retained access-log lines.
func (c *child) logLines() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+c.api+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return fmt.Errorf("sfcserved exited: %s", c.lastLines())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("sfcserved not ready within 30s")
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for the drained exit; a process that
// outlives the grace period is killed. It returns only after the
// process and its stderr reader have ended.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	select {
	case err := <-c.exit:
		if err != nil {
			return fmt.Errorf("sfcserved shutdown: %v: %s", err, c.lastLines())
		}
		return nil
	case <-time.After(20 * time.Second):
		c.kill()
		return errors.New("sfcserved did not drain within 20s; killed")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-c.done
	select {
	case <-c.exit:
	case <-time.After(10 * time.Second):
	}
}

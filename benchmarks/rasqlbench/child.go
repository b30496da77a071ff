package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running rasqld.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// stderr collects what the child printed after the listen line, read when
	// it exits.
	stderr   strings.Builder
	stderrWG sync.WaitGroup
}

// childArgs is the rasqld command line: only the listen address and the
// tables, so everything else runs with the defaults users get.
func childArgs(tableFlags []string) []string {
	return append([]string{"-listen", "127.0.0.1:0"}, tableFlags...)
}

// startChild execs rasqld and returns once it has printed the address it
// serves on, which it does after loading every table.
func startChild(bin string, tableFlags []string) (*child, error) {
	c := &child{cmd: exec.Command(bin, childArgs(tableFlags)...)}
	// Should the benchmark itself be killed, the child goes with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	r := bufio.NewReader(pipe)
	for c.base == "" {
		line, err := r.ReadString('\n')
		if i := strings.Index(line, "on http://"); i >= 0 {
			addr := line[i+len("on "):]
			c.base = addr[:strings.IndexAny(addr, " \n")]
			break
		}
		c.stderr.WriteString(line)
		if err != nil {
			_ = c.cmd.Process.Kill()
			_ = c.cmd.Wait()
			return nil, fmt.Errorf("rasqld exited before listening: %s", c.stderr.String())
		}
	}
	c.stderrWG.Add(1)
	go func() {
		defer c.stderrWG.Done()
		_, _ = io.Copy(&c.stderr, r)
	}()
	return c, nil
}

// stop sends SIGTERM and requires the clean drain rasqld promises: exit
// status 0 and the "drained cleanly" line.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal rasqld: %w", err)
	}
	// A child that ignores the signal is killed, which Wait then reports.
	timer := time.AfterFunc(20*time.Second, func() { _ = c.cmd.Process.Kill() })
	defer timer.Stop()
	c.stderrWG.Wait() // the pipe must be drained before Wait closes it
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("rasqld did not exit cleanly: %w: %s", err, c.stderr.String())
	}
	if !strings.Contains(c.stderr.String(), "drained cleanly") {
		return fmt.Errorf("rasqld exited without draining cleanly: %s", c.stderr.String())
	}
	return nil
}

// kill ends the child without ceremony, for error paths.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	c.stderrWG.Wait()
	_ = c.cmd.Wait()
}

// cpuSeconds is the user plus system CPU time the child has used so far.
func (c *child) cpuSeconds() (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(stat)
}

// memoryMB reads VmRSS, the child's resident set, or VmHWM, its high-water
// mark, in MiB.
func (c *child) memoryMB(key string) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(status, key)
	return kb / 1024, err
}

// buildRasqld compiles cmd/rasqld of the module in the working directory into
// dir. It is not timed: set-up time starts at exec.
func buildRasqld(dir string) (string, error) {
	bin := dir + "/rasqld"
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/rasqld").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/rasqld: %w: %s", err, out)
	}
	return bin, nil
}

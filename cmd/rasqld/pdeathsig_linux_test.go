package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the re-executed child when the test
// binary dies, so a go test timeout cannot leave an orphaned rasqld.test
// serving in the background.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the test's own cleanup still kills the child on every normal exit.
func dieWithParent(*exec.Cmd) {}

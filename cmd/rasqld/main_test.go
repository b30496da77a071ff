package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for rasqld: re-executed with
// RASQLD_TEST_MAIN set, it runs main() on the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("RASQLD_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSignalHandlerInstalledBeforeListen pins the order that closes the
// start-up race: main calls signal.Notify before net.Listen, hence before the
// address line anyone could react to. The window is a few microseconds wide,
// so only the source order catches the handler being moved back every time.
func TestSignalHandlerInstalledBeforeListen(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				name := pkg.Name + "." + sel.Sel.Name
				if _, seen := first[name]; !seen {
					first[name] = call.Pos()
				}
			}
		}
		return true
	})
	notify, listen := first["signal.Notify"], first["net.Listen"]
	if !notify.IsValid() || !listen.IsValid() {
		t.Fatalf("main.go: signal.Notify at %v, net.Listen at %v: both must be called", fset.Position(notify), fset.Position(listen))
	}
	if notify > listen {
		t.Fatalf("signal.Notify (%v) comes after net.Listen (%v): a SIGTERM right after the address line would kill rasqld undrained",
			fset.Position(notify), fset.Position(listen))
	}
}

// TestSIGTERMRightAfterAddressLineDrains drives the same race end to end: a
// supervisor (or the benchmark) that reads the address line may signal at
// once, and the server must drain — exit 0, "drained cleanly" — instead of
// dying on the default SIGTERM action. It is a smoke test: the signal usually
// lands after even a late signal.Notify, so it passes on the unfixed order
// most of the time; TestSignalHandlerInstalledBeforeListen is the pin.
func TestSIGTERMRightAfterAddressLineDrains(t *testing.T) {
	for i := 0; i < 5; i++ {
		cmd := exec.Command(os.Args[0], "-demo", "-listen", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "RASQLD_TEST_MAIN=1")
		dieWithParent(cmd)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Whatever happens below, the child does not outlive the test, and a
		// child that hangs does not hang the scan.
		t.Cleanup(func() { _ = cmd.Process.Kill() })
		kill := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
		sc := bufio.NewScanner(stderr)
		var log []string
		signalled := false
		for sc.Scan() {
			log = append(log, sc.Text())
			if !signalled && strings.Contains(sc.Text(), "rasqld: serving") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				signalled = true
			}
		}
		err = cmd.Wait()
		kill.Stop()
		out := strings.Join(log, "\n")
		if !signalled {
			t.Fatalf("run %d: no address line:\n%s", i, out)
		}
		if err != nil {
			t.Fatalf("run %d: SIGTERM right after the address line: %v, want exit 0:\n%s", i, err, out)
		}
		if !strings.Contains(out, "drained cleanly") {
			t.Fatalf("run %d: exit 0 without a drain:\n%s", i, out)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for premcheck: re-executed with
// PREMCHECK_TEST_MAIN set, it runs main() on the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("PREMCHECK_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// premcheck runs main() in a child process and returns its exit code and
// combined output.
func premcheck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PREMCHECK_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("premcheck %v: %v", args, err)
	return 0, ""
}

// TestScriptRedefinesView: a script may define a view twice — the second
// definition replaces the first, as under rasql and Vet — and the dynamic
// check runs the program those run.
func TestScriptRedefinesView(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "edges.csv")
	if err := os.WriteFile(csv, []byte("Src,Dst,Cost\n1,2,1\n2,3,2\n1,3,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const script = `CREATE VIEW e2(Src, Dst, Cost) AS (SELECT Src, Dst, Cost FROM edge);
CREATE VIEW e2(Src, Dst, Cost) AS (SELECT Src, Dst, Cost FROM edge WHERE Cost > 0);
WITH recursive path (Dst, min() AS Cost) AS (SELECT 1, 0) UNION
    (SELECT e2.Dst, path.Cost + e2.Cost FROM path, e2 WHERE path.Dst = e2.Src)
SELECT Dst, Cost FROM path`
	code, out := premcheck(t, "-table", "edge="+csv+":Src int,Dst int,Cost double", "-q", script)
	if code != ExitHolds || !strings.Contains(out, "PreM holds") {
		t.Fatalf("exit %d, want %d (holds):\n%s", code, ExitHolds, out)
	}
}

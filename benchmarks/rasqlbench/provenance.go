package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"github.com/rasql/rasql-go/internal/cluster"
)

// provenance says what produced a set of numbers: every output starts with
// it, so a row can be compared with another only when these agree.
type provenance struct {
	GitSHA      string   `json:"git_sha"`
	GitDirty    bool     `json:"git_dirty"`
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPUModel    string   `json:"cpu_model"`
	Kernel      string   `json:"kernel"`
	Seed        int64    `json:"seed"`
	Rounds      string   `json:"rounds"`
	PerRound    []string `json:"requests_per_round"`
	HostRefMS   float64  `json:"host_ref_nominal_ms"`
	RasqldArgs  []string `json:"rasqld_args"`
	RasqldUsing string   `json:"rasqld_defaults"`
}

func gatherProvenance(b *bench, timedRounds int) provenance {
	p := provenance{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Seed:       b.seed,
		HostRefMS:  hostRefNominalMS,
		Rounds:     fmt.Sprintf("1 warm-up and %d timed", timedRounds),
		RasqldArgs: append([]string{"rasqld"}, childArgs(b.tableFlags)...),
	}
	// Outside a git checkout (the pipeline's copy is none) the commit is
	// unknown to the benchmark; whoever runs it there knows it.
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(sha))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		p.GitDirty = err != nil || len(bytes.TrimSpace(status)) > 0
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(rel))
	}
	for _, w := range b.workloads {
		p.PerRound = append(p.PerRound, fmt.Sprintf("%s=%dx%d/%d", w.name, w.clients, w.perRound, w.perSlice))
	}
	// What the bare command line implies, for a rasqld that inherits this
	// process's GOMAXPROCS: the cluster's size as the cluster package itself
	// fills in a zero Config, the plan cache's as a test holds it to
	// server.Config's default, admission as server.Config documents it.
	cl := cluster.New(cluster.Config{}).Config()
	p.RasqldUsing = fmt.Sprintf("workers=%d partitions=%d plan-cache=%d max-concurrent=%d queue-depth=%d mode=bsp",
		cl.Workers, cl.Partitions, planCacheCapacity, p.GOMAXPROCS, 2*p.GOMAXPROCS)
	return p
}

func (p provenance) print(w io.Writer) {
	dirty := ""
	if p.GitDirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "# rasqlbench commit %s%s, %s, nproc %d, GOMAXPROCS %d\n", p.GitSHA, dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	fmt.Fprintf(w, "# cpu %s, kernel %s\n", p.CPUModel, p.Kernel)
	fmt.Fprintf(w, "# seed %d, rounds %s, requests per round (clients x requests / per slice) %s\n", p.Seed, p.Rounds, strings.Join(p.PerRound, " "))
	fmt.Fprintf(w, "# times at reference host speed: measured / (host reference before each slice / %g ms)\n", p.HostRefMS)
	fmt.Fprintf(w, "# %s\n", strings.Join(p.RasqldArgs, " "))
	fmt.Fprintf(w, "# which means %s\n", p.RasqldUsing)
}

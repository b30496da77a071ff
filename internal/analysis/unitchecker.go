package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
)

// Unitchecker mode: cmd/go invokes the vet tool once per package with a
// JSON config file describing the unit — its files, its resolved import
// map, and the export-data and facts files of its dependencies. This is
// the same contract golang.org/x/tools/go/analysis/unitchecker implements;
// the config schema below mirrors cmd/go/internal/work.vetConfig.

// VetConfig describes a vet invocation for a single package unit.
type VetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoFiles    []string
	ImportMap  map[string]string
	// PackageFile maps resolved import paths to export data files.
	PackageFile map[string]string
	Standard    map[string]bool
	// PackageVetx maps dependency import paths to their facts files.
	PackageVetx map[string]string
	VetxOnly    bool
	// VetxOutput is where this unit's facts must be written.
	VetxOutput                string
	GoVersion                 string
	ModulePath                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the analyzer suite for one vet.cfg unit, printing
// diagnostics to w. It returns the process exit code: 0 clean, 2 findings,
// 1 operational failure.
func RunUnit(cfgFile string, w io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(w, "rasql-lint: %v\n", err)
		return 1
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(w, "rasql-lint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	ix := NewIndex()
	for _, vetx := range cfg.PackageVetx {
		if err := mergeFactsFile(ix, vetx); err != nil {
			fmt.Fprintf(w, "rasql-lint: %v\n", err)
			return 1
		}
	}

	// Standard-library and other out-of-module units carry no rasql
	// annotations and are never deterministic-scoped: emit empty facts and
	// skip the (expensive, occasionally cgo-laden) source typecheck.
	if cfg.ModulePath == "" || len(cfg.GoFiles) == 0 {
		if err := writeFactsFile(cfg.VetxOutput, Facts{}); err != nil {
			fmt.Fprintf(w, "rasql-lint: %v\n", err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "rasql-lint: %v\n", err)
		return 1
	}
	ix.ScanPackage(fset, cfg.ImportPath, files)

	// Type-check before exporting facts: the call-graph analyzer (noalloc)
	// derives its facts from type information, so its Prepare hook must
	// run between the typecheck and the facts write. On a tolerated
	// typecheck failure the unit still exports its annotation facts so
	// dependents keep working.
	resolve := func(path string) string {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return cfg.PackageFile[path]
	}
	info := newInfo()
	conf := types.Config{Importer: newExportImporter(fset, resolve)}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if werr := writeFactsFile(cfg.VetxOutput, ix.ExportFacts(cfg.ImportPath)); werr != nil {
			fmt.Fprintf(w, "rasql-lint: %v\n", werr)
			return 1
		}
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "rasql-lint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	loaded := &LoadedPackage{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	PreparePackage(fset, loaded, ix, All())
	if err := writeFactsFile(cfg.VetxOutput, ix.ExportFacts(cfg.ImportPath)); err != nil {
		fmt.Fprintf(w, "rasql-lint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}

	diags := ix.MalformedAllows()
	diags = append(diags, RunPackage(fset, loaded, ix, All())...)
	diags = append(diags, RunProgramAnalyzers(fset, ix, All())...)
	sort.Slice(diags, func(i, j int) bool { return positionLess(diags[i].Pos, diags[j].Pos) })
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func mergeFactsFile(ix *Index, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading facts %s: %v", path, err)
	}
	if len(data) == 0 {
		return nil
	}
	var f Facts
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parsing facts %s: %v", path, err)
	}
	ix.MergeFacts(f)
	return nil
}

func writeFactsFile(path string, f Facts) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

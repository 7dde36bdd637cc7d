package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mltcp/internal/lint"
)

// TestVettoolFacts drives the vetx facts channel by hand, playing the
// role of cmd/go: a facts-only pass over internal/sim, a dependent pass
// over internal/units that consumes sim's vetx file and emits its own,
// and finally a synthetic //mltcp:hot package whose only violation is visible
// through the units facts — proving the tool both emits and consumes
// serialized facts across process boundaries.
func TestVettoolFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool binary and loads export data")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "mltcp-lint")
	if out, err := exec.Command("go", "build", "-o", bin, "mltcp/cmd/mltcp-lint").CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	// The package graph, as cmd/go would see it: export files for the
	// full dependency closure plus source locations for the two module
	// packages we vet directly.
	type listPkg struct {
		ImportPath string
		Dir        string
		Export     string
		GoFiles    []string
	}
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles",
		"mltcp/internal/units", "mltcp/internal/sim").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	pkgs := make(map[string]listPkg)
	pkgFile := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs[p.ImportPath] = p
		if p.Export != "" {
			pkgFile[p.ImportPath] = p.Export
		}
	}

	// runTool writes a vet config and invokes the binary on it the way
	// cmd/go would, returning the exit code and combined output.
	runTool := func(name string, cfg map[string]any) (int, string) {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshaling config: %v", err)
		}
		path := filepath.Join(tmp, name+".cfg")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatalf("writing config: %v", err)
		}
		cmd := exec.Command(bin, path)
		out, err := cmd.CombinedOutput()
		if err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("running vettool: %v\n%s", err, out)
			}
		}
		return cmd.ProcessState.ExitCode(), string(out)
	}

	absFiles := func(p listPkg) []string {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		return files
	}

	// Pass 1: sim, facts-only (VetxOnly), no dependency facts. Twice,
	// into separate files: the vetx output must be byte-identical or
	// vet's action cache would thrash.
	sim := pkgs["mltcp/internal/sim"]
	simVetx := filepath.Join(tmp, "sim.vetx")
	simCfg := func(output string) map[string]any {
		return map[string]any{
			"ID": "mltcp/internal/sim", "Compiler": "gc", "Dir": sim.Dir,
			"ImportPath": "mltcp/internal/sim", "GoFiles": absFiles(sim),
			"PackageFile": pkgFile, "PackageVetx": map[string]string{},
			"VetxOnly": true, "VetxOutput": output,
		}
	}
	if code, out := runTool("sim", simCfg(simVetx)); code != 0 {
		t.Fatalf("facts-only pass over sim: exit %d\n%s", code, out)
	}
	simVetx2 := filepath.Join(tmp, "sim2.vetx")
	if code, out := runTool("sim2", simCfg(simVetx2)); code != 0 {
		t.Fatalf("second facts-only pass over sim: exit %d\n%s", code, out)
	}
	a, err1 := os.ReadFile(simVetx)
	b, err2 := os.ReadFile(simVetx2)
	if err1 != nil || err2 != nil {
		t.Fatalf("reading vetx outputs: %v, %v", err1, err2)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("sim vetx not byte-identical across runs:\n%s\nvs\n%s", a, b)
	}
	simFacts, err := lint.DecodeFacts(a)
	if err != nil {
		t.Fatalf("decoding sim vetx: %v", err)
	}
	if simFacts.Len() == 0 {
		t.Fatal("sim vetx is empty; expected at least the RNG-source facts")
	}

	// Pass 2: units, consuming sim's facts and emitting its own (which
	// must re-export sim's, so transitive deps survive direct-only
	// PackageVetx maps).
	units := pkgs["mltcp/internal/units"]
	unitsVetx := filepath.Join(tmp, "units.vetx")
	if code, out := runTool("units", map[string]any{
		"ID": "mltcp/internal/units", "Compiler": "gc", "Dir": units.Dir,
		"ImportPath": "mltcp/internal/units", "GoFiles": absFiles(units),
		"PackageFile": pkgFile,
		"PackageVetx": map[string]string{"mltcp/internal/sim": simVetx},
		"VetxOutput":  unitsVetx,
	}); code != 0 {
		t.Fatalf("vetting units: exit %d\n%s", code, out)
	}
	unitsData, err := os.ReadFile(unitsVetx)
	if err != nil {
		t.Fatalf("reading units vetx: %v", err)
	}
	unitsFacts, err := lint.DecodeFacts(unitsData)
	if err != nil {
		t.Fatalf("decoding units vetx: %v", err)
	}
	if f, ok := unitsFacts.Get("mltcp/internal/units.trimUnit"); !ok || !f.Flags.Has(lint.FactAllocates) {
		t.Errorf("units vetx missing allocates fact for trimUnit (got %v, present=%v)", f.Flags, ok)
	}
	reexported := false
	for _, key := range unitsFacts.Keys() {
		if strings.HasPrefix(key, "mltcp/internal/sim.") || strings.HasPrefix(key, "(*mltcp/internal/sim.") {
			reexported = true
			break
		}
	}
	if !reexported {
		t.Error("units vetx does not re-export sim facts")
	}

	// Pass 3: a synthetic hot-path package whose //mltcp:hot function calls
	// units.Rate.String. With units facts supplied the boxing inside
	// trimUnit is visible two packages away; without them, nothing is —
	// the difference in exit codes is the consumption proof.
	probeDir := filepath.Join(tmp, "probe")
	if err := os.Mkdir(probeDir, 0o777); err != nil {
		t.Fatal(err)
	}
	probe := filepath.Join(probeDir, "probe.go")
	src := `package probe

import "mltcp/internal/units"

//mltcp:hot
func hot(r units.Rate) string { return r.String() }

var _ = hot
`
	if err := os.WriteFile(probe, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	probeCfg := func(vetx map[string]string) map[string]any {
		return map[string]any{
			"ID": "mltcp/internal/netsim/probe", "Compiler": "gc", "Dir": probeDir,
			"ImportPath": "mltcp/internal/netsim/probe", "GoFiles": []string{probe},
			"PackageFile": pkgFile, "PackageVetx": vetx,
		}
	}
	code, probeOut := runTool("probe-facts", probeCfg(map[string]string{"mltcp/internal/units": unitsVetx}))
	if code != 2 {
		t.Fatalf("probe with facts: exit %d, want 2 (diagnostic)\n%s", code, probeOut)
	}
	if !strings.Contains(probeOut, "units.Rate.String, which allocates per call") {
		t.Errorf("probe diagnostic missing the fact-sourced witness:\n%s", probeOut)
	}
	if code, out := runTool("probe-blind", probeCfg(map[string]string{})); code != 0 {
		t.Fatalf("probe without facts: exit %d, want 0 (facts were the only evidence)\n%s", code, out)
	}
}

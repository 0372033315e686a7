package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// update regenerates testdata/results.golden instead of diffing:
//
//	go test ./internal/sim -run TestResultsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/results.golden instead of diffing")

// goldenRun is one simulation pinned by testdata/results.golden.
type goldenRun struct {
	name string
	cfg  sim.Config
	src  sim.TraceSource
}

// quickSource returns the profile's workload at the quick preset: 8 cores,
// iterations scaled by 0.25 (at least 8), the default experiment seed. The
// scaling is spelled out here rather than taken from the experiments
// package so that the golden does not move when the preset does.
func quickSource(t testing.TB, p workload.Profile, cores int, scale float64) sim.TraceSource {
	t.Helper()
	n := int(float64(p.Iterations) * scale)
	if n < 8 {
		n = 8
	}
	p.Iterations = n
	src, err := workload.Generator{Cores: cores, Seed: 20130601}.Source(p)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// fig10Source is the write-deadlock pattern of the paper's Fig. 10 (the
// same trace as fig10Trace in the package's own tests).
func fig10Source() sim.TraceSource {
	const lineA, lineB = 0x10000, 0x20000
	tr := sim.NewTrace("fig10", 2)
	tr.Append(0, sim.RMW(lineB), sim.Compute(5000))
	tr.Append(1, sim.RMW(lineA), sim.Compute(5000))
	tr.Append(0, sim.Write(lineA), sim.RMW(lineB), sim.Fence(), sim.Compute(1))
	tr.Append(1, sim.Write(lineB), sim.RMW(lineA), sim.Fence(), sim.Compute(1))
	return tr.Source()
}

// goldenRuns lists the pinned runs: every Table 3 profile at quick scale
// under each RMW type, Fig. 10 with deadlock avoidance on and off, and
// configuration variants that drive the write buffer and the directory
// locks through their less common paths (serial forced drains, a
// one-entry buffer, one and many outstanding drains, more cores than one
// 64-bit sharer word).
func goldenRuns(t testing.TB) []goldenRun {
	t.Helper()
	base := sim.DefaultConfig().WithCores(8)
	var runs []goldenRun
	add := func(name string, cfg sim.Config, src sim.TraceSource) {
		runs = append(runs, goldenRun{name: name, cfg: cfg, src: src})
	}
	for _, p := range workload.Table3Profiles() {
		src := quickSource(t, p, 8, 0.25)
		for _, typ := range core.AllTypes() {
			add(fmt.Sprintf("table3/%s/%s", p.Name, typ), base.WithRMWType(typ), src)
		}
	}
	for _, typ := range core.AllTypes() {
		for _, naive := range []bool{false, true} {
			cfg := base.WithCores(2).WithRMWType(typ)
			cfg.DisableDeadlockAvoidance = naive
			add(fmt.Sprintf("fig10/%s/naive=%t", typ, naive), cfg, fig10Source())
		}
	}
	variants := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"parallel-drain=false", func(c *sim.Config) { c.ParallelDrain = false }},
		{"parallel-drain=true", func(c *sim.Config) { c.ParallelDrain = true }},
		{"wb-depth=1", func(c *sim.Config) { c.WriteBufferDepth = 1 }},
		{"wb-depth=2/serial", func(c *sim.Config) { c.WriteBufferDepth = 2; c.ParallelDrain = false }},
		{"outstanding=1", func(c *sim.Config) { c.MaxOutstandingDrains = 1 }},
		{"outstanding=16", func(c *sim.Config) { c.MaxOutstandingDrains = 16 }},
	}
	for _, name := range []string{"bayes", "fluidanimate", "wsq-mst"} {
		p, err := workload.FindProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := quickSource(t, p, 8, 0.1)
		for _, v := range variants {
			for _, typ := range core.AllTypes() {
				cfg := base.WithRMWType(typ)
				v.mutate(&cfg)
				add(fmt.Sprintf("variant/%s/%s/%s", v.name, name, typ), cfg, src)
			}
		}
	}
	wide, err := workload.FindProfile("bayes")
	if err != nil {
		t.Fatal(err)
	}
	wideSrc := quickSource(t, wide, 72, 0.05)
	for _, typ := range core.AllTypes() {
		add(fmt.Sprintf("cores=72/bayes/%s", typ), base.WithCores(72).WithRMWType(typ), wideSrc)
	}
	return runs
}

// resultDigest returns the hex SHA-256 of the JSON-encoded result: every
// field (per-core stats, lock denials, broadcasts, Deadlocked) feeds the
// digest.
func resultDigest(t testing.TB, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultsGolden pins the complete sim.Result of every golden run, so
// a change to the simulator's event loop that alters any statistic or a
// deadlock verdict fails here. Bless intentional
// changes to the timing model with -update.
func TestResultsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, r := range goldenRuns(t) {
		s, err := sim.New(r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res, err := s.RunSource(r.src)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&out, "%s cycles=%d deadlocked=%t sha256=%s\n",
			r.name, res.Cycles, res.Deadlocked, resultDigest(t, res))
	}
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	got := out.String()
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("results drifted from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// TestNaiveProtocolOnWorkloads runs real workloads with deadlock
// avoidance disabled. They may deadlock, which the result reports, but a
// run must never break the directory's lock discipline: a core that
// re-locks its own locked line with a second RMW holds the lock until the
// last write half performs, and a run that completes ends with no line
// locked (RunSource fails otherwise).
func TestNaiveProtocolOnWorkloads(t *testing.T) {
	for _, name := range []string{"bayes", "fluidanimate", "wsq-mst"} {
		p, err := workload.FindProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := quickSource(t, p, 8, 0.1)
		for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			cfg := sim.DefaultConfig().WithCores(8).WithRMWType(typ)
			cfg.DisableDeadlockAvoidance = true
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunSource(src)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, typ, err)
			}
			t.Logf("%s/%s: %d cycles, deadlocked=%t", name, typ, res.Cycles, res.Deadlocked)
		}
	}
}

package rmwtso_test

import (
	"reflect"
	"testing"

	"repro/pkg/rmwtso"
)

// streamTestOptions is a reduced paper-shaped configuration: small enough
// for CI, structured exactly like the full sweep.
func streamTestOptions() rmwtso.Options {
	o := rmwtso.QuickOptions()
	o.Cores = 4
	o.Scale = 0.1
	return o
}

// TestSimulateSourceMatchesSimulate asserts the acceptance criterion at
// the single-run level: for the same (profile, seed, cores, scale) a
// streamed run's statistics are identical — reflect.DeepEqual on the full
// Result, including every per-core counter — to
// the materialized run's, for every RMW type.
func TestSimulateSourceMatchesSimulate(t *testing.T) {
	cfg := rmwtso.DefaultSimConfig().WithCores(4)
	for _, name := range []string{"radiosity", "wsq-mst"} {
		profile, err := rmwtso.FindProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		profile.Iterations = 32
		gen := rmwtso.Generator{Cores: 4, Seed: 20130601}
		trace, err := gen.Generate(profile)
		if err != nil {
			t.Fatal(err)
		}
		src, err := gen.Source(profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range rmwtso.AllTypes() {
			materialized, err := rmwtso.Simulate(cfg.WithRMWType(typ), trace)
			if err != nil {
				t.Fatalf("%s [%s] materialized: %v", name, typ, err)
			}
			streamed, err := rmwtso.SimulateSource(cfg.WithRMWType(typ), src)
			if err != nil {
				t.Fatalf("%s [%s] streamed: %v", name, typ, err)
			}
			if !reflect.DeepEqual(materialized, streamed) {
				t.Errorf("%s [%s]: streamed result differs from materialized result\nmaterialized: %v\nstreamed:     %v",
					name, typ, materialized, streamed)
			}
		}
	}
}

// TestRunBenchmarksStreamingMatchesMaterialized asserts the criterion at
// the sweep level: a full (reduced) Table 3 + C/C++11 parallel sweep with
// Options.Materialize produces exactly the per-type results of the default
// streaming sweep.
func TestRunBenchmarksStreamingMatchesMaterialized(t *testing.T) {
	specs := append(rmwtso.Table3Specs(), rmwtso.Cpp11Specs()...)
	runner := rmwtso.NewRunner(rmwtso.WithParallelism(4))

	streamedOpts := streamTestOptions()
	streamed, err := runner.RunBenchmarks(streamedOpts, specs)
	if err != nil {
		t.Fatal(err)
	}

	materializedOpts := streamTestOptions()
	materializedOpts.Materialize = true
	materialized, err := runner.RunBenchmarks(materializedOpts, specs)
	if err != nil {
		t.Fatal(err)
	}

	if len(streamed) != len(materialized) {
		t.Fatalf("streamed sweep has %d runs, materialized %d", len(streamed), len(materialized))
	}
	for i := range streamed {
		s, m := streamed[i], materialized[i]
		if s.Name != m.Name {
			t.Fatalf("run %d: name %q vs %q", i, s.Name, m.Name)
		}
		if !reflect.DeepEqual(s.ByType, m.ByType) {
			t.Errorf("%s: streamed per-type results differ from materialized", s.Name)
		}
	}

	// The derived Table 3 rows must therefore agree too.
	n := len(rmwtso.Table3Specs())
	if !reflect.DeepEqual(rmwtso.Table3FromRuns(streamed[:n]), rmwtso.Table3FromRuns(materialized[:n])) {
		t.Error("Table 3 rows differ between streamed and materialized sweeps")
	}
}

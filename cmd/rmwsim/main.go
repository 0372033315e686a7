// Command rmwsim runs one benchmark workload on the chip-multiprocessor
// simulator and prints the run's statistics, including the per-RMW cost
// split. Workload traces are streamed from the generator one episode at a
// time, so even very large -scale values run at bounded memory.
//
// Usage:
//
//	rmwsim -bench bayes -type type-2
//	rmwsim -bench wsq-mst -replace read -type type-3 -cores 16
//	rmwsim -bench fig10 -type type-2 -naive       demonstrate the write-deadlock
//	rmwsim -bench fig10 -check                    model-check the pattern first
//	rmwsim -bench bayes -sweep                    compare all three RMW types
//	rmwsim -list                                   list the available benchmarks
//
// -check (fig10 only) model-checks the write-deadlock litmus test before
// simulating: the cyclic outcome is forbidden under every atomicity type,
// which is exactly why the naive implementation that waits for it wedges.
// -enum-workers fans the verdict's candidate enumeration across that many
// goroutines (0 picks by candidate count).
//
// -cache (or -cache-dir DIR) serves repeated runs from the
// content-addressed result cache: a run is keyed by (config, trace, seed,
// scale, RMW type), so an identical invocation replays the stored
// statistics instead of simulating. -cache-clear empties the cache
// directory first.
//
// -format json emits each run as one JSON object tagged with its stable
// unit ID (the same identity cmd/experiments plans and shards by), so a
// single rmwsim run slots into the same dashboards and merge tooling as
// a full sweep; the default, ascii, prints the human-readable statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/cliflags"
	"repro/pkg/rmwtso"
)

// runRecord is the machine-readable view of one simulator run.
type runRecord struct {
	Unit     string            `json:"unit,omitempty"`
	Trace    string            `json:"trace"`
	Type     string            `json:"type"`
	CacheHit bool              `json:"cache_hit,omitempty"`
	Result   *rmwtso.SimResult `json:"result"`
}

// emitRun prints one finished run in the chosen format.
func emitRun(format string, rec runRecord) {
	if format == rmwtso.FormatJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(rec.Result.String())
}

func main() {
	var (
		benchName = flag.String("bench", "radiosity", "benchmark to run (see -list), or 'fig10' for the write-deadlock pattern")
		typeName  = flag.String("type", "type-1", "RMW implementation: type-1, type-2 or type-3")
		replace   = flag.String("replace", "none", "wsq-mst C/C++11 variant: none, read or write")
		cores     = flag.Int("cores", 32, "number of simulated cores")
		scale     = flag.Float64("scale", 1.0, "iteration-count scale factor")
		seed      = flag.Int64("seed", 20130601, "workload generation seed")
		naive     = flag.Bool("naive", false, "disable the bloom-filter deadlock avoidance (type-2/3 only)")
		sweep     = flag.Bool("sweep", false, "run the trace under all three RMW types in parallel")
		check     = flag.Bool("check", false, "model-check the fig10 litmus test before simulating it")
		enumW     = flag.Int("enum-workers", 0, "goroutines per -check verdict's enumeration (default: auto by candidate count)")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
	)
	formatFlag := cliflags.RegisterFormat(flag.CommandLine, "format", rmwtso.FormatASCII,
		"run output format: ascii or json",
		rmwtso.FormatASCII, rmwtso.FormatJSON)
	cacheFlags := cliflags.RegisterCache(flag.CommandLine, "simulation results")
	flag.Parse()
	format := formatFlag.Value

	if *list {
		fmt.Println("Benchmarks:", strings.Join(rmwtso.ProfileNames(), ", "), "and fig10")
		return
	}

	// Reject values the workload generator and heuristics would otherwise
	// accept silently as garbage.
	if err := cliflags.PositiveInt("cores", *cores); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveFloat("scale", *scale); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.NonNegativeInt("enum-workers", *enumW); err != nil {
		fatalUsage(err)
	}
	if err := formatFlag.Validate(); err != nil {
		fatalUsage(err)
	}

	cache, err := rmwtso.OpenCacheFromFlags(*cacheFlags.Enabled, *cacheFlags.Dir, *cacheFlags.Clear)
	if err != nil {
		fatal(err)
	}

	typ, err := rmwtso.ParseAtomicityType(*typeName)
	if err != nil {
		fatal(err)
	}
	if *check {
		if *benchName != "fig10" {
			fatal(fmt.Errorf("-check model-checks the fig10 write-deadlock pattern; it cannot be combined with -bench %s", *benchName))
		}
		t := rmwtso.FindTest("write-deadlock (Fig. 10)")
		if t == nil {
			fatal(fmt.Errorf("the write-deadlock litmus test is not registered"))
		}
		var opts []rmwtso.Option
		if *enumW > 0 {
			opts = append(opts, rmwtso.WithEnumWorkers(*enumW))
		}
		if cache != nil {
			// The same cache that replays simulation results also replays
			// the model-checking verdict.
			opts = append(opts, rmwtso.WithCache(cache))
		}
		results, err := rmwtso.TestsOf(t).Run(opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Println("semantic verdict for the Fig. 10 pattern (the cyclic outcome must be forbidden):")
		fmt.Print(rmwtso.RenderLitmusResults(results))
		fmt.Println()
	}
	cfg := rmwtso.DefaultSimConfig().WithCores(*cores)
	cfg.DisableDeadlockAvoidance = *naive

	source, err := buildSource(*benchName, *replace, *cores, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	if *sweep {
		// -sweep compares the RMW types, so an explicit -type contradicts
		// it; reject the combination instead of silently ignoring one.
		typeSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "type" {
				typeSet = true
			}
		})
		if typeSet {
			fatal(fmt.Errorf("-sweep runs all three RMW types and cannot be combined with -type"))
		}
		// One goroutine per type; results print in type order.
		types := rmwtso.AllTypes()
		recs := make([]runRecord, len(types))
		errs := make([]error, len(types))
		var wg sync.WaitGroup
		for i, typ := range types {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i], errs[i] = run(cache, cfg.WithRMWType(typ), source, *seed, *scale)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				fatal(err)
			}
		}
		for _, rec := range recs {
			if rec.CacheHit {
				fmt.Fprintf(os.Stderr, "rmwsim: %s under %s served from cache\n", rec.Trace, rec.Type)
			}
			emitRun(*format, rec)
		}
		reportCache(cache)
		return
	}

	rec, err := run(cache, cfg.WithRMWType(typ), source, *seed, *scale)
	if err != nil {
		fatal(err)
	}
	if rec.CacheHit {
		fmt.Fprintln(os.Stderr, "rmwsim: result served from cache")
	}
	emitRun(*format, rec)
	reportCache(cache)
	if rec.Result.Deadlocked {
		fmt.Println("the run deadlocked: this is the Fig. 10 write-deadlock that the bloom-filter protocol prevents")
		os.Exit(1)
	}
}

// run simulates src under cfg through the cache (nil disables it) and
// tags the result with its unit ID.
func run(cache *rmwtso.Cache, cfg rmwtso.SimConfig, src rmwtso.TraceSource, seed int64, scale float64) (runRecord, error) {
	res, hit, err := rmwtso.SimulateSourceCached(cache, cfg, src, seed, scale)
	if err != nil {
		return runRecord{}, err
	}
	return runRecord{
		Unit:     rmwtso.SimCacheKey(cfg, src, seed, scale).UnitID(),
		Trace:    src.Name(),
		Type:     cfg.RMWType.String(),
		CacheHit: hit,
		Result:   res,
	}, nil
}

// reportCache prints the cache counters on stderr when caching is on.
func reportCache(cache *rmwtso.Cache) {
	if cache == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "rmwsim: cache: %s (dir %s)\n", cache.Stats(), cache.Dir())
}

func buildSource(bench, replace string, cores int, scale float64, seed int64) (rmwtso.TraceSource, error) {
	if bench == "fig10" {
		if cores < 2 {
			return nil, fmt.Errorf("the fig10 pattern needs at least 2 cores, got %d", cores)
		}
		// The Fig. 10 pattern is a handful of hand-built ops; its
		// materialized trace adapts to the streaming interface.
		return rmwtso.Fig10Trace(cores).Source(), nil
	}
	profile, err := rmwtso.FindProfile(bench)
	if err != nil {
		return nil, err
	}
	// Scale through the harness' own rule (ScaledProfile) rather than a
	// local copy: rmwsim and cmd/experiments share one result cache, so
	// the same -scale must mean the same workload in both binaries.
	profile = rmwtso.Options{Scale: scale}.ScaledProfile(profile)
	gen := rmwtso.Generator{Cores: cores, Seed: seed}
	switch replace {
	case "none", "":
	case "read":
		gen.Replacement = rmwtso.ReadReplacement
	case "write":
		gen.Replacement = rmwtso.WriteReplacement
	default:
		return nil, fmt.Errorf("unknown replacement %q (want none, read or write)", replace)
	}
	return gen.Source(profile)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmwsim:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits with the usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "rmwsim:", err)
	os.Exit(2)
}

package rmwtso_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/rmwtso"
)

// coordConfig compresses the coordination timescales for tests while
// keeping the state machine's semantics (outcomes are asserted on state,
// not timing).
func coordConfig() rmwtso.CoordinationConfig {
	return rmwtso.CoordinationConfig{
		Workers:      3,
		LeaseTTL:     200 * time.Millisecond,
		MaxAttempts:  3,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
	}
}

// runCoordinated runs the whole plan as one job through its own lease
// queue under cfg.
func runCoordinated(r *rmwtso.Runner, plan *rmwtso.Plan, cfg rmwtso.CoordinationConfig) (*rmwtso.ShardResult, error) {
	h, err := r.Submit(nil, rmwtso.Job{Plan: plan, Coordination: &cfg})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	return res.Shard, nil
}

// staticBaseline runs the plan unsharded on the static pool and returns
// the expected runs, report and encodings.
func staticBaseline(t *testing.T, o rmwtso.Options, plan *rmwtso.Plan) ([]*rmwtso.BenchmarkRun, *rmwtso.Report, map[string][]byte) {
	t.Helper()
	full, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := plan.Runs(full.Units)
	if err != nil {
		t.Fatal(err)
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	return runs, report, encodeAll(t, report)
}

// checkCoordinatedIdentity asserts the coordinated shard result carries a
// coordination section and that, with the section stripped, its runs and
// report encodings are byte-identical to the static baseline's.
func checkCoordinatedIdentity(t *testing.T, o rmwtso.Options, plan *rmwtso.Plan, res *rmwtso.ShardResult,
	mode string, wantRuns []*rmwtso.BenchmarkRun, wantBytes map[string][]byte) {
	t.Helper()
	if res.Coordination == nil || res.Coordination.Mode != mode {
		t.Fatalf("coordination section %+v, want mode %q", res.Coordination, mode)
	}
	if len(res.Coordination.DeadLetters) != 0 {
		t.Fatalf("completed sweep has dead letters: %+v", res.Coordination.DeadLetters)
	}
	units := 0
	for _, w := range res.Coordination.Workers {
		units += w.Units
	}
	if units != plan.Len() {
		t.Errorf("per-worker unit counts sum to %d, plan has %d", units, plan.Len())
	}
	runs, err := plan.Runs(res.Units)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, wantRuns) {
		t.Fatalf("coordinated runs differ from the static run")
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range wantBytes {
		var b bytes.Buffer
		if err := rmwtso.EncodeReport(&b, report, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("%s encoding of the coordinated report is not byte-identical", format)
		}
	}
}

// TestCoordinatedSweepByteIdentical is the acceptance differential for
// the tentpole: a coordinated in-process sweep with an injected worker
// crash mid-sweep still produces result tables byte-identical to the
// static unsharded run, with the crash visible only in the coordination
// section (lease expiry + requeue).
func TestCoordinatedSweepByteIdentical(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, _, wantBytes := staticBaseline(t, o, plan)

	cfg := coordConfig()
	var crashed atomic.Bool
	cfg.FaultInjector = func(worker string, _ rmwtso.Unit, _ int) error {
		// Whichever worker executes first dies there; the other two finish
		// the sweep. (Naming a fixed victim would be flaky: on a small
		// GOMAXPROCS the first workers can drain the queue before the
		// victim's goroutine is ever scheduled.)
		if crashed.CompareAndSwap(false, true) {
			return rmwtso.ErrInjectedCrash
		}
		return nil
	}
	var mu sync.Mutex
	kinds := map[string]int{}
	runner := rmwtso.NewRunner(
		rmwtso.WithObserver(func(e rmwtso.Event) {
			if e.Coord != nil {
				mu.Lock()
				kinds[e.Coord.Kind]++
				mu.Unlock()
			}
		}),
	)
	res, err := runCoordinated(runner, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Load() {
		t.Fatal("fault injector never fired")
	}
	checkCoordinatedIdentity(t, o, plan, res, "in-process", wantRuns, wantBytes)

	if res.Coordination.Expired < 1 {
		t.Errorf("crash left no lease expiry: %+v", res.Coordination)
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds["lease"] < plan.Len() || kinds["ack"] != plan.Len() || kinds["expire"] < 1 || kinds["requeue"] < 1 || kinds["drained"] != 1 {
		t.Errorf("coordination event counts %v", kinds)
	}
}

// TestCoordinatedPoisonDeadLetters drives a permanently failing unit
// through its whole attempt budget: the sweep terminates (no hang), the
// error is a *DeadLetterError naming the unit, the partial result still
// carries every other unit, and RunsPartial reassembles the complete
// groups while listing the missing unit.
func TestCoordinatedPoisonDeadLetters(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := plan.Units()[0].ID

	cfg := coordConfig()
	cfg.FaultInjector = func(_ string, u rmwtso.Unit, attempt int) error {
		if u.ID == poisoned {
			return fmt.Errorf("injected poison (attempt %d)", attempt)
		}
		return nil
	}
	_, err = runCoordinated(rmwtso.NewRunner(), plan, cfg)
	var dle *rmwtso.DeadLetterError
	if !errors.As(err, &dle) {
		t.Fatalf("want *DeadLetterError, got %v", err)
	}
	if !strings.Contains(err.Error(), string(poisoned)) || !strings.Contains(err.Error(), "dead-lettered") {
		t.Errorf("error does not name the poisoned unit: %v", err)
	}

	partial := dle.Partial
	if len(partial.Units) != plan.Len()-1 {
		t.Fatalf("partial has %d units, want %d", len(partial.Units), plan.Len()-1)
	}
	dls := partial.Coordination.DeadLetters
	if len(dls) != 1 || dls[0].Unit != string(poisoned) || dls[0].Attempts != cfg.MaxAttempts {
		t.Fatalf("dead letters %+v", dls)
	}
	if want := fmt.Sprintf("injected poison (attempt %d)", cfg.MaxAttempts); dls[0].Reasons[len(dls[0].Reasons)-1] != want {
		t.Errorf("last reason %q, want %q", dls[0].Reasons[len(dls[0].Reasons)-1], want)
	}

	runs, missing, err := plan.RunsPartial(partial.Units)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != poisoned {
		t.Fatalf("missing %v, want [%s]", missing, poisoned)
	}
	// Exactly the poisoned unit's group is dropped; every complete group
	// survives into the partial report.
	var groups []string
	seen := map[string]bool{}
	for _, u := range plan.Units() {
		if !seen[u.Trace] {
			seen[u.Trace] = true
			groups = append(groups, u.Trace)
		}
	}
	if len(runs) != len(groups)-1 {
		t.Fatalf("partial runs %d, want %d", len(runs), len(groups)-1)
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	report.Coordination = partial.Coordination
	var b bytes.Buffer
	if err := rmwtso.EncodeReport(&b, report, rmwtso.FormatASCII); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "DEAD-LETTERED") || !strings.Contains(b.String(), string(poisoned)) {
		t.Errorf("partial ASCII report does not list the dead-lettered unit")
	}
}

// TestCoordinatedSweepAllWorkersCrash verifies the sweep fails fast
// (instead of hanging) when every worker dies.
func TestCoordinatedSweepAllWorkersCrash(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coordConfig()
	cfg.Workers = 2
	cfg.MaxAttempts = 100 // the attempt budget must not be what terminates this
	cfg.FaultInjector = func(string, rmwtso.Unit, int) error {
		return rmwtso.ErrInjectedCrash
	}
	_, err = runCoordinated(rmwtso.NewRunner(), plan, cfg)
	if err == nil || !strings.Contains(err.Error(), "workers crashed") {
		t.Fatalf("want all-workers-crashed error, got %v", err)
	}
}

// TestCoordinatedHTTPSweep runs the multi-machine shape in miniature:
// a CoordServer over httptest, three RunPlanWorker clients (one of which
// crashes mid-sweep and is replaced by lease expiry), and the assembled
// result byte-identical to the static baseline.
func TestCoordinatedHTTPSweep(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, _, wantBytes := staticBaseline(t, o, plan)

	server, err := rmwtso.NewRunner().NewCoordServer(plan, rmwtso.FullShard(), coordConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cfg := coordConfig()
		if i == 2 {
			var crashed atomic.Bool
			cfg.FaultInjector = func(_ string, _ rmwtso.Unit, _ int) error {
				if crashed.CompareAndSwap(false, true) {
					return rmwtso.ErrInjectedCrash
				}
				return nil
			}
		}
		worker := rmwtso.NewRunner()
		name := fmt.Sprintf("http-worker-%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := worker.RunPlanWorker(nil, plan, hs.URL, name, cfg)
			if i == 2 {
				if !errors.Is(err, rmwtso.ErrInjectedCrash) {
					t.Errorf("crashing worker exit: %v", err)
				}
				return
			}
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	res, err := server.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkCoordinatedIdentity(t, o, plan, res, "http", wantRuns, wantBytes)
	if res.Coordination.Expired < 1 {
		t.Errorf("crashed HTTP worker left no expiry: %+v", res.Coordination)
	}
	var names []string
	for _, w := range res.Coordination.Workers {
		names = append(names, w.Worker)
	}
	sort.Strings(names)
	if len(names) != 3 {
		t.Errorf("worker names %v", names)
	}
}

// Example coordsweep demonstrates the dynamically coordinated sweep:
// three pull workers drain the plan's units from a lease queue, one
// worker is killed mid-sweep by fault injection, and the sweep still
// completes — the crashed worker's unit is recovered through lease
// expiry and the final report is byte-identical to a static, unsharded
// run. A second sweep poisons one unit to show the dead-letter path:
// the sweep terminates instead of hanging, and the partial report lists
// the lost unit explicitly.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/pkg/rmwtso"
)

func main() {
	// A small sweep so the example finishes in seconds; short leases so
	// the injected crash is recovered quickly.
	opts := rmwtso.QuickOptions()
	opts.Cores = 4
	opts.Scale = 0.05
	cfg := rmwtso.CoordinationConfig{
		Workers:      3,
		LeaseTTL:     500 * time.Millisecond,
		MaxAttempts:  3,
		RetryBackoff: 20 * time.Millisecond,
	}

	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d units, fingerprint %.16s…\n\n", plan.Len(), plan.Fingerprint())

	// The static baseline every coordinated run must reproduce exactly.
	static, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		log.Fatal(err)
	}
	wantRuns, err := plan.Runs(static.Units)
	if err != nil {
		log.Fatal(err)
	}
	want := encode(opts, wantRuns, nil)

	// Coordinated sweep #1: whichever worker draws the fourth unit dies
	// holding it (pull workers self-schedule, so *which* worker that is
	// depends on machine parallelism — the recovery story does not). The
	// observer streams the queue's state transitions as they happen.
	var executions atomic.Int64
	cfg.FaultInjector = func(worker string, u rmwtso.Unit, attempt int) error {
		if executions.Add(1) == 4 {
			fmt.Printf("  !! injecting crash: %s dies holding unit %s\n", worker, u.ID)
			return rmwtso.ErrInjectedCrash
		}
		return nil
	}
	kinds := map[string]int{}
	runner := rmwtso.NewRunner(
		rmwtso.WithObserver(func(e rmwtso.Event) {
			if e.Coord == nil {
				return
			}
			kinds[e.Coord.Kind]++ // the Runner serializes observer calls
			switch e.Coord.Kind {
			case "expire", "requeue", "dead-letter":
				fmt.Printf("  %s: unit %s (attempt %d) %s\n",
					e.Coord.Kind, e.Coord.Unit, e.Coord.Attempt, e.Coord.Reason)
			}
		}),
	)
	res, err := coordinated(runner, plan, cfg)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := plan.Runs(res.Units)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoordinated sweep drained: %d leases, %d acks, %d expiries, %d requeues\n",
		kinds["lease"], kinds["ack"], kinds["expire"], kinds["requeue"])
	for _, w := range res.Coordination.Workers {
		fmt.Printf("  %-9s completed %2d units (retries %d, expired leases %d)\n",
			w.Worker, w.Units, w.Retries, w.Expired)
	}

	// The differential guarantee: with the coordination section stripped
	// (encode attaches none), the coordinated report is byte-identical.
	if got := encode(opts, runs, nil); !bytes.Equal(got, want) {
		log.Fatal("coordinated report differs from the static run")
	}
	fmt.Println("report byte-identical to the static unsharded run ✓")

	// Coordinated sweep #2: one unit fails every attempt. The sweep
	// terminates with a DeadLetterError instead of hanging, and the
	// partial result still carries every other unit.
	poisoned := plan.Units()[0].ID
	fmt.Printf("\npoisoning unit %s (fails all %d attempts)…\n", poisoned, cfg.MaxAttempts)
	cfg.FaultInjector = func(_ string, u rmwtso.Unit, attempt int) error {
		if u.ID == poisoned {
			return fmt.Errorf("injected poison (attempt %d)", attempt)
		}
		return nil
	}
	_, err = coordinated(rmwtso.NewRunner(), plan, cfg)
	dle, ok := err.(*rmwtso.DeadLetterError)
	if !ok {
		log.Fatalf("want *DeadLetterError, got %v", err)
	}
	fmt.Println("sweep terminated:", dle)
	partialRuns, missing, err := plan.RunsPartial(dle.Partial.Units)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial report: %d of %d benchmark groups complete, missing units %v\n",
		len(partialRuns), len(wantRuns), missing)
	for _, d := range dle.Partial.Coordination.DeadLetters {
		fmt.Printf("  dead-lettered: %s (%s under %s) after %d attempts; last: %s\n",
			d.Unit, d.Trace, d.Type, d.Attempts, d.Reasons[len(d.Reasons)-1])
	}
}

// coordinated runs the whole plan as one job through its own lease queue.
func coordinated(r *rmwtso.Runner, plan *rmwtso.Plan, cfg rmwtso.CoordinationConfig) (*rmwtso.ShardResult, error) {
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

// encode renders the report for the byte-identity comparison.
func encode(opts rmwtso.Options, runs []*rmwtso.BenchmarkRun, coord *rmwtso.Coordination) []byte {
	report, err := rmwtso.BuildReport(opts, runs)
	if err != nil {
		log.Fatal(err)
	}
	report.Coordination = coord
	var b bytes.Buffer
	if err := rmwtso.EncodeReport(&b, report, rmwtso.FormatJSON); err != nil {
		log.Fatal(err)
	}
	return b.Bytes()
}

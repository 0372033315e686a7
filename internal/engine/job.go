package engine

import (
	"context"
	"fmt"
)

// Job is one unit of work submitted to the engine: exactly one of Plan
// or Litmus must be set. Shard restricts the job to the units it covers
// (the zero Shard covers everything), with the same round-robin /
// predicate semantics for both job kinds.
type Job struct {
	// Plan runs the simulation units the shard selects, statically or —
	// when Coordination is set — through the pull queue.
	Plan *Plan
	// Litmus model-checks a verdict grid: every (test, configured type)
	// pair the shard selects.
	Litmus *LitmusGrid
	// Shard selects the subset of the job's units to execute.
	Shard Shard
	// Observer, when non-nil, receives exactly this job's events (the
	// engine-wide WithObserver stream still sees every job's). It is
	// called serially per job but concurrently across jobs, so a shared
	// Observer needs its own locking; per-job Observers need none.
	Observer Observer
	// Coordination, when non-nil, runs a plan job through its own
	// dynamic pull queue with this configuration. Litmus jobs are always
	// static and reject it.
	Coordination *CoordinationConfig
}

// LitmusGrid is the litmus-verdict form of a Job: the (test, type) grid
// over the engine's configured atomicity types.
type LitmusGrid struct {
	// Tests are the litmus tests to check, in grid order.
	Tests []*Test
}

// JobResult is the outcome of one finished job: Shard for plan jobs,
// Verdicts for litmus jobs.
type JobResult struct {
	// Shard holds a plan job's unit results as a shard artifact.
	Shard *ShardResult
	// Verdicts holds a litmus job's selected verdicts in (test, type)
	// order.
	Verdicts []TestResult
}

// JobHandle tracks one submitted job. Wait blocks for the result; Done
// exposes completion for select loops; Metrics snapshots the job's
// progress counters at any time, including while the job runs.
type JobHandle struct {
	done chan struct{}
	res  *JobResult
	err  error
	m    *metrics
}

// Done is closed when the job has finished (successfully or not).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its result. A
// coordinated plan that drained with dead letters returns a
// *DeadLetterError exactly like the facade's RunPlan.
func (h *JobHandle) Wait() (*JobResult, error) {
	return h.WaitCtx(context.Background())
}

// WaitCtx is Wait bounded by ctx: it returns ctx.Err() if the context
// ends first. The job itself keeps running — WaitCtx abandons the wait,
// not the work; cancel the Submit context to stop the job.
func (h *JobHandle) WaitCtx(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics snapshots the job's progress counters. Safe to call while the
// job is still running; after completion the snapshot is final.
func (h *JobHandle) Metrics() Metrics { return h.m.snapshot() }

// Submit starts the job on the engine and returns a handle for it. A nil
// ctx uses the engine's context (WithContext). The job executes
// asynchronously on the engine's worker pool; all execution errors —
// including shard validation — surface through the handle's Wait, and
// every finished unit streams to the engine's observer as it completes.
// A malformed job (neither or both of Plan and Litmus, or a litmus job
// with Coordination) is rejected synchronously.
func (e *Engine) Submit(ctx context.Context, job Job) (*JobHandle, error) {
	if (job.Plan == nil) == (job.Litmus == nil) {
		return nil, fmt.Errorf("rmwtso: a job needs exactly one of a plan or a litmus grid")
	}
	if job.Litmus != nil && job.Coordination != nil {
		return nil, fmt.Errorf("rmwtso: litmus jobs are always static; Coordination only applies to plan jobs")
	}
	if ctx == nil {
		ctx = e.opts.ctx
	}
	h := &JobHandle{done: make(chan struct{}), m: newJobMetrics(&e.metrics)}
	h.m.obs = job.Observer
	go func() {
		defer close(h.done)
		switch {
		case job.Plan != nil:
			sr, err := e.runPlanJob(ctx, job.Plan, job.Shard, h.m, job.Coordination)
			if sr != nil {
				e.store.AddShard(sr)
			}
			h.res, h.err = &JobResult{Shard: sr}, err
		case job.Litmus != nil:
			vs, err := e.checkTestsSharded(ctx, job.Shard, h.m, job.Litmus.Tests...)
			h.res, h.err = &JobResult{Verdicts: vs}, err
		}
	}()
	return h, nil
}

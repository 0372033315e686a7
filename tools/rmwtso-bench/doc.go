// Command rmwtso-bench is the repository's benchmark. For a seed given on
// the command line it runs one named workload through the public facade
// pkg/rmwtso, checks that every output is correct, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed check
// makes the command exit 1.
//
// Usage, from the repository root (run.sh builds the harness first and
// keeps every build and run artifact under .bench_build/):
//
//	bash tools/rmwtso-bench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// # Workloads
//
// Each workload leans on different layers, so an optimisation of one
// layer has a workload that exercises it and one that bypasses it.
//
//   - sweep-cold runs the paper grid (DefaultPlan, quick preset: Table 3 ×
//     three RMW types plus the C/C++11 _rr/_wr variants, 26 units) through
//     Runner.Submit on an engine pool of one worker per CPU, each job into
//     a fresh, empty on-disk cache. Every unit generates its trace,
//     simulates it and Puts the result. workload and sim are almost all of
//     its time; the cache's write path rides along. The simulated caches of
//     the modelled CMP start empty in every run.
//   - litmus-check runs one uncached Job{Litmus} verdict job under all
//     three RMW types over the litmus registry (with the Table 1 idioms),
//     Table 4's SC store-buffering program compiled under each C/C++11
//     mapping (expected verdicts from ValidateMapping, in set-up), and
//     programs generated from the seed with the facade's program
//     builders, each priced by CountCandidates at 500-50k candidates,
//     until their candidates add up to 2M (about 300 programs and 6M
//     candidate checks per job, whatever the seed).
//     Enumeration (memmodel) and core.Checker are all of its time; sim and
//     simcache do nothing.
//   - serve-warm drives the HTTP service in-process (NewServer over an
//     on-disk cache at the default capacity, served on a loopback
//     listener). A closed loop of one client per CPU, each waiting for its
//     report, submits a job, follows /events to the done frame and fetches
//     the report, rotating through ascii, json and csv. Plans are drawn
//     with a Zipf skew (s = 1.2) from a pool of quick-preset plans at the
//     preset's own scale that set-up simulates. The pool holds one plan
//     more than fit in the memory tier at its default capacity of 512
//     entries (20 plans, 520 units), so hits come from both tiers; the
//     run checks that they do. Set-up fills the most popular plan first,
//     so the memory tier has evicted it when timing starts. A quarter of the plan jobs run in
//     coordinate mode, and a tenth of all jobs instead submit one of the
//     first eight litmus-check programs of the seed, rendered with
//     FormatTest, as an inline source. The timed phase simulates nothing:
//     it is the read side of the cache and the trivial-unit side of the
//     engine. No record of how the service is used exists, so this
//     traffic is chosen, not measured: the skew, the coordinate and
//     source shares, and the half-second retention of finished jobs are
//     assumptions. The server admits four jobs per client (MaxJobs), so
//     a job whose slot is not yet freed when its client submits the next
//     one causes no refusal.
//
// # End-to-end metrics
//
// Every workload reports the same five, each for its own kind of job (a
// cold sweep, a verdict job, or one HTTP job from POST to the last report
// byte):
//
//   - setup_s: median of the complete set-ups from scratch one run makes:
//     at least three, and more while they add up to under two seconds.
//   - job_latency_p50_ms and job_latency_p90_ms: job wall time; the
//     printed report states the sample count.
//   - work_per_s: simulated memops (sweep-cold), candidate executions
//     checked (litmus-check) or jobs (serve-warm) per host second.
//   - peak_rss_mb: peak resident set of the process, which ran only that
//     workload. On serve-warm it includes the finished jobs the server
//     still retains, a share the half-second retention keeps small.
//
// The JSON line's attempted and failed fields count operations and
// correctness checks; error_rate, their ratio, is printed beside them.
// The printed report adds the workload's own figures under the names
// wall_s, sim_memops_per_s, cache_disk_mb (sweep-cold), candidates_per_s
// (litmus-check) and jobs_per_s (serve-warm).
//
// # Correctness checks
//
// Every run checks, and counts in attempted/failed: no unit deadlocked;
// each unit simulated exactly the memops of its materialized trace; warm
// results from the memory and the disk tier equal the cold results;
// sim.memops, sim.cycles and cache bytes repeat exactly from job to job;
// Table 1 matches the paper exactly; Table 4 has exactly one unsound
// mapping/type; every registry verdict matches, and so does every Table 4
// program's verdict with ValidateMapping; on generated programs the
// outcomes grow type-1 ⊆ type-2 ⊆ type-3 and the candidates enumerated
// equal CountCandidates, with the same total in every job; every
// serve-warm report is byte-identical to EncodeReport of the same plan run
// in-process (coordinated reports after dropping their coordination
// section, whose per-worker split varies); and serve-warm's timed phases
// have zero cache misses and, taken together, hit both cache tiers.
//
// # Traced run and per-layer ladder
//
// With --trace 1 the run sets the workload up once, measures it untraced
// and then traced for half the time each (the tracing overhead is the
// difference of their median jobs, trace.overhead_pct), and then runs a
// ladder that times each layer's public entry point from outside on
// inputs made from the seed. Spans (name, start, end, parent, job) are
// recorded around each layer call the benchmark makes, kept in memory,
// and written to .bench_build/spans-<workload>-<seed>.jsonl when the run
// ends, together with a self-time table. A second table splits each
// workload's job into layer self times by differences between rungs.
// The result line of a traced run holds the per-layer metrics only; the
// end-to-end metrics come from untraced runs.
//
// Predictions — which end-to-end metric, on which workload, each
// per-layer metric should move (all others should stay put):
//
//	per-layer metric                         moves                                   on
//	workload.gen_ms, .ns/.allocs_per_memop   job_latency_*, work_per_s               sweep-cold
//	sim.run_ms, .ns/.allocs/.bytes_per_memop job_latency_*, work_per_s, peak_rss_mb  sweep-cold
//	sim.memops, sim.cycles, sim.rmws         exact counts; must repeat               sweep-cold
//	simcache.put_ms, simcache.entry_bytes    job_latency_* (and cache_disk_mb)       sweep-cold
//	simcache.get_mem_ms, .get_disk_ms        job_latency_*, work_per_s               serve-warm
//	simcache.mem_hit_ratio, misses, corrupt  job_latency_*                           serve-warm
//	engine.job_ms, first_unit_ms,
//	  dispatch_us_per_unit, cache_*,
//	  retries, expired                       job_latency_*, work_per_s               serve-warm
//	experiments.runs_ms, build_report_ms,
//	  encode_ms.*, report_bytes              job_latency_*                           serve-warm
//	server.submit/events/report_ms, refused,
//	  sse_frames                             job_latency_*, work_per_s               serve-warm
//	memmodel.enumerate_ns_per_candidate,
//	  count_candidates_us, candidates        job_latency_*, work_per_s               litmus-check
//	core.valid_ns_per_candidate, valid_ratio job_latency_*, work_per_s               litmus-check
//	litmus.verdict_ms.*, mismatches          job_latency_*, work_per_s               litmus-check
//	litmus.parse_us                          job_latency_*                           serve-warm
//	cpp11.validate_ms                        setup_s; job_latency_* (every report    litmus-check;
//	                                           builds Tables 1 and 4)                serve-warm
//
// The server rung runs 24 jobs one at a time against a one-worker server
// over a two-plan pool. Set-up fills the cache with both plans and then
// the litmus verdicts, and the memory tier is sized to hold one plan and
// the verdicts, so plan lookups hit both tiers and its simcache ratios
// differ from serve-warm's. The engine rung runs one worker, so
// dispatch_us_per_unit is a warm job minus the Gets it makes, timed right
// after it, and can read below zero when dispatch is under the noise of
// the Gets.
//
// # Notes
//
//   - The simulator's timing model has no hardware reference, so no error
//     figure against real machines is given; Table 1 is checked exactly
//     against the paper.
//   - Figures quoted in this repository's documents were measured on a
//     2-CPU Intel Xeon virtual machine with 8 GB of memory; the printed
//     header of every run names its CPU count and model.
//   - The single-sample BENCH_v*.json snapshots (go test -benchtime 1x,
//     one file compared with another) are not comparable with this
//     benchmark's medians.
package main

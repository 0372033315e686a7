package main

import (
	"context"
	"fmt"
	"time"

	"repro/pkg/rmwtso"
)

// litmusGen sizes the generated programs of the litmus-check workload.
var litmusGen = genSpec{budget: 2000000, minCand: 500, maxCand: 50000}

// litmusCheck runs one uncached verdict job over the litmus registry,
// Table 4's compiled programs and programs generated from the seed, under
// all three RMW types.
type litmusCheck struct {
	b *bench
	// tests are the registry, the Table 4 programs and the generated
	// programs, in that order; the first expected of them carry expected
	// verdicts.
	tests    []*rmwtso.Test
	expected int
	// candidates is each generated test's CountCandidates price, by name.
	candidates map[string]int
	// firstWork is the first job's candidate total; every job repeats it.
	firstWork int
}

func newLitmusCheck(b *bench) workload { return &litmusCheck{b: b} }

func (w *litmusCheck) setup() error {
	w.tests = rmwtso.Suite().Tests()
	t4, err := table4Tests()
	if err != nil {
		return err
	}
	w.tests = append(w.tests, t4...)
	w.expected = len(w.tests)
	gen, err := genTests(w.b.seed, litmusGen)
	if err != nil {
		return err
	}
	w.candidates = map[string]int{}
	for _, g := range gen {
		w.tests = append(w.tests, g.test)
		w.candidates[g.test.Name] = g.candidates
	}
	return nil
}

// table4Tests compiles Table 4's SC store-buffering program under each
// mapping into a litmus test whose condition is the outcome C/C++11
// forbids (both loads read 0). Its expected verdict under each type is
// that the outcome is reachable exactly when ValidateMapping finds the
// mapping unsound.
func table4Tests() ([]*rmwtso.Test, error) {
	p := rmwtso.FindCpp11Program("sc-store-buffering")
	if p == nil {
		return nil, fmt.Errorf("the sc-store-buffering program is not registered")
	}
	var tests []*rmwtso.Test
	for _, m := range rmwtso.AllMappings() {
		prog, err := rmwtso.CompileCpp11(p, m)
		if err != nil {
			return nil, err
		}
		t := &rmwtso.Test{
			Name:     "table4-" + m.String(),
			Program:  prog,
			Cond:     rmwtso.ExistsCond(rmwtso.RegTerm(0, "r0", 0), rmwtso.RegTerm(1, "r1", 0)),
			Expected: map[rmwtso.AtomicityType]bool{},
		}
		for _, typ := range rmwtso.AllTypes() {
			res, err := rmwtso.ValidateMapping(p, m, typ)
			if err != nil {
				return nil, err
			}
			t.Expected[typ] = !res.Sound
		}
		tests = append(tests, t)
	}
	return tests, nil
}

// measure runs the verdict job back to back until the deadline.
func (w *litmusCheck) measure(until time.Time, tr *tracer) (*phase, error) {
	p := &phase{}
	for job := 0; time.Now().Before(until) || len(p.lat) == 0; job++ {
		root := tr.start("litmus.job", nil, fmt.Sprintf("litmus-%d", job))
		runner := rmwtso.NewRunner(rmwtso.WithParallelism(w.b.workers))
		start := time.Now()
		s := tr.start("engine.job", root, "")
		h, err := runner.Submit(context.Background(), rmwtso.Job{Litmus: &rmwtso.LitmusGrid{Tests: w.tests}})
		var verdicts []rmwtso.TestResult
		if err == nil {
			var res *rmwtso.JobResult
			if res, err = h.Wait(); err == nil {
				verdicts = res.Verdicts
			}
		}
		s.end()
		lat := time.Since(start)
		p.attempted++
		if err != nil {
			root.end()
			p.failed++
			w.b.note("litmus job %d: %v", job, err)
			continue
		}
		s = tr.start("litmus.check", root, "")
		work := w.checkVerdicts(job, verdicts, len(runner.Types()))
		s.end()
		root.end()
		p.lat = append(p.lat, lat)
		p.work += float64(work)
		p.busy += lat
	}
	return p, nil
}

// checkVerdicts checks one job's verdicts and returns the candidates they
// enumerated: registry and Table 4 verdicts match their expectations,
// generated tests enumerate exactly their priced candidates, and each
// generated test's outcomes grow from type-1 to type-2 to type-3.
func (w *litmusCheck) checkVerdicts(job int, verdicts []rmwtso.TestResult, types int) int {
	if !w.b.check(len(verdicts) == len(w.tests)*types, "litmus job %d returned %d verdicts, want %d", job, len(verdicts), len(w.tests)*types) {
		return 0
	}
	work := 0
	for i, t := range w.tests {
		byType := map[rmwtso.AtomicityType]rmwtso.TestResult{}
		for _, v := range verdicts[i*types : (i+1)*types] {
			work += v.Candidates
			byType[v.Atomicity] = v
			if i < w.expected {
				w.b.check(v.Matches, "test %q under %s: verdict %v does not match its expectation", t.Name, v.Atomicity, v.Holds)
			} else {
				w.b.check(v.Candidates == w.candidates[t.Name], "generated test %q under %s enumerated %d candidates, CountCandidates says %d",
					t.Name, v.Atomicity, v.Candidates, w.candidates[t.Name])
			}
		}
		if i < w.expected {
			continue
		}
		all := rmwtso.AllTypes()
		for k := 1; k < len(all); k++ {
			lo, hi := byType[all[k-1]], byType[all[k]]
			w.b.check(lo.Outcomes != nil && hi.Outcomes != nil && lo.Outcomes.SubsetOf(hi.Outcomes),
				"generated test %q: %s outcomes are not a subset of %s outcomes", t.Name, all[k-1], all[k])
		}
	}
	if w.firstWork == 0 {
		w.firstWork = work
	} else {
		w.b.check(work == w.firstWork, "litmus job %d enumerated %d candidates, the first job %d", job, work, w.firstWork)
	}
	return work
}

// verify checks Table 1 against the paper and that Table 4 has exactly
// one unsound mapping/type combination.
func (w *litmusCheck) verify() error {
	rows, err := rmwtso.RunTable1()
	if w.b.checkErr(err, "Table 1") {
		w.b.checkErr(rmwtso.CheckTable1Matches(rows), "Table 1 against the paper")
	}
	t4, err := rmwtso.RunTable4()
	if w.b.checkErr(err, "Table 4") {
		unsound := 0
		for _, r := range t4 {
			if !r.Sound {
				unsound++
			}
		}
		w.b.check(unsound == 1, "Table 4 has %d unsound mapping/type rows, want exactly 1", unsound)
	}
	return nil
}

func (w *litmusCheck) report(p *phase, r *result) {
	r.show("wall_s", quantile(p.lat, 0.5).Seconds(), "s")
	r.show("candidates_per_s", p.work/p.busy.Seconds(), "1/s")
	r.show("memmodel.candidates (per job)", float64(w.firstWork), "count")
	r.show("tests per job", float64(len(w.tests)), "count")
}

func (w *litmusCheck) close() {}

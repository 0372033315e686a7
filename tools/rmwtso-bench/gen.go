package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/pkg/rmwtso"
)

// maxWritesPerLoc caps the writes and RMWs to one location in a
// generated program, and maxInstrs its instructions: both keep pricing a
// program with CountCandidates cheap. maxReadsFrom caps the product of
// the reads' source-write choices, the space CountCandidates walks: a
// program above it is drawn again unpriced, so no single program makes
// set-up slow. Programs inside the candidate window need far less (at
// most 13,824 over seeds 1-60).
const (
	maxWritesPerLoc = 4
	maxInstrs       = 10
	maxReadsFrom    = 1 << 16
)

// genSpec bounds the litmus programs genTests makes.
type genSpec struct {
	// n is how many programs to make; with budget > 0, programs are made
	// until their candidates add up to budget instead, so every seed
	// yields about the same amount of work.
	n, budget int
	// minCand and maxCand bound each program's candidate executions, as
	// CountCandidates prices them.
	minCand, maxCand int
}

// genTest is one generated litmus test with its priced candidate count.
type genTest struct {
	test       *rmwtso.Test
	candidates int
}

// genTests makes random litmus tests from the seed using only the
// facade's program builders: 2-4 threads of 1-4 reads, writes,
// fetch-and-adds and fences over 2-3 locations, with an exists condition
// over the registers. Programs outside the candidate window, above
// maxReadsFrom, or whose space is too large to count, are drawn again.
// The same seed always yields the same tests.
func genTests(seed int64, spec genSpec) ([]genTest, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []genTest
	total := 0
	more := func() bool {
		if spec.budget > 0 {
			return total < spec.budget
		}
		return len(out) < spec.n
	}
	for attempt := 0; more(); attempt++ {
		if attempt > 100000 {
			return nil, fmt.Errorf("generated only %d litmus programs inside [%d, %d] candidates",
				len(out), spec.minCand, spec.maxCand)
		}
		t, readsFrom := randomTest(rng, fmt.Sprintf("gen-%d-%03d", seed, len(out)))
		if t.Program.NumInstructions() > maxInstrs || readsFrom > maxReadsFrom {
			continue
		}
		c, err := rmwtso.CountCandidates(t.Program)
		if errors.Is(err, rmwtso.ErrSpaceTooLarge) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if c < spec.minCand || c > spec.maxCand {
			continue
		}
		out = append(out, genTest{test: t, candidates: c})
		total += c
	}
	return out, nil
}

// randomTest draws one litmus test and returns it with its reads-from
// product: each read can read any write to its location, or the initial
// value, except the write half of its own RMW.
func randomTest(rng *rand.Rand, name string) (*rmwtso.Test, int) {
	p := rmwtso.NewProgram(name)
	threads := 2 + rng.Intn(3)
	locs := 2 + rng.Intn(2)
	writes := make([]int, locs)
	// reads and rmws count each location's plain reads and RMWs.
	reads, rmws := make([]int, locs), make([]int, locs)
	var regs []rmwtso.Term
	for tid := 0; tid < threads; tid++ {
		n := 1 + rng.Intn(4)
		var instrs []rmwtso.Instr
		memops := 0
		for i := 0; i < n; i++ {
			addr := rmwtso.Addr(rng.Intn(locs))
			reg := fmt.Sprintf("r%d", i)
			val := rmwtso.Value(1 + rng.Intn(2))
			k := rng.Intn(20)
			if k >= 7 && k < 18 {
				// Cap the writers of a location: its coherence orders
				// grow factorially, and so does pricing them.
				if writes[addr] == maxWritesPerLoc {
					k = 0
				} else {
					writes[addr]++
				}
			}
			switch {
			case k < 7:
				instrs = append(instrs, rmwtso.Read(addr, reg))
				reads[addr]++
				regs = append(regs, rmwtso.RegTerm(rmwtso.ThreadID(tid), reg, rmwtso.Value(rng.Intn(3))))
				memops++
			case k < 14:
				instrs = append(instrs, rmwtso.Write(addr, val))
				memops++
			case k < 18:
				instrs = append(instrs, rmwtso.FetchAdd(addr, reg, val))
				rmws[addr]++
				regs = append(regs, rmwtso.RegTerm(rmwtso.ThreadID(tid), reg, rmwtso.Value(rng.Intn(3))))
				memops++
			default:
				if i > 0 && i < n-1 {
					instrs = append(instrs, rmwtso.Fence())
				}
			}
		}
		if memops == 0 {
			addr := rng.Intn(locs)
			instrs = append(instrs, rmwtso.Read(rmwtso.Addr(addr), "r9"))
			reads[addr]++
		}
		p.AddThread(instrs...)
	}
	var terms []rmwtso.Term
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	for i := 0; i < len(regs) && i < 2; i++ {
		terms = append(terms, regs[i])
	}
	if len(terms) == 0 {
		terms = append(terms, rmwtso.MemTerm(rmwtso.Addr(0), rmwtso.Value(rng.Intn(3))))
	}
	readsFrom := 1
	for a := range writes {
		for i := 0; i < reads[a]; i++ {
			readsFrom *= writes[a] + 1
		}
		for i := 0; i < rmws[a]; i++ {
			readsFrom *= writes[a]
		}
	}
	return &rmwtso.Test{Name: name, Program: p, Cond: rmwtso.ExistsCond(terms...)}, readsFrom
}

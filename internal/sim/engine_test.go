package sim

import (
	"sort"
	"testing"
)

// record returns a handler that appends each event's Tag to order.
func record(order *[]uint64) func(Event) {
	return func(ev Event) { *order = append(*order, ev.Tag) }
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []uint64
	e.Schedule(Event{At: 10, Tag: 2})
	e.Schedule(Event{At: 5, Tag: 1})
	e.Schedule(Event{At: 20, Tag: 3})
	if err := e.Run(100, record(&order)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %d, want 20", e.Now())
	}
	if e.Executed() != 3 {
		t.Errorf("Executed = %d, want 3", e.Executed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
	if e.PeakPending() != 3 {
		t.Errorf("PeakPending = %d, want 3", e.PeakPending())
	}
}

func TestEngineTiesBreakByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []uint64
	for i := 0; i < 5; i++ {
		e.Schedule(Event{At: 7, Tag: uint64(i)})
	}
	if err := e.Run(100, record(&order)); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("tie-breaking not FIFO: %v", order)
		}
	}
}

// TestEngineMatchesSortedOrder schedules pseudo-random cycles with many
// ties, some from inside handlers, and checks the heap yields exactly the
// (cycle, scheduling order) sort.
func TestEngineMatchesSortedOrder(t *testing.T) {
	e := NewEngine()
	type key struct{ at, seq uint64 }
	var want []key
	seq := uint64(0)
	x := uint64(12345)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	schedule := func(at uint64) {
		e.Schedule(Event{At: at, Tag: seq})
		want = append(want, key{at, seq})
		seq++
	}
	for i := 0; i < 300; i++ {
		schedule(next() % 50)
	}
	var got []key
	if err := e.Run(1<<20, func(ev Event) {
		got = append(got, key{ev.At, ev.Tag})
		if len(got)%3 == 0 && len(want) < 600 {
			schedule(ev.At + next()%20)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("ran %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEngineEventsCanScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(Event{At: 0})
	err := e.Run(1000, func(ev Event) {
		count++
		if count < 10 {
			e.Schedule(Event{At: e.Now() + 3})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 27 {
		t.Errorf("Now = %d, want 27", e.Now())
	}
	if e.PeakPending() != 1 {
		t.Errorf("PeakPending = %d, want 1", e.PeakPending())
	}
}

func TestEngineCycleLimit(t *testing.T) {
	e := NewEngine()
	e.Schedule(Event{At: 0})
	err := e.Run(55, func(ev Event) { e.Schedule(Event{At: e.Now() + 10}) })
	if err == nil {
		t.Fatal("exceeding the cycle limit must return an error")
	}
	if e.Pending() == 0 {
		t.Error("the event that exceeded the limit should remain pending")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Event{At: 10})
	err := e.Run(100, func(ev Event) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling before Now should panic")
			}
		}()
		e.Schedule(Event{At: 5})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineRunEmptyQueue(t *testing.T) {
	e := NewEngine()
	if err := e.Run(10, func(Event) {}); err != nil {
		t.Fatal("running an empty engine should succeed")
	}
}

func TestOpConstructorsAndKinds(t *testing.T) {
	if Compute(5).Kind != OpCompute || Compute(5).Think != 5 {
		t.Error("Compute constructor wrong")
	}
	if Read(0x40).Kind != OpRead || Read(0x40).Addr != 0x40 {
		t.Error("Read constructor wrong")
	}
	if Write(0x80).Kind != OpWrite {
		t.Error("Write constructor wrong")
	}
	if RMW(0xc0).Kind != OpRMW {
		t.Error("RMW constructor wrong")
	}
	if Fence().Kind != OpFence {
		t.Error("Fence constructor wrong")
	}
	if !OpRead.IsMemory() || !OpWrite.IsMemory() || !OpRMW.IsMemory() {
		t.Error("memory kinds misclassified")
	}
	if OpCompute.IsMemory() || OpFence.IsMemory() {
		t.Error("non-memory kinds misclassified")
	}
	names := map[OpKind]string{OpCompute: "compute", OpRead: "read", OpWrite: "write", OpRMW: "rmw", OpFence: "fence"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := NewTrace("t", 2)
	tr.Append(0, Read(0), Write(64), RMW(128), Compute(10))
	tr.Append(1, RMW(128), Fence())
	if tr.Cores() != 2 || tr.TotalOps() != 6 {
		t.Errorf("Cores=%d TotalOps=%d", tr.Cores(), tr.TotalOps())
	}
	if tr.MemOps() != 4 {
		t.Errorf("MemOps = %d, want 4", tr.MemOps())
	}
	if tr.CountKind(OpRMW) != 2 || tr.CountKind(OpFence) != 1 {
		t.Error("CountKind wrong")
	}
	if tr.UniqueRMWLines(64) != 1 {
		t.Errorf("UniqueRMWLines = %d, want 1", tr.UniqueRMWLines(64))
	}
	cfg := DefaultConfig().WithCores(2)
	if err := tr.Validate(cfg); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := NewTrace("empty", 0).Validate(cfg); err == nil {
		t.Error("trace with no cores must not validate")
	}
	big := NewTrace("big", 4)
	if err := big.Validate(cfg); err == nil {
		t.Error("trace with more cores than the config must not validate")
	}
}

func TestConfigValidateAndHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Cores != 32 || cfg.WriteBufferDepth != 32 || cfg.MemLatencyCycles != 300 {
		t.Error("default config does not match Table 2")
	}
	if cfg.LineOf(130) != 2 {
		t.Errorf("LineOf(130) = %d, want 2", cfg.LineOf(130))
	}
	if len(cfg.Table2()) < 7 {
		t.Error("Table2 rendering too short")
	}

	bad := []func(Config) Config{
		func(c Config) Config { c.Cores = 0; return c },
		func(c Config) Config { c.WriteBufferDepth = 0; return c },
		func(c Config) Config { c.L1SizeBytes = 0; return c },
		func(c Config) Config { c.L1SizeBytes = 1000; return c },
		func(c Config) Config { c.RMWType = 0; return c },
		func(c Config) Config { c.BloomFilterBits = 0; return c },
		func(c Config) Config { c.MaxCycles = 0; return c },
	}
	for i, mutate := range bad {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

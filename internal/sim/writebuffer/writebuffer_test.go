package writebuffer

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestPushPopFIFO(t *testing.T) {
	b := New(4)
	if !b.Empty() || b.Full() || b.Len() != 0 || b.Capacity() != 4 {
		t.Fatal("fresh buffer state wrong")
	}
	id1, err := b.Push(10, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := b.Push(20, true, 101)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Empty() {
		t.Fatal("length wrong after pushes")
	}
	if b.Head().ID != id1 {
		t.Error("head should be the oldest entry")
	}
	if !b.Remove(id1) {
		t.Error("Remove head failed")
	}
	if b.Head().ID != id2 {
		t.Error("head should advance after removal")
	}
	if b.Head().IsRMWWrite != true || b.Head().Line != 20 || b.Head().EnqueuedAt != 101 {
		t.Error("entry fields lost")
	}
}

func TestPushFullRejects(t *testing.T) {
	b := New(2)
	if _, err := b.Push(1, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Push(2, false, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Full() {
		t.Fatal("buffer should be full")
	}
	if _, err := b.Push(3, false, 0); err == nil {
		t.Fatal("push into a full buffer must fail")
	}
	if b.Len() != 2 {
		t.Error("failed push must not grow the buffer")
	}
}

func TestRemoveOutOfOrder(t *testing.T) {
	b := New(4)
	id1, _ := b.Push(1, false, 0)
	id2, _ := b.Push(2, false, 0)
	id3, _ := b.Push(3, false, 0)
	if !b.Remove(id2) {
		t.Fatal("middle removal failed")
	}
	if b.Len() != 2 || b.Head().ID != id1 || b.At(1).ID != id3 || b.At(1).Line != 3 {
		t.Error("removal disturbed order")
	}
	if b.Remove(id2) {
		t.Error("double removal should report absence")
	}
	if b.Find(id2) != nil || b.Find(id3).Line != 3 {
		t.Error("Find must track entries by ID across removals")
	}
	if !b.Remove(id1) || !b.Remove(id3) {
		t.Error("remaining removals failed")
	}
	if !b.Empty() {
		t.Error("buffer should be empty")
	}
	if b.Head() != nil {
		t.Error("Head of an empty buffer should be nil")
	}
}

func TestContains(t *testing.T) {
	b := New(8)
	b.Push(100, false, 0)
	b.Push(200, false, 0)
	b.Push(100, false, 0)
	if !b.Contains(100) || !b.Contains(200) || b.Contains(300) {
		t.Error("Contains wrong")
	}
}

func TestEntriesIsFIFOView(t *testing.T) {
	b := New(4)
	b.Push(5, false, 1)
	b.Push(6, true, 2)
	if b.Len() != 2 || b.At(0).Line != 5 || b.At(1).Line != 6 || !b.At(1).IsRMWWrite {
		t.Errorf("At view = %+v, %+v", *b.At(0), *b.At(1))
	}
}

// TestRingWrapsAround pushes and drains many more writes than the ring
// holds, so entries live at every ring offset including across the wrap.
func TestRingWrapsAround(t *testing.T) {
	b := New(3)
	next := uint64(0)
	for round := 0; round < 10; round++ {
		for !b.Full() {
			if _, err := b.Push(next, false, next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		want := next - uint64(b.Len())
		for i := 0; i < b.Len(); i++ {
			if b.At(i).Line != want+uint64(i) {
				t.Fatalf("round %d: At(%d).Line = %d, want %d", round, i, b.At(i).Line, want+uint64(i))
			}
		}
		// Drain two of three, leaving the ring's head mid-array.
		b.Remove(b.Head().ID)
		b.Remove(b.Head().ID)
	}
}

func TestPropertyNeverExceedsCapacityAndFIFO(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		b := New(4)
		var order []uint64
		for i, op := range ops {
			if op%3 == 0 && !b.Empty() {
				head := b.Head()
				if head.Line != order[0] {
					return false // FIFO violated
				}
				b.Remove(head.ID)
				order = order[1:]
				continue
			}
			if !b.Full() {
				line := uint64(i)
				if _, err := b.Push(line, false, uint64(i)); err != nil {
					return false
				}
				order = append(order, line)
			}
			if b.Len() > b.Capacity() {
				return false
			}
		}
		return b.Len() == len(order)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

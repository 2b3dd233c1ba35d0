package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A commit fences just below its own range while holding the range's
// slot. The wait must be bounded by the fenced timestamp, not by the
// global snapTime: once another goroutine has fenced at or above first
// (and so waits on the commit), a wait on snapTime would wait on the
// commit's own slot and never return.
func TestFenceBelowOwnSlot(t *testing.T) {
	o := New()
	first, slot := o.GetTSBatch(3)

	above := make(chan struct{})
	go func() {
		o.Fence(first + 2) // waits on slot first
		close(above)
	}()
	for o.SnapTime() < first {
		time.Sleep(time.Millisecond)
	}

	below := make(chan struct{})
	go func() {
		o.Fence(first - 1)
		close(below)
	}()
	select {
	case <-below:
	case <-time.After(10 * time.Second):
		t.Fatalf("Fence(%d) still waiting with snapTime %d while only slot %d is active",
			first-1, o.SnapTime(), first)
	}
	select {
	case <-above:
		t.Fatalf("Fence(%d) returned while slot %d is active", first+2, first)
	default:
	}
	o.Done(slot)
	<-above
}

// A writer whose timestamp is at or below a fence but who registers in
// the Active set only after the fence was raised must roll back and draw
// a timestamp above it: the fence's wait never saw that writer.
func TestFenceRollsBackLateWriter(t *testing.T) {
	o := New()
	_, s := o.GetTS()
	o.Done(s)

	fenced := o.Now() + 5 // above the counter: the next draws fall below it
	o.Fence(fenced)
	if o.SnapTime() < fenced {
		t.Fatalf("snapTime %d below fence %d", o.SnapTime(), fenced)
	}
	ts, slot := o.GetTS()
	o.Done(slot)
	if ts <= fenced {
		t.Fatalf("GetTS drew %d at or below fence %d", ts, fenced)
	}
	o.Fence(o.Now() + 5)
	first, slot := o.GetTSBatch(4)
	o.Done(slot)
	if first <= o.SnapTime() {
		t.Fatalf("GetTSBatch drew %d at or below fence %d", first, o.SnapTime())
	}
}

// The commit protocol under concurrency: committers take a batch range
// and fence just below it while putters and snapshot takers run. Once a
// Fence(first-1) returns, no put may still insert at a timestamp below
// first, and no committer may hang on its own slot.
func TestConcurrentFencedCommits(t *testing.T) {
	o := New()
	var settled atomic.Uint64 // highest timestamp some Fence has settled
	raise := func(ts uint64) {
		for {
			cur := settled.Load()
			if ts <= cur || settled.CompareAndSwap(cur, ts) {
				return
			}
		}
	}
	var violations atomic.Int64
	stop := make(chan struct{})
	var putters sync.WaitGroup
	for w := 0; w < 3; w++ {
		putters.Add(1)
		go func() {
			defer putters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts, slot := o.GetTS()
				if settled.Load() >= ts { // the "insert" runs while ts is active
					violations.Add(1)
				}
				o.Done(slot)
				// Hand the P over between puts: on one P a putter that
				// never blocks would hold it for a full preemption slice
				// each time a fence sleeps.
				runtime.Gosched()
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(2)
		go func() {
			defer workers.Done()
			for i := 0; i < 1000; i++ {
				first, slot := o.GetTSBatch(3)
				o.Fence(first - 1)
				raise(first - 1)
				o.Done(slot)
			}
		}()
		go func() {
			defer workers.Done()
			for i := 0; i < 500; i++ {
				raise(o.SnapshotTS())
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("fenced commits or snapshots hung")
	}
	close(stop)
	putters.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d puts ran at a timestamp a returned fence had settled", v)
	}
}

// A snapshot taken while a background writer (GetTSBackground) holds its
// slot waits the slot out instead of stepping below it, so it still
// covers a write completed after the background writer drew its
// timestamp. A foreground slot would have pulled it below both.
func TestSnapshotWaitsForBackgroundSlot(t *testing.T) {
	o := New()
	bg, bslot := o.GetTSBackground()
	if m := o.ActiveMin(); m != bg {
		t.Fatalf("ActiveMin = %d, want background slot %d", m, bg)
	}
	ts, slot := o.GetTS()
	o.Done(slot)

	snap := make(chan uint64, 1)
	go func() { snap <- o.SnapshotTS() }()
	select {
	case s := <-snap:
		t.Fatalf("snapshot %d returned while background slot %d is active", s, bg)
	case <-time.After(20 * time.Millisecond):
	}
	o.Done(bslot)
	if s := <-snap; s < ts {
		t.Fatalf("snapshot %d misses write %d completed before it was taken", s, ts)
	}
}

package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"clsm/internal/faultfs"
	"clsm/internal/obs"
	"clsm/internal/storage"
)

// slowDiskDB opens an engine on a faultfs-wrapped MemFS whose sstable
// writes are slowed by d, with a small memtable so background work backs up
// quickly under load.
func slowDiskDB(t *testing.T, d time.Duration, opt func(*Options)) (*DB, *faultfs.FS) {
	t.Helper()
	ffs := faultfs.Wrap(storage.NewMemFS())
	ffs.SetDelay(faultfs.OpWrite, "*.sst", d)
	opts := Options{FS: ffs, MemtableSize: 32 << 10}
	if opt != nil {
		opt(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db, ffs
}

// TestThrottleEngagesAndRecovers drives sustained writes against a slow
// disk and asserts the admission controller's whole lifecycle: it
// activates under backlog (throttle-on event, throttled writes recorded),
// it never falls back to the legacy hard L0 stop, and once the load stops
// and the backlog drains it deactivates and the debt gauge returns to
// zero.
func TestThrottleEngagesAndRecovers(t *testing.T) {
	// Tally the whole event stream through a sink: the trace ring keeps
	// only the newest 1024 events, and a slow (e.g. race-instrumented)
	// run records enough flush and stall events to wrap it.
	var mu sync.Mutex
	var ons, zeroRateOns, l0Stops int
	o := obs.New()
	o.Trace.SetSink(func(e obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Type == obs.EvThrottleOn {
			ons++
			if e.Bytes == 0 {
				zeroRateOns++
			}
		}
		if e.Type == obs.EvStallBegin && e.Cause == obs.CauseL0Stop {
			l0Stops++
		}
	})
	db, ffs := slowDiskDB(t, 2*time.Millisecond, func(opts *Options) { opts.Observer = o })

	value := make([]byte, 512)
	deadline := time.Now().Add(4 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), value); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if db.obs.WriteThrottle.Count() > 25 {
			break // throttle engaged and shaped a batch of writes
		}
	}
	if n := db.obs.WriteThrottle.Count(); n == 0 {
		t.Fatal("write throttle never engaged under slow-disk load")
	}

	mu.Lock()
	if zeroRateOns > 0 {
		t.Error("throttle-on event carries zero rate")
	}
	if l0Stops > 0 {
		t.Error("hard L0 stop fired despite the admission controller")
	}
	if ons == 0 {
		t.Error("no throttle-on trace event recorded")
	}
	mu.Unlock()

	// Load stopped: un-slow the disk and wait for the backlog to drain and
	// the admitted rate to recover all the way to deactivation.
	ffs.SetDelay(faultfs.OpWrite, "*.sst", 0)
	drained := false
	for wait := time.Now().Add(30 * time.Second); time.Now().Before(wait); {
		if db.obs.CompactionDebt.Load() == 0 && db.obs.ThrottleRate.Load() == 0 {
			drained = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !drained {
		t.Fatalf("backlog never drained: debt=%d rate=%d",
			db.obs.CompactionDebt.Load(), db.obs.ThrottleRate.Load())
	}
	if got := db.throttle.Rate(); got != 0 {
		t.Fatalf("throttle still active after drain: rate=%d", got)
	}
}

// TestThrottleWaitsAreGradual asserts the shape of the imposed delays: the
// backpressure arrives as many small per-write waits that pace the load to
// the admitted rate, never as one hard stop — each wait is bounded by the
// controller's 250ms clamp while the total tracks bytes/rate.
func TestThrottleWaitsAreGradual(t *testing.T) {
	// A tiny hard rate limit makes waits deterministic without a slow disk.
	db, _ := slowDiskDB(t, 0, func(o *Options) {
		o.WriteRateLimit = 64 << 10 // 64 KiB/s
	})
	value := make([]byte, 1024)
	var waits []time.Duration
	start := time.Now()
	for i := 0; i < 12; i++ {
		s := time.Now()
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), value); err != nil {
			t.Fatalf("Put: %v", err)
		}
		waits = append(waits, time.Since(s))
	}
	elapsed := time.Since(start)
	// ~12 KiB at 64 KiB/s must take ~190ms of imposed delay in total; a
	// binary gate would have admitted everything instantly (burst) or
	// parked a writer for the full 1s clamp.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("load was not paced: 12 KiB at 64 KiB/s finished in %v", elapsed)
	}
	slowed := 0
	for i, w := range waits {
		if w > 500*time.Millisecond {
			t.Fatalf("wait %d = %v: one cliff-sized stall instead of gradual pacing", i, w)
		}
		if w > 5*time.Millisecond {
			slowed++
		}
	}
	if slowed < len(waits)/2 {
		t.Errorf("delay concentrated in %d/%d puts; want it spread across the batch", slowed, len(waits))
	}
}

// TestCloseInterruptsThrottledWriter parks a writer in a clamp-length
// admission wait and closes the store: the writer must return ErrClosed
// promptly instead of sleeping out its delay.
func TestCloseInterruptsThrottledWriter(t *testing.T) {
	db, _ := slowDiskDB(t, 0, func(o *Options) {
		o.WriteRateLimit = 16 // bytes/s: every put waits the full clamp
	})
	var wg sync.WaitGroup
	errC := make(chan error, 1)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errC <- db.Put([]byte("parked"), make([]byte, 256))
	}()
	time.Sleep(50 * time.Millisecond)
	db.Close()
	wg.Wait()
	if err := <-errC; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked Put returned %v, want ErrClosed", err)
	}
	if e := time.Since(start); e > 600*time.Millisecond {
		t.Fatalf("Close took %v to interrupt the throttled writer", e)
	}
}

// TestResumeInterruptsThrottledWriter parks a writer the same way and
// calls Resume: the operator override must admit it immediately and reset
// the bucket.
func TestResumeInterruptsThrottledWriter(t *testing.T) {
	db, _ := slowDiskDB(t, 0, func(o *Options) {
		o.WriteRateLimit = 16
	})
	errC := make(chan error, 1)
	start := time.Now()
	go func() {
		errC <- db.Put([]byte("parked"), make([]byte, 256))
	}()
	time.Sleep(50 * time.Millisecond)
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("parked Put returned %v after Resume", err)
		}
	case <-time.After(600 * time.Millisecond):
		t.Fatal("Resume did not release the throttled writer")
	}
	if e := time.Since(start); e > 600*time.Millisecond {
		t.Fatalf("release took %v", e)
	}
}

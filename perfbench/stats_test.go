package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQ(t *testing.T) {
	cases := []struct {
		n    uint64
		want float64
	}{
		{1_000_000, 0.99},
		{1000, 0.99},   // exactly ten samples beyond p99
		{999, 0.98999}, // rank n-10: ten beyond
		{500, 0.98},
		{100, 0.90},
		{20, 0.5},
		{11, 0.5}, // never below the median
	}
	for _, c := range cases {
		got := tailQ(c.n)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("tailQ(%d) = %.5f, want %.5f", c.n, got, c.want)
		}
		if c.n >= 20 {
			beyond := float64(c.n) - math.Ceil(got*float64(c.n))
			if beyond < 10-1e-9 {
				t.Errorf("tailQ(%d) leaves %.0f samples beyond it, want >= 10", c.n, beyond)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000) // 1µs .. 100ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if h.n != 100_000 {
		t.Fatalf("count %d", h.n)
	}
	if got := h.tail(); math.Abs(got-h.quantile(0.99)) > 0 {
		t.Errorf("tail of 100000 samples = %.0f, want p99 %.0f", got, h.quantile(0.99))
	}
	// Small values are exact.
	var s hist
	for _, v := range []int64{3, 1, 2} {
		s.record(v)
	}
	if s.quantile(0.5) != 2 || s.quantile(1) != 3 || s.quantile(0) != 1 {
		t.Errorf("small quantiles %v %v %v", s.quantile(0), s.quantile(0.5), s.quantile(1))
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for v := int64(0); v < 5000; v++ {
		x := v * 7919 % 100_000
		all.record(x)
		if v%2 == 0 {
			a.record(x)
		} else {
			b.record(x)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("merged quantile(%v) = %v, want %v", q, a.quantile(q), all.quantile(q))
		}
	}
}

func TestSliceOf(t *testing.T) {
	w := 30 * time.Second
	cases := []struct {
		since time.Duration
		want  int
	}{
		{-time.Millisecond, 0}, // recorded just before the window's clock start
		{0, 0},
		{2999 * time.Millisecond, 0},
		{3 * time.Second, 1},
		{29 * time.Second, 9},
		{31 * time.Second, slices - 1}, // a late straggler stays in the last slice
	}
	for _, c := range cases {
		if got := sliceOf(c.since, w); got != c.want {
			t.Errorf("sliceOf(%v, %v) = %d, want %d", c.since, w, got, c.want)
		}
	}
}

func TestOpHistTail(t *testing.T) {
	// Every slice has 1000 samples of 1..1000µs, so each slice's p99 is
	// 990µs; three slices carry a hiccup that pushes their tail to 50ms.
	var h opHist
	for s := 0; s < slices; s++ {
		for v := int64(1); v <= 1000; v++ {
			ns := v * 1000
			if (s == 2 || s == 3 || s == 7) && v > 950 {
				ns = 50_000_000
			}
			h.record(s, ns)
		}
	}
	if h.all.n != slices*1000 {
		t.Fatalf("count %d", h.all.n)
	}
	if got := h.tail(); math.Abs(got-990_000)/990_000 > 0.01 {
		t.Errorf("tail = %.0f, want the typical slice's p99 990000 within 1%%", got)
	}
	if got := h.all.tail(); got < 10_000_000 {
		t.Errorf("whole-window p99 = %.0f, want the hiccup (50ms) to show in it", got)
	}
	// The median of an even number of slice tails averages the middle two.
	var e opHist
	e.record(0, 100)
	e.record(1, 300)
	if got := e.tail(); got != 200 {
		t.Errorf("tail of two one-sample slices = %v, want 200", got)
	}
	var empty opHist
	if empty.tail() != 0 {
		t.Errorf("empty tail = %v", empty.tail())
	}
}

func TestOpenLoopTimes(t *testing.T) {
	// Sent 300ns after it was due, answered 1000ns after that.
	late, lat := openLoopTimes(1000, 1300, 2300)
	if late != 300 || lat != 1300 {
		t.Errorf("late, latency = %d, %d; want 300, 1300 (latency counts from the schedule)", late, lat)
	}
	// Sent early (the generator woke before the tick): not negative late.
	late, lat = openLoopTimes(1000, 990, 1500)
	if late != 0 || lat != 500 {
		t.Errorf("late, latency = %d, %d; want 0, 500", late, lat)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{0, 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{10, 30}}, 80},
		{"disjoint", []span{{10, 20}, {50, 70}}, 70},
		{"overlapping", []span{{10, 40}, {30, 60}}, 50},
		{"nested", []span{{10, 90}, {20, 30}}, 20},
		{"outside parent clipped", []span{{-50, 10}, {90, 200}}, 80},
		{"entirely outside", []span{{200, 300}}, 100},
		{"unsorted", []span{{60, 70}, {10, 20}, {15, 25}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	in := layerInputs{
		ops: 1000, writes: 400, userBytes: 10_000, gets: 500,
		commits: 30, conflicts: 10,
		clientCalls: 900, engineCalls: 300,
		storageWriteBytes: 25_000, storageReadCalls: 50, storageReads: 200_000,
		window: deltas{mallocs: 3000, gcCPU: 0.5, allCPU: 10, cpuUS: 2000},
		bg: deltas{walSyncs: 100, walGroups: 80, walRecords: 400, cacheHits: 300, cacheMisses: 100,
			compactionBytes: 40_000, vlogBytes: 5000},
	}
	want := map[string]float64{
		"server.reqs_per_engine_call":       3,    // client calls / engine calls
		"wal.syncs_per_write":               0.25, // WAL syncs / acknowledged write requests
		"wal.group_size_mean":               5,    // records / groups
		"storage.write_bytes_per_user_byte": 2.5,  // FS bytes written / user bytes
		"storage.read_calls_per_get":        0.1,  // ReadAt calls / Gets
		"storage.read_bytes_per_get":        400,  // ReadAt bytes / Gets
		"cache.hit_ratio":                   0.75, // hits / lookups (hits+misses)
		"cache.misses_per_get":              0.2,  // misses / Gets
		"txn.conflict_ratio":                0.25, // conflicts / commit attempts
		"compaction.bytes_per_user_byte":    4,    // compaction bytes / user bytes
		"vlog.bytes_per_user_byte":          0.5,  // value-log bytes / user bytes
		"runtime.allocs_per_op":             3,    // mallocs / ops
		"runtime.gc_cpu_frac":               0.05, // GC CPU / all CPU
		"process.cpu_us_per_op":             2,    // rusage CPU µs / ops
	}
	got := map[string]float64{}
	for _, m := range ratios(in) {
		got[m.name] = m.value
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("ratios() returned %d metrics, test covers %d", len(got), len(want))
	}
	// An empty base yields 0, not NaN or Inf.
	for _, m := range ratios(layerInputs{}) {
		if m.value != 0 {
			t.Errorf("%s with empty bases = %v, want 0", m.name, m.value)
		}
	}
}

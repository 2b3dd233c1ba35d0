package main

// The vlog profile prices key-value separation (docs/VALUELOG.md). The
// same update-heavy workload runs twice at large (4 KiB) values — once
// inline, once separated — comparing put throughput and the LSM rewrite
// volume per logical byte written (flush + compaction bytes / user
// bytes), the write-amplification axis the value log exists to flatten.
// Alternating pairs at small (128 B) values, with the threshold enabled
// but not reached, assert the inline fast path is untouched when the
// feature is configured; their median ratio is reported so one slow run
// cannot fake a cost. Results land in BENCH_vlog.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clsm"
	"clsm/internal/harness"
)

// vlogRunResult is one cell of the profile.
type vlogRunResult struct {
	Name       string  `json:"name"`
	ValueSize  int     `json:"value_size"`
	Threshold  int     `json:"threshold"`
	Puts       int     `json:"puts"`
	Seconds    float64 `json:"seconds"`
	PutsPerSec float64 `json:"puts_per_sec"`
	// LogicalBytes is the user key+value volume written; RewriteBytes the
	// flush+compaction volume the LSM spent absorbing it. Their ratio is
	// the profile's write-amplification signal.
	RewriteBytes      uint64  `json:"rewrite_bytes"`
	LogicalBytes      uint64  `json:"logical_bytes"`
	RewritePerLogical float64 `json:"rewrite_per_logical"`
	VlogSegments      int     `json:"vlog_segments"`
	VlogGCRuns        uint64  `json:"vlog_gc_runs"`
}

// vlogReport is the BENCH_vlog.json schema.
type vlogReport struct {
	Scale   string          `json:"scale"`
	Writers int             `json:"writers"`
	Runs    []vlogRunResult `json:"runs"`
	// PutSpeedup is separated / inline put throughput at 4 KiB values.
	PutSpeedup float64 `json:"put_speedup"`
	// RewriteReduction is inline / separated rewrite-bytes-per-logical-byte
	// at 4 KiB values (how many fewer times the LSM rewrites each byte).
	RewriteReduction float64 `json:"rewrite_reduction"`
	// SmallValueParity is the median over SmallValuePairs of
	// threshold-enabled / threshold-disabled put throughput at 128 B
	// values (all below the threshold): the cost of merely configuring
	// separation, expected within ±5% of 1.0.
	SmallValueParity float64   `json:"small_value_parity"`
	SmallValuePairs  []float64 `json:"small_value_pairs"`
}

// smallValuePairs is the number of alternating inline-small/vlog-small
// pairs behind SmallValueParity.
const smallValuePairs = 5

// vlogProfile runs the cells and writes out (default BENCH_vlog.json).
func vlogProfile(sc harness.Scale, out string) error {
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	largeOps, smallOps := 20_000, 60_000
	switch sc.Name {
	case "smoke":
		largeOps, smallOps = 4_000, 12_000
	case "full":
		largeOps, smallOps = 60_000, 200_000
	}
	const largeVal, smallVal, keyspace = 4096, 128, 2048

	fmt.Printf("# vlog profile — %d large puts (%d B), %d small puts (%d B), %d writers, %d keys\n",
		largeOps, largeVal, smallOps, smallVal, writers, keyspace)

	rep := vlogReport{Scale: sc.Name, Writers: writers}
	run := func(name string, valueSize, threshold, ops int) (vlogRunResult, error) {
		r, err := vlogRun(name, valueSize, threshold, ops, keyspace, writers)
		if err != nil {
			return r, err
		}
		rep.Runs = append(rep.Runs, r)
		fmt.Printf("%-13s %9.0f puts/s   %.2f rewrite bytes per logical byte   (%d segments, %d gc runs)\n",
			r.Name, r.PutsPerSec, r.RewritePerLogical, r.VlogSegments, r.VlogGCRuns)
		return r, nil
	}

	inline, err := run("inline-4k", largeVal, 0, largeOps)
	if err != nil {
		return err
	}
	sep, err := run("vlog-4k", largeVal, 1024, largeOps)
	if err != nil {
		return err
	}
	if inline.PutsPerSec > 0 {
		rep.PutSpeedup = sep.PutsPerSec / inline.PutsPerSec
	}
	if sep.RewritePerLogical > 0 {
		rep.RewriteReduction = inline.RewritePerLogical / sep.RewritePerLogical
	}

	// Small-value parity: alternate which cell runs first so order effects
	// cancel, and report the median pair.
	for p := 0; p < smallValuePairs; p++ {
		var in, v vlogRunResult
		if p%2 == 0 {
			if in, err = run("inline-small", smallVal, 0, smallOps); err == nil {
				v, err = run("vlog-small", smallVal, 1024, smallOps)
			}
		} else {
			if v, err = run("vlog-small", smallVal, 1024, smallOps); err == nil {
				in, err = run("inline-small", smallVal, 0, smallOps)
			}
		}
		if err != nil {
			return err
		}
		if in.PutsPerSec > 0 {
			rep.SmallValuePairs = append(rep.SmallValuePairs, v.PutsPerSec/in.PutsPerSec)
		}
	}
	if n := len(rep.SmallValuePairs); n > 0 {
		sorted := append([]float64(nil), rep.SmallValuePairs...)
		sort.Float64s(sorted)
		rep.SmallValueParity = sorted[n/2]
	}
	fmt.Printf("put speedup %.2fx, rewrite reduction %.2fx, small-value parity %.3f (median of pairs %.3f)\n",
		rep.PutSpeedup, rep.RewriteReduction, rep.SmallValueParity, rep.SmallValuePairs)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// vlogRun writes ops values of valueSize over a small rotating keyspace
// (update-heavy, so compactions constantly shadow old versions), settles
// the tree, and reads back the rewrite volume.
func vlogRun(name string, valueSize, threshold, ops, keyspace, writers int) (vlogRunResult, error) {
	db, err := clsm.OpenPath("",
		clsm.WithMemtableSize(1<<20),
		clsm.WithCompactionThreads(2),
		clsm.WithValueThreshold(threshold),
		clsm.WithValueLogSegmentSize(8<<20))
	if err != nil {
		return vlogRunResult{}, err
	}
	defer db.Close()

	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var (
		next     atomic.Int64
		logical  atomic.Uint64
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := make([]byte, 0, 16)
			for {
				i := next.Add(1) - 1
				if i >= int64(ops) {
					return
				}
				key = fmt.Appendf(key[:0], "key-%06d", i%int64(keyspace))
				if err := db.Put(key, val); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				logical.Add(uint64(len(key) + len(val)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return vlogRunResult{}, firstErr
	}

	// Settle outside the timed window: the write-amplification comparison
	// wants both trees fully compacted, and the value log fully collected.
	if err := db.Flush(); err != nil {
		return vlogRunResult{}, err
	}
	if err := db.CompactRange(); err != nil {
		return vlogRunResult{}, err
	}
	if err := db.CompactValueLog(context.Background()); err != nil {
		return vlogRunResult{}, err
	}
	m := db.Metrics()
	r := vlogRunResult{
		Name:         name,
		ValueSize:    valueSize,
		Threshold:    threshold,
		Puts:         ops,
		Seconds:      elapsed.Seconds(),
		RewriteBytes: m.FlushBytes + m.CompactionBytes,
		LogicalBytes: logical.Load(),
		VlogSegments: m.VlogSegments,
		VlogGCRuns:   m.VlogGCRuns,
	}
	if elapsed > 0 {
		r.PutsPerSec = float64(ops) / elapsed.Seconds()
	}
	if r.LogicalBytes > 0 {
		r.RewritePerLogical = float64(r.RewriteBytes) / float64(r.LogicalBytes)
	}
	return r, nil
}

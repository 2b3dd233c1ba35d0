package main

// The shard profile is the A/B experiment behind horizontal sharding
// (docs/SHARDING.md). Three questions, one report (BENCH_shard.json):
//
//  1. scaling — does hash-partitioning across N engines beat one engine
//     under concurrent writers? On a small machine the win comes from
//     write-amplification reduction (each shard's tree is shallower, so
//     background compaction burns less CPU per logical byte) plus N
//     independent commit paths.
//  2. parity — does the layout cost anything? Every store runs through
//     the shard facade, so the flat store (Shards 0) and the one-shard
//     store run the same code; the two must match within noise.
//  3. governor — under a hot-shard workload, does the adaptive memory
//     governor beat the same store with frozen equal-split budgets?

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"clsm"
	"clsm/internal/cache"
	"clsm/internal/core"
	"clsm/internal/harness"
	"clsm/internal/obs"
	"clsm/internal/shard"
	"clsm/internal/storage"
	"clsm/internal/version"
)

// shardStore is the store surface the workload driver needs; *clsm.DB
// and *shard.DB both provide it.
type shardStore interface {
	Put(key, value []byte) error
	Metrics() clsm.Metrics
	Close() error
}

// shardRunResult is one configuration's measurement.
type shardRunResult struct {
	Config          string  `json:"config"`
	Seconds         float64 `json:"seconds"`
	Puts            int     `json:"puts"`
	PutsPerSec      float64 `json:"puts_per_sec"`
	LogicalMB       float64 `json:"logical_mb"`
	FlushMB         float64 `json:"flush_mb"`
	CompactionMB    float64 `json:"compaction_mb"`
	WriteAmp        float64 `json:"write_amp"` // (flush+compaction)/logical
	Flushes         uint64  `json:"flushes"`
	Compactions     uint64  `json:"compactions"`
	WriteStalls     uint64  `json:"write_stalls"`
	StallSeconds    float64 `json:"stall_seconds"`
	Levels          []int   `json:"levels"` // aggregate file count per level
	BudgetsAtEndMiB []int64 `json:"budgets_at_end_mib,omitempty"`
}

// shardReport is the BENCH_shard.json schema.
type shardReport struct {
	Scale   string `json:"scale"`
	Writers int    `json:"writers"`
	Shards  int    `json:"shards"`

	Scaling struct {
		Unsharded shardRunResult `json:"unsharded"`
		Sharded   shardRunResult `json:"sharded"`
		Speedup   float64        `json:"speedup"` // sharded/unsharded puts/s, >1 = sharding wins
	} `json:"scaling"`

	Parity struct {
		Unsharded shardRunResult `json:"unsharded"`
		OneShard  shardRunResult `json:"one_shard"`
		Ratio     float64        `json:"ratio"` // one_shard/unsharded puts/s, 1.0 = free facade
	} `json:"parity"`

	Governor struct {
		Static   shardRunResult `json:"static"`
		Adaptive shardRunResult `json:"adaptive"`
		Ratio    float64        `json:"ratio"` // adaptive/static puts/s, >=1 = governor helps
	} `json:"hot_shard_governor"`
}

// shardWorkload drives w concurrent writers of distinct keys for
// warm+dur and measures the steady-state window only: the first warm
// seconds (tree building, throttle auto-tune convergence) are excluded
// by snapshotting the cumulative engine counters at the warm boundary
// and reporting deltas. keys is a per-writer generator factory so
// workloads can control the shard routing (uniform vs hot-shard) and
// keep per-writer state without sharing.
func shardWorkload(cfgName string, db shardStore, warm, dur time.Duration, writers, valSize int,
	keys func(w int) func(dst []byte, i int) []byte) (shardRunResult, error) {
	val := make([]byte, valSize)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		werr  error
	)
	start := time.Now()
	deadline := warm + dur
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			keyFn := keys(id)
			key := make([]byte, 0, 32)
			n, nWarm := 0, -1
			for i := 0; ; i++ {
				if i%64 == 0 {
					el := time.Since(start)
					if nWarm < 0 && el >= warm {
						nWarm = n
					}
					if el >= deadline {
						break
					}
				}
				key = keyFn(key[:0], i)
				if err := db.Put(key, val); err != nil {
					mu.Lock()
					if werr == nil {
						werr = err
					}
					mu.Unlock()
					return
				}
				n++
			}
			if nWarm < 0 {
				nWarm = n
			}
			mu.Lock()
			total += n - nWarm
			mu.Unlock()
		}(w)
	}
	// Snapshot cumulative counters at the warm boundary; the report is
	// the steady-state delta.
	time.Sleep(warm)
	m0 := db.Metrics()
	measureStart := time.Now()
	wg.Wait()
	elapsed := time.Since(measureStart)
	if werr != nil {
		return shardRunResult{}, fmt.Errorf("%s: %w", cfgName, werr)
	}
	m := db.Metrics()
	logical := float64(total) * float64(valSize+24)
	res := shardRunResult{
		Config:       cfgName,
		Seconds:      elapsed.Seconds(),
		Puts:         total,
		PutsPerSec:   float64(total) / elapsed.Seconds(),
		LogicalMB:    logical / (1 << 20),
		FlushMB:      float64(m.FlushBytes-m0.FlushBytes) / (1 << 20),
		CompactionMB: float64(m.CompactionBytes-m0.CompactionBytes) / (1 << 20),
		Flushes:      m.Flushes - m0.Flushes,
		Compactions:  m.Compactions - m0.Compactions,
		WriteStalls:  m.WriteStalls - m0.WriteStalls,
		StallSeconds: (m.StallTime - m0.StallTime).Seconds(),
	}
	for l := len(m.LevelSize) - 1; l >= 0; l-- {
		if m.LevelSize[l] > 0 {
			res.Levels = m.LevelSize[:l+1]
			break
		}
	}
	if logical > 0 {
		res.WriteAmp = (res.FlushMB + res.CompactionMB) * (1 << 20) / logical
	}
	return res, nil
}

// shardFixedWorkload has every writer put exactly ops distinct keys and
// measures the wall time for the whole volume. With a memtable sized to
// absorb it all, this is a deterministic put-path measurement — no
// flush, compaction, or throttle feedback in the loop.
func shardFixedWorkload(cfgName string, db shardStore, ops, writers, valSize int) (shardRunResult, error) {
	val := make([]byte, valSize)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		werr error
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := make([]byte, 0, 32)
			for i := 0; i < ops; i++ {
				key = fmt.Appendf(key[:0], "w%02d-key-%09d", id, i)
				if err := db.Put(key, val); err != nil {
					mu.Lock()
					if werr == nil {
						werr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if werr != nil {
		return shardRunResult{}, fmt.Errorf("%s: %w", cfgName, werr)
	}
	total := ops * writers
	return shardRunResult{
		Config:     cfgName,
		Seconds:    elapsed.Seconds(),
		Puts:       total,
		PutsPerSec: float64(total) / elapsed.Seconds(),
		LogicalMB:  float64(total) * float64(valSize+24) / (1 << 20),
	}, nil
}

// overwriteKeys cycles each writer over k distinct keys — the classic
// steady-state overwrite benchmark. The live set is bounded (writers ×
// k keys), so store depth reflects the engine's ability to reclaim
// overwritten versions, which is exactly where write amplification
// diverges between one deep tree and N shallow ones.
func overwriteKeys(k int) func(w int) func(dst []byte, i int) []byte {
	return func(w int) func(dst []byte, i int) []byte {
		return func(dst []byte, i int) []byte {
			return fmt.Appendf(dst, "w%02d-key-%09d", w, i%k)
		}
	}
}

// shardProfile runs the three experiments and writes BENCH_shard.json.
func shardProfile(sc harness.Scale, shards int, out string) error {
	warm := 2 * time.Second
	dur := 6 * time.Second
	writers := 8
	valSize := 1024
	switch sc.Name {
	case "smoke":
		warm, dur = time.Second, 2*time.Second
	case "full":
		warm, dur = 4*time.Second, 15*time.Second
	}
	// Deliberately tight store shape: a small memtable and base level
	// force the unsharded store's tree deep enough that compaction
	// write-amplification dominates, which is exactly the regime
	// sharding addresses (each shard carries 1/N of the data).
	tight := []clsm.Option{
		clsm.WithMemtableSize(256 << 10),
		clsm.WithBlockCacheSize(8 << 20),
	}
	tightDisk := func(o *clsm.Options) {
		o.BaseLevelBytes = 1 << 20
		o.TableFileSize = 256 << 10
	}

	fmt.Printf("# shard profile — %v warm + %v measured per run, %d writers, %d B values, %d shards\n",
		warm, dur, writers, valSize, shards)

	rep := shardReport{Scale: sc.Name, Writers: writers, Shards: shards}

	// 1. Scaling: unsharded vs N shards, identical options otherwise.
	run := func(name string, vs, keysPerWriter int, opts ...clsm.Option) (shardRunResult, error) {
		// Settle between runs so one config's garbage doesn't tax the next.
		runtime.GC()
		db, err := clsm.OpenPath("", append(append([]clsm.Option{}, tight...), append(opts, tightDisk)...)...)
		if err != nil {
			return shardRunResult{}, err
		}
		res, werr := shardWorkload(name, db, warm, dur, writers, vs, overwriteKeys(keysPerWriter))
		if cerr := db.Close(); werr == nil && cerr != nil {
			werr = cerr
		}
		return res, werr
	}

	var err error
	if rep.Scaling.Unsharded, err = run("unsharded", valSize, 1024); err != nil {
		return err
	}
	if rep.Scaling.Sharded, err = run(fmt.Sprintf("sharded-%d", shards), valSize, 1024, clsm.WithShards(shards)); err != nil {
		return err
	}
	rep.Scaling.Speedup = rep.Scaling.Sharded.PutsPerSec / rep.Scaling.Unsharded.PutsPerSec
	fmt.Printf("scaling:  unsharded %9.0f puts/s (amp %.2f, stall %.1fs, levels %v)   %d shards %9.0f puts/s (amp %.2f, stall %.1fs, levels %v)   speedup %.2fx\n",
		rep.Scaling.Unsharded.PutsPerSec, rep.Scaling.Unsharded.WriteAmp,
		rep.Scaling.Unsharded.StallSeconds, rep.Scaling.Unsharded.Levels,
		shards, rep.Scaling.Sharded.PutsPerSec, rep.Scaling.Sharded.WriteAmp,
		rep.Scaling.Sharded.StallSeconds, rep.Scaling.Sharded.Levels,
		rep.Scaling.Speedup)

	// 2. Parity: the facade with one shard vs the bare engine. The tax
	// the facade could add lives on the put path (routing, indirection),
	// so measure exactly that: a fixed volume of puts into a memtable big
	// enough that no flush, compaction, or throttle feedback runs during
	// the measurement. The reported ratio is the median of interleaved
	// pairs so one slow run (GC, scheduler) cannot fake a facade tax.
	pairs := 5
	parityOps := 40000 // per writer
	if sc.Name == "smoke" {
		pairs, parityOps = 1, 15000
	}
	parityRun := func(name string, opts ...clsm.Option) (shardRunResult, error) {
		runtime.GC()
		all := append([]clsm.Option{
			clsm.WithMemtableSize(512 << 20),
			clsm.WithBlockCacheSize(8 << 20),
		}, opts...)
		db, err := clsm.OpenPath("", all...)
		if err != nil {
			return shardRunResult{}, err
		}
		res, werr := shardFixedWorkload(name, db, parityOps, writers, 256)
		if cerr := db.Close(); werr == nil && cerr != nil {
			werr = cerr
		}
		return res, werr
	}
	var ratios []float64
	for p := 0; p < pairs; p++ {
		var base, facade shardRunResult
		var err error
		// Alternate which config runs first so order effects cancel.
		if p%2 == 0 {
			if base, err = parityRun("parity-unsharded"); err != nil {
				return err
			}
			if facade, err = parityRun("parity-one-shard", clsm.WithShards(1)); err != nil {
				return err
			}
		} else {
			if facade, err = parityRun("parity-one-shard", clsm.WithShards(1)); err != nil {
				return err
			}
			if base, err = parityRun("parity-unsharded"); err != nil {
				return err
			}
		}
		ratios = append(ratios, facade.PutsPerSec/base.PutsPerSec)
		rep.Parity.Unsharded, rep.Parity.OneShard = base, facade
	}
	sort.Float64s(ratios)
	rep.Parity.Ratio = ratios[len(ratios)/2]
	fmt.Printf("parity:   unsharded %9.0f puts/s   one-shard facade %9.0f puts/s   median ratio %.3f (pairs %v)\n",
		rep.Parity.Unsharded.PutsPerSec, rep.Parity.OneShard.PutsPerSec, rep.Parity.Ratio, ratios)

	// 3. Governor: hot-shard workload (90% of writes land on shard 0),
	// adaptive arbitration vs frozen equal split, on identical stores.
	hotKeys := hotShardKeyFn(shards)
	govRun := func(name string, static bool) (shardRunResult, error) {
		runtime.GC()
		db, err := openGovStore(shards, static)
		if err != nil {
			return shardRunResult{}, err
		}
		res, werr := shardWorkload(name, db, warm, dur, writers, valSize, hotKeys)
		if werr == nil {
			for _, b := range db.MemtableBudgets() {
				res.BudgetsAtEndMiB = append(res.BudgetsAtEndMiB, b>>20)
			}
		}
		if cerr := db.Close(); werr == nil && cerr != nil {
			werr = cerr
		}
		return res, werr
	}
	if rep.Governor.Static, err = govRun("hot-static", true); err != nil {
		return err
	}
	if rep.Governor.Adaptive, err = govRun("hot-adaptive", false); err != nil {
		return err
	}
	rep.Governor.Ratio = rep.Governor.Adaptive.PutsPerSec / rep.Governor.Static.PutsPerSec
	fmt.Printf("governor: static    %9.0f puts/s (amp %.2f)   adaptive %9.0f puts/s (amp %.2f, budgets %v MiB)   ratio %.3f\n",
		rep.Governor.Static.PutsPerSec, rep.Governor.Static.WriteAmp,
		rep.Governor.Adaptive.PutsPerSec, rep.Governor.Adaptive.WriteAmp,
		rep.Governor.Adaptive.BudgetsAtEndMiB, rep.Governor.Ratio)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// hotShardKeyFn returns a key-generator factory where ~90% of writes
// route to shard 0: each writer scans its own dense counter forward for
// keys that hash to shard 0 (distinct every call), with a 10% uniform
// remainder to keep the other shards warm.
func hotShardKeyFn(n int) func(w int) func(dst []byte, i int) []byte {
	return func(w int) func(dst []byte, i int) []byte {
		next := 0
		return func(dst []byte, i int) []byte {
			if i%10 == 9 {
				return fmt.Appendf(dst, "cold-w%02d-%09d", w, i)
			}
			// Amortized ~n probes per key; the fmt dominates either way.
			for {
				dst = fmt.Appendf(dst[:0], "hot-w%02d-%09d", w, next)
				next++
				if shard.IndexOf(dst, n) == 0 {
					return dst
				}
			}
		}
	}
}

// openGovStore builds an n-shard store over MemFS with a deliberately
// small shared memory pool, with the governor either live or frozen to
// the equal split (the A/B pair).
func openGovStore(n int, static bool) (*shard.DB, error) {
	const (
		perShardMem = 512 << 10
		cacheSize   = 4 << 20
	)
	pool := cache.New(cacheSize)
	var opts shard.Options
	for i := 0; i < n; i++ {
		o := obs.New()
		o.Trace.SetShard(i)
		opts.Engines = append(opts.Engines, core.Options{
			FS:           storage.NewMemFS(),
			MemtableSize: perShardMem,
			BlockCache:   pool.View(i),
			Observer:     o,
			Disk: version.Options{
				BaseLevelBytes: 2 << 20,
				TableFileSize:  512 << 10,
			},
		})
	}
	opts.Governor = shard.GovernorConfig{
		TotalBytes: int64(n)*perShardMem + cacheSize,
		Cache:      pool,
		Static:     static,
	}
	return shard.Open(opts)
}

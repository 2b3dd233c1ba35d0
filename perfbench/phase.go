package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clsm"
	"clsm/clsmclient"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/server"
)

// env is one set-up store with everything the workload drives it through.
type env struct {
	m   *model
	ev  *eventStats
	tfs *timingStats

	db  store   // in-process workloads
	rem *remote // remote_sync

	spanEng *spanEngine // remote_sync, traced

	metrics   func() core.Metrics
	observers func() []*obs.Observer
	close     func() error
}

const quiesceLimit = 90 * time.Second

// setup opens a fresh store in dir, preloads every key, and waits for
// background work to finish.
func setup(sp spec, dir string, traced bool, epoch time.Time) (*env, error) {
	e := &env{m: newModel(sp.keys, workers, workers*max(sp.inflight, 1)), ev: &eventStats{}, tfs: &timingStats{epoch: epoch}}
	if !sp.remote {
		if traced {
			db, err := openTracedCore(dir, sp.cfg, e.ev.sink, e.tfs)
			if err != nil {
				return nil, err
			}
			e.db = coreStore{db}
		} else {
			db, err := openPublic(dir, sp.cfg, e.ev.sink)
			if err != nil {
				return nil, err
			}
			e.db = publicStore{db}
		}
		e.metrics, e.observers, e.close = e.db.Metrics, e.db.observers, e.db.Close
		err := preload(e.m, sp.keys, sp.valueSize, e.db.Write)
		if err == nil {
			err = e.db.Flush()
		}
		if err == nil {
			err = quiesce(e.observers(), quiesceLimit)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}

	var eng server.Engine
	var closeStore func() error
	if traced {
		sh, err := openTracedSharded(dir, sp.cfg, e.ev.sink, e.tfs)
		if err != nil {
			return nil, err
		}
		e.spanEng = &spanEngine{Engine: shardEngine{sh}, epoch: epoch}
		eng = e.spanEng
		e.metrics, e.observers, closeStore = sh.Metrics, sh.Observers, sh.Close
	} else {
		db, err := openPublic(dir, sp.cfg, e.ev.sink)
		if err != nil {
			return nil, err
		}
		eng = publicEngine{db}
		e.metrics, e.observers, closeStore = db.Metrics, publicStore{db}.observers, db.Close
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeStore()
		return nil, err
	}
	srv := server.New(eng, server.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	e.rem = newRemote(sp, e.m)
	e.close = func() error {
		for _, c := range e.rem.clients {
			if c != nil {
				c.Close()
			}
		}
		srv.Close()
		return errors.Join(<-served, closeStore())
	}
	for w := range e.rem.clients {
		c, err := clsmclient.Dial(ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.rem.clients[w] = c
	}
	err = preload(e.m, sp.keys, sp.valueSize, func(b *clsm.Batch) error {
		var cb clsmclient.Batch
		for _, en := range b.Entries() {
			cb.Put(en.Key, en.Value)
		}
		return e.rem.clients[0].Write(context.Background(), &cb)
	})
	if err == nil {
		err = quiesce(e.observers(), quiesceLimit)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// phase is one measured run of a workload.
type phase struct {
	remote      bool
	t           *tally
	windowOps   uint64
	elapsed     time.Duration
	setupS      []float64
	before, end counters // at the start and the end of the timed window
	after       counters // once background work has finished
	engine      []engineSpan
	syncSpans   []span
	tfs         *storageCounts // read with after
	gauges      gauges
	hists       obsHists
	liveBytes   int64
	diskBytes   int64
	rssMB       float64
}

// counters is a point-in-time reading of the store's and the process's
// counters.
type counters struct {
	m                   core.Metrics
	walSyncs, walGroups uint64
	walRecords          float64
	vlogBytes           uint64
	ev                  eventSnapshot
	mallocs             uint64
	gcCPU, allCPU       float64
	cpuNS               int64
}

func read(e *env) counters {
	c := counters{m: e.metrics(), ev: e.ev.snapshot()}
	for _, o := range e.observers() {
		c.walSyncs += o.WALSyncs.Load()
		vs := o.WALGroupSize.ValueSnapshot()
		c.walGroups += vs.Count
		c.walRecords += vs.Mean * float64(vs.Count)
		c.vlogBytes += o.VlogBytesWritten.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.allCPU = s[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

// gauges are the maxima of the background gauges sampled during the
// timed window (traced runs only).
type gauges struct {
	queueDepth, debtBytes, l0Files uint64
}

func sampleGauges(e *env, stop <-chan struct{}, out *gauges) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		var qd, debt uint64
		for _, o := range e.observers() {
			qd += o.SchedQueueDepth.Load()
			debt += o.CompactionDebt.Load()
		}
		out.queueDepth = max(out.queueDepth, qd)
		out.debtBytes = max(out.debtBytes, debt)
		out.l0Files = max(out.l0Files, uint64(e.metrics().LevelSize[0]))
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// obsHists are engine histograms read once at the end of a traced run;
// they cover the store's life since open (set-up included).
type obsHists struct {
	snapshotP99, throttleP99, derefP99 float64
}

func readHists(e *env) obsHists {
	var snap, thr, deref obs.Histogram
	for _, o := range e.observers() {
		snap.Merge(o.Op(obs.OpGetSnapshot))
		thr.Merge(&o.WriteThrottle)
		deref.Merge(&o.VlogDeref)
	}
	return obsHists{
		snapshotP99: float64(snap.Quantile(0.99)) / 1e3, // ns recorded
		throttleP99: float64(thr.Quantile(0.99)),        // µs recorded as values
		derefP99:    float64(deref.Quantile(0.99)),      // µs recorded as values
	}
}

func runPhase(sp spec, seed uint64, window time.Duration, traced bool, dir string, nsetups int, corrupt *atomic.Int64) (*phase, error) {
	streams := make([]*stream, workers)
	for w := range streams {
		streams[w] = newStream(sp, seed, w)
	}
	p := &phase{remote: sp.remote}
	// Start from a quiet device: write back whatever earlier processes
	// (the build, a previous run's deletions) left dirty.
	syscall.Sync()
	epoch := time.Now()
	var e *env
	for i := 0; i < nsetups; i++ {
		sdir := filepath.Join(dir, strconv.Itoa(i))
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		e, err = setup(sp, sdir, traced, epoch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if i < nsetups-1 {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
			if err := os.RemoveAll(sdir); err != nil {
				return nil, err
			}
		}
	}
	dir = filepath.Join(dir, strconv.Itoa(nsetups-1))
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	runWindow := func(d time.Duration) (*tally, time.Duration) {
		if sp.remote {
			e.rem.traced, e.rem.epoch, e.rem.corrupt = traced, epoch, corrupt
			return e.rem.runWindow(streams, d)
		}
		r := &inproc{sp: sp, db: e.db, m: e.m, traced: traced, epoch: epoch, corrupt: corrupt}
		return r.runWindow(streams, d)
	}

	// Warm-up: the same workload, untimed, then let background work settle.
	warm, _ := runWindow(min(window/5, 2*time.Second))
	if err := quiesce(e.observers(), quiesceLimit); err != nil {
		return nil, err
	}
	e.tfs.reset()
	if e.spanEng != nil {
		e.spanEng.reset()
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			sampleGauges(e, stop, &p.gauges)
		}()
	}
	p.before = read(e)
	p.t, p.elapsed = runWindow(window)
	p.end = read(e)
	close(stop)
	sampler.Wait()
	p.windowOps = p.t.attempted
	p.t.attempted += warm.attempted
	p.t.failed += warm.failed
	p.t.errs = append(p.t.errs, warm.errs...)
	if err := quiesce(e.observers(), quiesceLimit); err != nil {
		return nil, err
	}
	p.after = read(e)
	if traced {
		// Read the storage counters now, before the final read-back.
		p.tfs = e.tfs.read()
		p.hists = readHists(e)
		p.syncSpans = p.tfs.syncSpans
		if e.spanEng != nil {
			p.engine = e.spanEng.recorded()
		}
	}
	var err error
	if p.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}

	if sp.remote {
		// Durability: close server and store, reopen, and check that every
		// acknowledged synchronous write survived.
		ok = true
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("close before reopen: %w", err)
		}
		db, err := openPublic(dir, sp.cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		p.liveBytes = verifyAll(sp, e.m, publicStore{db}, p.t)
		// Closing while recovery's background work still runs can fail
		// the close with ErrClosed; let it finish first.
		if err := quiesce(publicStore{db}.observers(), quiesceLimit); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close after reopen: %w", err)
		}
	} else {
		p.liveBytes = verifyAll(sp, e.m, e.db, p.t)
		ok = true
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	p.rssMB = peakRSSMB()
	return p, nil
}

// verifyAll reads every written key back and checks it against the
// newest acknowledged version; it returns the live user bytes.
func verifyAll(sp spec, m *model, db store, t *tally) int64 {
	var live int64
	for i := 0; i < sp.keys; i++ {
		idx := uint32(i)
		k := appendKey(nil, idx, false)
		cutoff, _ := m.readStart()
		v, ok, err := db.Get(k)
		t.attempted++
		if err == nil {
			err = m.check(idx, v, ok, cutoff)
		}
		if err != nil {
			t.fail(fmt.Errorf("final read: %w", err))
			continue
		}
		live += int64(len(k) + len(v))
	}
	return live
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func (p *phase) opsPerS() float64 { return float64(p.windowOps) / p.elapsed.Seconds() }

// userBytes is the key+value bytes users wrote in the timed window.
func (p *phase) userBytes() float64 { return float64(p.t.userBytes) }

// endToEnd returns the metrics of the JSON result. Every workload has
// them: every workload puts, and every one reads keys (ingest inside its
// transactions). The latencies of every operation kind, get_p99_us
// included, are printed by report.
func endToEnd(p *phase) []named {
	us := func(v float64) float64 { return v / 1e3 }
	put, get := &p.t.lat[opPut], &p.t.lat[opGet]
	d := delta(p.before, p.after)
	return []named{
		{"setup_s", median(p.setupS), "s"},
		{"ops_per_s", p.opsPerS(), "1/s"},
		{"put_p50_us", us(put.all.quantile(0.5)), "us"},
		{"put_p99_us", us(put.tail()), "us"},
		{"get_p50_us", us(get.all.quantile(0.5)), "us"},
		{"write_amp", ratio(d.flushBytes+d.compactionBytes+d.vlogBytes, p.userBytes()), "B/B"},
		{"space_amp", ratio(float64(p.diskBytes), float64(p.liveBytes)), "B/B"},
		{"rss_peak_mb", p.rssMB, "MiB"},
	}
}

// deltas are counter differences over a window, as floats.
type deltas struct {
	flushBytes, compactionBytes, vlogBytes float64
	walSyncs, walGroups, walRecords        float64
	cacheHits, cacheMisses                 float64
	stallS, writeStalls                    float64
	flushes, compactions, flushS, compactS float64
	mallocs, gcCPU, allCPU, cpuUS          float64
}

func delta(a, b counters) deltas {
	f := func(x, y uint64) float64 { return float64(y) - float64(x) }
	return deltas{
		flushBytes:      f(a.m.FlushBytes, b.m.FlushBytes),
		compactionBytes: f(a.m.CompactionBytes, b.m.CompactionBytes),
		vlogBytes:       f(a.vlogBytes, b.vlogBytes),
		walSyncs:        f(a.walSyncs, b.walSyncs),
		walGroups:       f(a.walGroups, b.walGroups),
		walRecords:      b.walRecords - a.walRecords,
		cacheHits:       f(a.m.CacheHits, b.m.CacheHits),
		cacheMisses:     f(a.m.CacheMisses, b.m.CacheMisses),
		stallS:          (b.m.StallTime - a.m.StallTime).Seconds(),
		writeStalls:     f(a.m.WriteStalls, b.m.WriteStalls),
		flushes:         f(a.ev.flushes, b.ev.flushes),
		compactions:     f(a.ev.compactions, b.ev.compactions),
		flushS:          float64(b.ev.flushNS-a.ev.flushNS) / 1e9,
		compactS:        float64(b.ev.compactionNS-a.ev.compactionNS) / 1e9,
		mallocs:         f(a.mallocs, b.mallocs),
		gcCPU:           b.gcCPU - a.gcCPU,
		allCPU:          b.allCPU - a.allCPU,
		cpuUS:           float64(b.cpuNS-a.cpuNS) / 1e3,
	}
}

// layerInputs are the raw figures the per-layer ratios are computed
// from; ratios() documents each ratio's base.
type layerInputs struct {
	ops, writes, userBytes, gets   float64
	commits, conflicts             float64
	clientCalls, engineCalls       float64
	storageWriteBytes              float64
	storageReadCalls, storageReads float64 // calls and bytes
	window, bg                     deltas  // timed window; window plus background drain
}

func ratios(in layerInputs) []named {
	w, bg := in.window, in.bg
	return []named{
		{"server.reqs_per_engine_call", ratio(in.clientCalls, in.engineCalls), "reqs/call"},
		{"wal.syncs_per_write", ratio(bg.walSyncs, in.writes), "syncs/write"},
		{"wal.group_size_mean", ratio(bg.walRecords, bg.walGroups), "records"},
		{"storage.write_bytes_per_user_byte", ratio(in.storageWriteBytes, in.userBytes), "B/B"},
		{"storage.read_calls_per_get", ratio(in.storageReadCalls, in.gets), "calls/get"},
		{"storage.read_bytes_per_get", ratio(in.storageReads, in.gets), "B/get"},
		{"cache.hit_ratio", ratio(bg.cacheHits, bg.cacheHits+bg.cacheMisses), "ratio"},
		{"cache.misses_per_get", ratio(bg.cacheMisses, in.gets), "misses/get"},
		{"txn.conflict_ratio", ratio(in.conflicts, in.commits+in.conflicts), "ratio"},
		{"compaction.bytes_per_user_byte", ratio(bg.compactionBytes, in.userBytes), "B/B"},
		{"vlog.bytes_per_user_byte", ratio(bg.vlogBytes, in.userBytes), "B/B"},
		{"runtime.allocs_per_op", ratio(w.mallocs, in.ops), "allocs/op"},
		{"runtime.gc_cpu_frac", ratio(w.gcCPU, w.allCPU), "frac"},
		{"process.cpu_us_per_op", ratio(w.cpuUS, in.ops), "us/op"},
	}
}

// perLayer returns the per-layer metrics of a traced run. The server,
// value-log and generator metrics exist only for a remote workload.
func perLayer(p, base *phase) []named {
	us := func(v float64) float64 { return v / 1e3 }
	w, bg := delta(p.before, p.end), delta(p.before, p.after)
	n := func(k opKind) float64 { return float64(p.t.lat[k].all.n) }
	in := layerInputs{
		ops: float64(p.windowOps), writes: float64(p.t.writes), userBytes: p.userBytes(),
		gets: float64(p.t.gets), commits: float64(p.t.commits), conflicts: float64(p.t.conflicts),
		window: w, bg: bg,
	}
	if p.tfs != nil {
		in.storageWriteBytes = float64(p.tfs.writeBytes)
		in.storageReadCalls = float64(p.tfs.readCalls)
		in.storageReads = float64(p.tfs.readBytes)
	}
	self, eng := &hist{}, &hist{}
	if p.remote {
		in.clientCalls = n(opPut) + n(opGet) + n(opBatch)
		in.engineCalls = float64(len(p.engine))
		self, eng = serverSplit(p.t.spans, p.engine)
	}
	out := []named{
		{"get.absent_us_p50", us(p.t.absent.quantile(0.5)), "us"},
		{"get.absent_us_p99", us(p.t.absent.tail()), "us"},
		{"iterator.next_us_p50", us(p.t.iterNext.quantile(0.5)), "us"},
		{"oracle.snapshot_us_p99", p.hists.snapshotP99, "us"},
		{"throttle.wait_us_p99", p.hists.throttleP99, "us"},
		{"core.stall_s", bg.stallS, "s"},
		{"core.write_stalls", bg.writeStalls, "count"},
		{"sched.queue_depth_max", float64(p.gauges.queueDepth), "jobs"},
		{"compaction.debt_bytes_max", float64(p.gauges.debtBytes), "bytes"},
		{"version.l0_files_max", float64(p.gauges.l0Files), "files"},
		{"flush.busy_s", bg.flushS, "s"},
		{"compaction.busy_s", bg.compactS, "s"},
		{"flush.count", bg.flushes, "count"},
		{"compaction.count", bg.compactions, "count"},
		{"trace.overhead_frac", 1 - ratio(p.opsPerS(), base.opsPerS()), "frac"},
	}
	if p.remote {
		out = append(out,
			named{"server.self_us_p50", us(self.quantile(0.5)), "us"},
			named{"server.self_us_p99", us(self.tail()), "us"},
			named{"server.engine_us_p50", us(eng.quantile(0.5)), "us"},
			named{"server.engine_us_p99", us(eng.tail()), "us"},
			named{"vlog.deref_us_p99", p.hists.derefP99, "us"},
			named{"gen.late_p99_us", us(p.t.late.tail()), "us"})
	}
	if p.tfs != nil {
		out = append(out,
			named{"storage.sync_us_p50", us(p.tfs.syncNS.quantile(0.5)), "us"},
			named{"storage.sync_us_p99", us(p.tfs.syncNS.tail()), "us"},
			named{"storage.read_us_p99", us(p.tfs.readNS.tail()), "us"})
	}
	for _, m := range ratios(in) {
		if p.remote || !remoteRatio[m.name] {
			out = append(out, m)
		}
	}
	return out
}

// remoteRatio names the ratios only a remote workload produces.
var remoteRatio = map[string]bool{"server.reqs_per_engine_call": true, "vlog.bytes_per_user_byte": true}

// provenance describes the host, the build and the inputs of a run.
func provenance(sp spec, seed uint64, seconds int, traced bool, dir string) map[string]any {
	rev, dirty := "unknown", "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = strconv.FormatBool(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	conns := 0
	if sp.remote {
		conns = workers
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    rev,
		"git_dirty":  dirty,
		"fs":         fsType(dir),
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"workload": map[string]any{
			"name": sp.name, "remote": sp.remote, "keys": sp.keys,
			"value_bytes": sp.valueSize, "large_value_bytes": sp.largeValue, "large_every": sp.largeEvery,
			"hotspot_90_10": sp.hotspot, "zipf_reads": sp.zipfReads, "absent_get_every": sp.absentEvery,
			"mix_percent": mixMap(sp.mix), "offered_ops_per_s": sp.rate, "inflight_per_conn": sp.inflight,
			"workers": workers, "connections": conns,
			"batch_entries": batchSize, "scan_keys": scanLen, "txn_keys": txnKeys, "setups": setups,
			"memtable_bytes": sp.cfg.MemtableSize, "block_cache_bytes": sp.cfg.BlockCacheSize,
			"sync_writes": sp.cfg.SyncWrites, "shards": sp.cfg.Shards, "value_threshold": sp.cfg.ValueThreshold,
			"flush_policy": "default: memtable rotates at memtable_bytes; L0 compaction/slowdown/stop at 4/8/12 files",
		},
	}
}

func mixMap(mix [numOps]int) map[string]int {
	m := map[string]int{}
	for k, v := range mix {
		if v > 0 {
			m[opNames[k]] = v
		}
	}
	return m
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

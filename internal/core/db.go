package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clsm/internal/cache"
	"clsm/internal/compaction"
	"clsm/internal/health"
	"clsm/internal/memtable"
	"clsm/internal/obs"
	"clsm/internal/oracle"
	"clsm/internal/scheduler"
	"clsm/internal/sstable"
	"clsm/internal/storage"
	"clsm/internal/syncutil"
	"clsm/internal/version"
	"clsm/internal/vlog"
	"clsm/internal/wal"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("clsm: database closed")

// DB is the cLSM engine. All methods are safe for concurrent use.
type DB struct {
	opts Options
	fs   storage.FS

	// obs is the engine's observability substrate (always non-nil after
	// Open): per-op latency histograms, substrate counters, event trace.
	obs *obs.Observer

	// lock is the paper's shared-exclusive Lock: shared by puts, RMWs,
	// getSnap, atomic batches, txn commits and value-log relinks; exclusive
	// only in beforeMerge/afterMerge.
	lock syncutil.SharedExclusive

	oracle *oracle.Oracle

	// mem and imm are the paper's Pm and P'm; versions.Current() is Pd.
	mem atomic.Pointer[memtable.Table]
	imm atomic.Pointer[memtable.Table]

	// log is the WAL front end of the current memtable. Swapped together
	// with mem under the exclusive lock; accessed under the shared lock.
	log atomic.Pointer[wal.Logger]

	versions  *version.Set
	compactor *compaction.Compactor
	blocks    *cache.Cache

	// vlog is the segmented value log (docs/VALUELOG.md). Always open —
	// a store whose threshold was lowered to 0 must still dereference the
	// pointers earlier incarnations wrote — but appends only happen when
	// Options.ValueThreshold > 0. vlogGCMu serializes GC segment rewrites
	// (the scheduler's single vlog-gc slot and the synchronous
	// CompactValueLog entry point contend on it).
	vlog     *vlog.Log
	vlogGCMu sync.Mutex

	// memBudget is the memtable spill threshold. It starts at
	// Options.MemtableSize and can be moved at runtime by an external
	// memory governor (SetMemtableBudget) arbitrating one byte budget
	// across shards and the shared block cache.
	memBudget atomic.Int64

	// Background machinery. sched is the unified scheduler owning every
	// flush and compaction worker; throttle is the write-path admission
	// token bucket its planner auto-tunes. legacyGate selects the
	// historical binary L0 slowdown/stop gate instead of the throttle
	// (SchedulerProfile "legacy").
	sched      *scheduler.Scheduler
	throttle   *scheduler.Throttle
	legacyGate bool
	// lastPlanDebt is the previous planner pass's debt signal; its trend
	// (growing vs draining) picks decay vs hold in tuneThrottle. wallTicks
	// counts consecutive passes spent at the memtable wall, distinguishing
	// a rotation-edge graze from a held wall. Both owned by the planner
	// goroutine.
	lastPlanDebt uint64
	wallTicks    int
	// drainEWMA estimates the disk's recent flush drain rate (bytes/s,
	// exponentially smoothed); it ceilings rate recovery while a backlog
	// remains so the controller cannot climb far past what the disk
	// absorbs. lastFlushBytes/lastDrainAt are its sampling state. All
	// owned by the planner goroutine.
	drainEWMA      float64
	lastFlushBytes uint64
	lastDrainAt    time.Time
	flushMu        sync.Mutex // serializes memtable rotation cycles
	closing        chan struct{}
	bg             sync.WaitGroup
	closed         atomic.Bool
	bgErr          atomic.Pointer[error]
	levelBusy      [version.NumLevels]bool
	busyMu         sync.Mutex

	// Per-origin retry backoffs. Each is owned by at most one running job
	// at a time (the scheduler serializes same-key jobs; Backoff is not
	// concurrency-safe).
	flushBoff *health.Backoff
	levelBoff [version.NumLevels]*health.Backoff
	seekBoff  *health.Backoff
	vlogBoff  *health.Backoff

	// Prebuilt job closures, so the planner submits without allocating a
	// fresh closure per pass (the Job copy itself only allocates when new
	// work is actually queued). vlogGCSkip exempts the active value-log
	// segment from GC candidate selection.
	flushRun    func()
	seekRun     func()
	vlogGCRun   func()
	vlogGCSkip  func(num uint64) bool
	compactRuns [version.NumLevels]func()

	// health is the background-error state machine: transient faults
	// degrade (retry with backoff), corruption quarantines to read-only,
	// fatal errors keep the historical sticky poisoning via bgErr.
	// classifier is the monitor's error taxonomy, kept for foreground
	// paths that must classify without driving the state machine.
	health     *health.Monitor
	classifier health.Classifier

	// immGone is broadcast (closed and replaced) whenever the immutable
	// memtable finishes merging, waking stalled writers.
	immGone   atomic.Pointer[chan struct{}]
	l0Relaxed atomic.Pointer[chan struct{}]

	// resumed is broadcast on every return to Healthy (auto-resume or an
	// explicit Resume call) so workers parked in a backoff wait retry
	// immediately instead of sleeping out their delay.
	resumed atomic.Pointer[chan struct{}]

	// TTL-tracked snapshot handles (Options.SnapshotTTL).
	snapMu   sync.Mutex
	ttlSnaps []*Snapshot

	metrics struct {
		puts, gets, deletes, rmws, rmwRetries atomic.Uint64
		txns, txnConflicts                    atomic.Uint64
		snapshots, flushes, compactions       atomic.Uint64
		flushBytes, compactionBytes           atomic.Uint64
		stallNanos, flushNanos                atomic.Int64
		// writeBytes is the cumulative logical user-write volume
		// (key+value bytes of puts, deletes, batches, RMWs) — the
		// governor's per-shard write-pressure signal.
		writeBytes atomic.Uint64
		// vlogGCRuns counts completed value-log GC segment rewrites.
		vlogGCRuns atomic.Uint64
	}
}

// Open creates or recovers an engine. Nonsensical options fail fast with a
// wrapped ErrInvalidOptions before any file is touched.
func Open(opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	// Validate ran on the raw options; a trigger pair can also invert when
	// only one side was set and the default fills the other.
	if opts.L0StopTrigger < opts.L0SlowdownTrigger {
		return nil, fmt.Errorf("%w: L0StopTrigger (%d) < L0SlowdownTrigger (%d) after defaults",
			ErrInvalidOptions, opts.L0StopTrigger, opts.L0SlowdownTrigger)
	}
	prof, err := scheduler.ProfileByName(opts.SchedulerProfile)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	db := &DB{
		opts:       opts,
		fs:         opts.FS,
		obs:        opts.Observer,
		oracle:     oracle.New(),
		closing:    make(chan struct{}),
		legacyGate: prof.Legacy,
	}
	db.throttle = scheduler.NewThrottle(prof, opts.WriteRateLimit)
	// A user rate limit pre-activates the bucket; mirror it into the gauge
	// so the export is correct before the tuner's first change.
	db.obs.ThrottleRate.Store(uint64(db.throttle.Rate()))
	db.memBudget.Store(opts.MemtableSize)
	if opts.BlockCache != nil {
		db.blocks = opts.BlockCache
	} else {
		db.blocks = cache.New(opts.BlockCacheSize)
	}
	db.blocks.SetMetrics(&db.obs.CacheHits, &db.obs.CacheMisses)
	vs, err := version.Open(opts.FS, db.blocks, opts.Disk)
	if err != nil {
		return nil, err
	}
	db.versions = vs
	db.compactor = compaction.NewCompactor(opts.FS, vs)
	db.compactor.SetObserver(db.obs)
	db.classifier = health.Classifier{
		Corrupt: []error{wal.ErrCorrupt, sstable.ErrCorrupt, version.ErrCorruptEdit},
	}
	db.health = health.NewMonitor(db.classifier, db.onHealthChange)
	db.storeBroadcast(&db.immGone)
	db.storeBroadcast(&db.l0Relaxed)
	db.storeBroadcast(&db.resumed)

	db.obs.OrphanFilesRemoved.Add(vs.OrphansRemoved())
	db.obs.WALTornTails.Add(vs.TornTailsTruncated())
	db.oracle.Advance(vs.LastTS())
	// The value log opens before WAL replay: recovery validates every
	// replayed pointer record against it, dropping records whose value
	// bytes never became durable (necessarily unacknowledged in sync mode).
	db.vlog, err = vlog.Open(vlog.Config{
		FS:          opts.FS,
		Set:         vs,
		SegmentSize: opts.ValueLogSegmentSize,
		SyncWrites:  opts.SyncWrites,
		Observer:    db.obs,
	})
	if err != nil {
		vs.Close()
		return nil, err
	}
	if err := db.recoverWAL(); err != nil {
		db.vlog.Close()
		vs.Close()
		return nil, err
	}
	if db.mem.Load() == nil {
		if err := db.installFreshMemtable(); err != nil {
			db.vlog.Close()
			vs.Close()
			return nil, err
		}
	}

	// Per-origin backoffs and prebuilt job closures (see schedule.go).
	db.flushBoff = db.newBackoff()
	db.seekBoff = db.newBackoff()
	db.vlogBoff = db.newBackoff()
	db.flushRun = db.runFlushJob
	db.seekRun = db.runSeekJob
	db.vlogGCRun = db.runVlogGCJob
	db.vlogGCSkip = func(num uint64) bool { return num == db.vlog.ActiveSegment() }
	for l := 0; l < version.NumLevels; l++ {
		level := l
		db.levelBoff[l] = db.newBackoff()
		db.compactRuns[l] = func() { db.runCompactionJob(level) }
	}
	// Three extra workers beyond the compaction slots so a flush, a
	// long-running backup ship, and a value-log GC rewrite can always run
	// alongside a full complement of compactions.
	db.sched = scheduler.New(scheduler.Config{
		Workers:         opts.CompactionThreads + 3,
		CompactionSlots: opts.CompactionThreads,
		FlushSlots:      1,
		BackupSlots:     1,
		VlogGCSlots:     1,
		Poll:            10 * time.Millisecond,
		Planner:         db.plan,
	})
	if opts.SnapshotTTL > 0 {
		db.bg.Add(1)
		go db.snapshotSweepLoop()
	}
	return db, nil
}

func (db *DB) storeBroadcast(p *atomic.Pointer[chan struct{}]) {
	ch := make(chan struct{})
	p.Store(&ch)
}

// installFreshMemtable creates a new WAL + memtable pair and publishes them.
// Callers must ensure no concurrent writers (startup, or exclusive lock).
func (db *DB) installFreshMemtable() error {
	logNum := db.versions.NewFileNum()
	var logger *wal.Logger
	if !db.opts.DisableWAL {
		f, err := db.fs.Create(version.LogFileName(logNum))
		if err != nil {
			return err
		}
		logger = wal.NewLogger(f, db.opts.SyncWrites)
		logger.Instrument(&db.obs.WALAppends, &db.obs.WALSyncs, &db.obs.WALGroupSize)
	}
	db.mem.Store(memtable.New(logNum))
	db.log.Store(logger)
	return nil
}

// Close stops background work, drains the WAL, and releases every
// resource. Pending writes are durable in the WAL and recovered on the
// next Open.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	// closing first, so jobs parked in backoff waits and writers parked in
	// throttle waits unblock before the scheduler drains its running work.
	close(db.closing)
	db.sched.Close()
	db.bg.Wait()

	var firstErr error
	if l := db.log.Swap(nil); l != nil {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if m := db.mem.Swap(nil); m != nil {
		m.Unref()
	}
	if m := db.imm.Swap(nil); m != nil {
		m.Unref()
	}
	if db.vlog != nil {
		if err := db.vlog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.versions.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if e := db.bgErr.Load(); e != nil && firstErr == nil {
		firstErr = *e
	}
	return firstErr
}

// Oracle exposes the timestamp oracle (tests, tools).
func (db *DB) Oracle() *oracle.Oracle { return db.oracle }

// Observer exposes the engine's observability substrate: latency
// histograms, substrate counters, and the event trace. Never nil.
func (db *DB) Observer() *obs.Observer { return db.obs }

// MemtableFillFraction reports how full the mutable memtable is relative
// to its spill threshold (used by merge-aware write schedulers).
func (db *DB) MemtableFillFraction() float64 {
	mt := db.mem.Load()
	if mt == nil {
		return 0
	}
	return float64(mt.ApproximateSize()) / float64(db.memBudget.Load())
}

// MemtableBudget returns the current memtable spill threshold.
func (db *DB) MemtableBudget() int64 { return db.memBudget.Load() }

// SetMemtableBudget moves the memtable spill threshold at runtime. An
// external memory governor uses it to shift quota between shards and
// the shared block cache; the engine clamps the floor so a starved
// shard still batches writes usefully. Shrinking kicks the scheduler so
// an over-budget memtable rotates promptly.
func (db *DB) SetMemtableBudget(n int64) {
	const floor = 256 << 10
	if n < floor {
		n = floor
	}
	old := db.memBudget.Swap(n)
	if n < old && db.sched != nil {
		db.sched.Kick()
	}
}

// Pressure is a point-in-time report of one engine's memory pressure,
// consumed by the cross-shard memory governor.
type Pressure struct {
	// MemBytes is the mutable memtable's fill; ImmBytes the frozen
	// memtable still merging (0 when none).
	MemBytes, ImmBytes int64
	// Budget is the current memtable spill threshold.
	Budget int64
	// Debt is the scheduler's backlog signal (flush + compaction bytes).
	Debt uint64
	// WriteBytes is the cumulative logical user-write volume; its delta
	// between samples is the shard's write arrival rate.
	WriteBytes uint64
	// CacheHits and CacheMisses are this engine's block cache counters;
	// their deltas give the shard's read pressure.
	CacheHits, CacheMisses uint64
}

// Pressure samples the engine's memory-pressure signals.
func (db *DB) Pressure() Pressure {
	p := Pressure{
		Budget:      db.memBudget.Load(),
		Debt:        db.obs.CompactionDebt.Load(),
		WriteBytes:  db.metrics.writeBytes.Load(),
		CacheHits:   db.obs.CacheHits.Load(),
		CacheMisses: db.obs.CacheMisses.Load(),
	}
	if mt := db.mem.Load(); mt != nil {
		p.MemBytes = int64(mt.ApproximateSize())
	}
	if imm := db.imm.Load(); imm != nil {
		p.ImmBytes = int64(imm.ApproximateSize())
	}
	return p
}

// MergeInFlight reports whether an immutable memtable is currently being
// merged into the disk component.
func (db *DB) MergeInFlight() bool { return db.imm.Load() != nil }

// Metrics returns a snapshot of engine counters.
func (db *DB) Metrics() Metrics {
	var m Metrics
	m.Puts = db.metrics.puts.Load()
	m.Gets = db.metrics.gets.Load()
	m.Deletes = db.metrics.deletes.Load()
	m.RMWs = db.metrics.rmws.Load()
	m.RMWRetries = db.metrics.rmwRetries.Load()
	m.Txns = db.metrics.txns.Load()
	m.TxnConflicts = db.metrics.txnConflicts.Load()
	m.Snapshots = db.metrics.snapshots.Load()
	m.Flushes = db.metrics.flushes.Load()
	m.Compactions = db.metrics.compactions.Load()
	m.FlushBytes = db.metrics.flushBytes.Load()
	m.CompactionBytes = db.metrics.compactionBytes.Load()
	m.StallTime = time.Duration(db.metrics.stallNanos.Load())
	m.WriteStalls = db.obs.WriteStalls.Load()
	m.CacheHits = db.obs.CacheHits.Load()
	m.CacheMisses = db.obs.CacheMisses.Load()
	if v := db.versions.Current(); v != nil {
		m.DiskBytes = v.SizeBytes()
		m.DiskFiles = v.NumFiles()
		for i := range v.Levels {
			m.LevelSize[i] = len(v.Levels[i])
		}
		v.Unref()
	}
	segs, _, garbage := db.versions.VlogStats()
	m.VlogSegments = segs
	m.VlogGarbageBytes = garbage
	m.VlogGCRuns = db.metrics.vlogGCRuns.Load()
	return m
}

// ApproximateSize estimates the on-disk bytes holding keys in
// [start, end) — file sizes of fully covered tables plus halves of the
// boundary-overlapping ones. Memtable contents are excluded (they have no
// stable on-disk representation yet).
func (db *DB) ApproximateSize(start, end []byte) uint64 {
	v := db.versions.Current()
	if v == nil {
		return 0
	}
	defer v.Unref()
	return v.ApproximateSize(start, end)
}

// background error capture: a failed flush/compaction poisons the engine.
func (db *DB) setBGErr(err error) {
	if err != nil {
		db.bgErr.CompareAndSwap(nil, &err)
	}
}

func (db *DB) backgroundErr() error {
	if e := db.bgErr.Load(); e != nil {
		return *e
	}
	return nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clsm"
	"clsm/internal/batch"
	"clsm/internal/cache"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/server"
	"clsm/internal/shard"
	"clsm/internal/storage"
)

// iterator is the scan surface shared by the public and the engine
// iterators.
type iterator interface {
	First()
	Next()
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
	Close()
}

// txnView is the part of a transaction the workloads use.
type txnView interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
}

// store is what the in-process workloads drive: the public clsm.DB in an
// untraced run, the engine opened through core.Open over a timing FS in a
// traced run.
type store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool, error)
	Write(b *batch.Batch) error
	txn(fn func(txnView) error) error
	iter(lo, hi []byte) (iterator, error)
	Flush() error
	Metrics() core.Metrics
	observers() []*obs.Observer
	Close() error
}

type publicStore struct{ *clsm.DB }

func (s publicStore) txn(fn func(txnView) error) error {
	return s.DB.Txn(func(t *clsm.Txn) error { return fn(t) })
}

func (s publicStore) iter(lo, hi []byte) (iterator, error) {
	return s.DB.NewIterator(clsm.IterOptions{LowerBound: lo, UpperBound: hi})
}

func (s publicStore) observers() []*obs.Observer {
	if o := s.DB.ShardObservers(); o != nil {
		return o
	}
	return []*obs.Observer{s.DB.Observer()}
}

type coreStore struct{ *core.DB }

func (s coreStore) txn(fn func(txnView) error) error {
	return s.DB.Txn(func(t *core.Txn) error { return fn(t) })
}

func (s coreStore) iter(lo, hi []byte) (iterator, error) {
	return s.DB.NewIterator(core.IterOptions{LowerBound: lo, UpperBound: hi})
}

func (s coreStore) observers() []*obs.Observer { return []*obs.Observer{s.DB.Observer()} }

// config is a workload's store configuration. Everything not named here
// keeps the store's default.
type config struct {
	MemtableSize   int64 // bytes
	BlockCacheSize int64 // bytes
	SyncWrites     bool
	Shards         int
	ValueThreshold int
}

func (c config) public(sink clsm.EventSink) []clsm.Option {
	o := []clsm.Option{
		clsm.WithMemtableSize(c.MemtableSize),
		clsm.WithBlockCacheSize(c.BlockCacheSize),
		clsm.WithSyncWrites(c.SyncWrites),
		clsm.WithValueThreshold(c.ValueThreshold),
		clsm.WithObserver(sink),
	}
	if c.Shards > 0 {
		o = append(o, clsm.WithShards(c.Shards))
	}
	return o
}

// engine lowers the configuration onto core.Options the way the public
// constructor does for the fields this benchmark sets; every other field
// stays zero and takes the engine default.
func (c config) engine(fs storage.FS, sink obs.EventSink, shardIdx int) core.Options {
	o := obs.New()
	o.Trace.SetShard(shardIdx)
	o.Trace.SetSink(sink)
	return core.Options{
		FS:             fs,
		MemtableSize:   c.MemtableSize,
		BlockCacheSize: c.BlockCacheSize,
		SyncWrites:     c.SyncWrites,
		ValueThreshold: c.ValueThreshold,
		Observer:       o,
	}
}

// openPublic opens the store the way a user does.
func openPublic(dir string, c config, sink clsm.EventSink) (*clsm.DB, error) {
	return clsm.OpenPath(dir, c.public(sink)...)
}

// openTracedCore opens an unsharded engine over a timing FS.
func openTracedCore(dir string, c config, sink obs.EventSink, tfs *timingStats) (*core.DB, error) {
	osfs, err := storage.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return core.Open(c.engine(&timingFS{FS: osfs, st: tfs}, sink, 0))
}

// openTracedSharded opens a sharded store over timing FSes with the same
// on-disk layout, shared block cache and memory governor as
// clsm.WithShards, so the store reopens through the public API.
func openTracedSharded(dir string, c config, sink obs.EventSink, tfs *timingStats) (*shard.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "CLSM_SHARDS"), []byte(strconv.Itoa(c.Shards)+"\n"), 0o644); err != nil {
		return nil, err
	}
	pool := cache.New(c.BlockCacheSize)
	opts := shard.Options{Governor: shard.GovernorConfig{
		TotalBytes: int64(c.Shards)*c.MemtableSize + c.BlockCacheSize,
		Cache:      pool,
	}}
	for i := 0; i < c.Shards; i++ {
		osfs, err := storage.NewOSFS(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			return nil, err
		}
		eo := c.engine(&timingFS{FS: osfs, st: tfs}, sink, i)
		eo.BlockCache = pool.View(i)
		opts.Engines = append(opts.Engines, eo)
	}
	return shard.Open(opts)
}

// publicEngine bridges *clsm.DB to server.Engine, as cmd/clsm-server does.
type publicEngine struct{ *clsm.DB }

func (e publicEngine) NewIterator(opts ...clsm.IterOptions) (server.Iterator, error) {
	it, err := e.DB.NewIterator(opts...)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// shardEngine bridges *shard.DB to server.Engine.
type shardEngine struct{ *shard.DB }

func (e shardEngine) NewIterator(opts ...core.IterOptions) (server.Iterator, error) {
	it, err := e.DB.NewIterator(opts...)
	if err != nil {
		return nil, err
	}
	return it, nil
}

func (e shardEngine) ShardObservers() []*obs.Observer { return e.DB.Observers() }

// eventStats accumulates flush and compaction events from the EventSink.
type eventStats struct {
	flushes, compactions  atomic.Uint64
	flushNS, compactionNS atomic.Int64
}

func (e *eventStats) sink(ev obs.Event) {
	switch ev.Type {
	case obs.EvFlushEnd:
		e.flushes.Add(1)
		e.flushNS.Add(int64(ev.Dur))
	case obs.EvCompactionEnd:
		e.compactions.Add(1)
		e.compactionNS.Add(int64(ev.Dur))
	}
}

type eventSnapshot struct {
	flushes, compactions  uint64
	flushNS, compactionNS int64
}

func (e *eventStats) snapshot() eventSnapshot {
	return eventSnapshot{e.flushes.Load(), e.compactions.Load(), e.flushNS.Load(), e.compactionNS.Load()}
}

// quiesce waits until every observer's scheduler queue and compaction
// debt gauges read zero on several consecutive polls.
func quiesce(obsv []*obs.Observer, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	calm := 0
	for calm < 5 {
		if time.Now().After(deadline) {
			return fmt.Errorf("background work did not finish within %v", limit)
		}
		busy := false
		for _, o := range obsv {
			if o.SchedQueueDepth.Load() != 0 || o.CompactionDebt.Load() != 0 {
				busy = true
			}
		}
		if busy {
			calm = 0
		} else {
			calm++
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// timingStats is what the timing FS records: bytes and calls at the
// storage boundary and the latency of every Sync and ReadAt.
type timingStats struct {
	writeBytes, readBytes, readCalls atomic.Uint64
	epoch                            time.Time

	mu        sync.Mutex
	syncNS    hist
	readNS    hist
	syncSpans []span
}

type timingFS struct {
	storage.FS
	st *timingStats
}

func (f *timingFS) Create(name string) (storage.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, st: f.st}, nil
}

func (f *timingFS) Open(name string) (storage.RandomReader, error) {
	r, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingReader{RandomReader: r, st: f.st}, nil
}

func (f *timingFS) WriteFile(name string, data []byte) error {
	f.st.writeBytes.Add(uint64(len(data)))
	return f.FS.WriteFile(name, data)
}

func (f *timingFS) Link(oldname string, dst storage.FS, newname string) error {
	if t, ok := dst.(*timingFS); ok {
		dst = t.FS
	}
	return f.FS.Link(oldname, dst, newname)
}

type timingFile struct {
	storage.File
	st *timingStats
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.writeBytes.Add(uint64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.st.mu.Lock()
	f.st.syncNS.record(int64(end.Sub(t)))
	f.st.syncSpans = append(f.st.syncSpans, span{int64(t.Sub(f.st.epoch)), int64(end.Sub(f.st.epoch))})
	f.st.mu.Unlock()
	return err
}

type timingReader struct {
	storage.RandomReader
	st *timingStats
}

func (r *timingReader) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := r.RandomReader.ReadAt(p, off)
	d := time.Since(t)
	r.st.readCalls.Add(1)
	r.st.readBytes.Add(uint64(n))
	r.st.mu.Lock()
	r.st.readNS.record(int64(d))
	r.st.mu.Unlock()
	return n, err
}

// storageCounts is one reading of a timingStats.
type storageCounts struct {
	writeBytes, readBytes, readCalls uint64
	syncNS, readNS                   hist
	syncSpans                        []span
}

func (t *timingStats) read() *storageCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &storageCounts{
		writeBytes: t.writeBytes.Load(), readBytes: t.readBytes.Load(), readCalls: t.readCalls.Load(),
		syncNS: t.syncNS, readNS: t.readNS, syncSpans: t.syncSpans,
	}
}

// reset zeroes the counters at the start of the timed window.
func (t *timingStats) reset() {
	t.writeBytes.Store(0)
	t.readBytes.Store(0)
	t.readCalls.Store(0)
	t.mu.Lock()
	t.syncNS = hist{}
	t.readNS = hist{}
	t.syncSpans = nil
	t.mu.Unlock()
}

package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"clsm/internal/batch"
	"clsm/internal/storage"
)

// slowSyncFS injects a realistic fsync latency into an in-memory
// filesystem, so sync-mode benchmarks measure the group-commit
// amortization instead of MemFS's free syncs. Only files created through
// it (the WAL) pay the delay; reads are untouched.
type slowSyncFS struct {
	storage.FS
	delay time.Duration
	syncs atomic.Uint64
}

func (fs *slowSyncFS) Create(name string) (storage.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, fs: fs}, nil
}

type slowSyncFile struct {
	storage.File
	fs *slowSyncFS
}

func (f *slowSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.delay)
	return f.File.Sync()
}

func benchDB(b *testing.B, opts Options) *DB {
	b.Helper()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkPutParallel measures async (non-durable-sync) puts under
// contention: the shared-lock write path with pooled WAL buffers.
func BenchmarkPutParallel(b *testing.B) {
	opts := testOptions(storage.NewMemFS())
	opts.MemtableSize = 64 << 20
	opts.Disk.TableFileSize = 8 << 20
	opts.Disk.BaseLevelBytes = 64 << 20
	db := benchDB(b, opts)

	value := []byte("benchmark-value-0123456789abcdef")
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := make([]byte, 0, 24)
		for pb.Next() {
			n := seq.Add(1)
			key = fmt.Appendf(key[:0], "key%016d", n)
			if err := db.Put(key, value); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteParallel is BenchmarkPutParallel through atomic batches
// of 1 and 8 entries: the shared-lock batch path, whose only extra cost
// over a put is the batch encoding and one Active slot held across the
// whole insert. ns/op is per batch.
func BenchmarkWriteParallel(b *testing.B) {
	for _, entries := range []int{1, 8} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			opts := testOptions(storage.NewMemFS())
			opts.MemtableSize = 64 << 20
			opts.Disk.TableFileSize = 8 << 20
			opts.Disk.BaseLevelBytes = 64 << 20
			db := benchDB(b, opts)

			value := []byte("benchmark-value-0123456789abcdef")
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				keys := make([][]byte, entries)
				for i := range keys {
					keys[i] = make([]byte, 0, 24)
				}
				var wb batch.Batch
				for pb.Next() {
					wb.Reset()
					for i := range keys {
						n := seq.Add(1)
						keys[i] = fmt.Appendf(keys[i][:0], "key%016d", n)
						wb.Put(keys[i], value)
					}
					if err := db.Write(&wb); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkPutSyncParallel is the tentpole benchmark: durable puts against
// a device with a 100µs fsync. Group commit batches concurrent writers
// behind a single sync, so throughput scales with the group size rather
// than being capped at 1/fsync-latency. The syncs/op metric is the
// amortization factor (1.0 would be one fsync per record).
func BenchmarkPutSyncParallel(b *testing.B) {
	fs := &slowSyncFS{FS: storage.NewMemFS(), delay: 100 * time.Microsecond}
	opts := testOptions(fs)
	opts.SyncWrites = true
	opts.MemtableSize = 64 << 20
	opts.Disk.TableFileSize = 8 << 20
	opts.Disk.BaseLevelBytes = 64 << 20
	db := benchDB(b, opts)

	value := []byte("benchmark-value-0123456789abcdef")
	var seq atomic.Uint64
	syncs0 := db.Observer().WALSyncs.Load()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := make([]byte, 0, 24)
		for pb.Next() {
			n := seq.Add(1)
			key = fmt.Appendf(key[:0], "key%016d", n)
			if err := db.Put(key, value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	syncs := db.Observer().WALSyncs.Load() - syncs0
	b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
}

// BenchmarkGetParallel measures cache-hit Pd point reads under
// contention: pooled seek keys and pooled SSTable iterators over cached
// blocks.
func BenchmarkGetParallel(b *testing.B) {
	opts := testOptions(storage.NewMemFS())
	db := benchDB(b, opts)

	const n = 4096
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		b.Fatal(err)
	}
	// Warm the block cache so the steady state is a pure cache-hit read.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if _, ok, err := db.Get([]byte(k)); err != nil || !ok {
			b.Fatalf("warmup Get(%s) = %v, %v", k, ok, err)
		}
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := make([]byte, 0, 16)
		for pb.Next() {
			i := seq.Add(1) % n
			key = fmt.Appendf(key[:0], "key%06d", i)
			if _, ok, err := db.Get(key); err != nil || !ok {
				b.Fatal("miss on present key")
			}
		}
	})
}

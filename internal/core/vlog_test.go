package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"clsm/internal/faultfs"
	"clsm/internal/health"
	"clsm/internal/storage"
	"clsm/internal/version"
)

// vlogTestOptions enables key-value separation with a low threshold and
// tiny segments so a short test exercises rotation and GC.
func vlogTestOptions(fs storage.FS) Options {
	o := testOptions(fs)
	o.ValueThreshold = 64
	o.ValueLogSegmentSize = 8 << 10
	o.ValueLogGCRatio = 0.3
	return o
}

func bigVal(i, n int) []byte {
	b := make([]byte, 0, n)
	stamp := fmt.Sprintf("big-%06d-", i)
	for len(b) < n {
		b = append(b, stamp...)
	}
	return b[:n]
}

func TestVlogPutGetRoundTrip(t *testing.T) {
	db, err := Open(vlogTestOptions(storage.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Mix of inline (< threshold) and separated (>= threshold) values.
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		var v []byte
		if i%2 == 0 {
			v = bigVal(i, 200)
		} else {
			v = []byte(fmt.Sprintf("small-%04d", i))
		}
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			var want []byte
			if i%2 == 0 {
				want = bigVal(i, 200)
			} else {
				want = []byte(fmt.Sprintf("small-%04d", i))
			}
			got, ok, err := db.Get(k)
			if err != nil || !ok {
				t.Fatalf("%s: Get %s = ok=%v err=%v", stage, k, ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Get %s: %d bytes, want %d", stage, k, len(got), len(want))
			}
		}
	}
	check("memtable")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after flush")
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	check("after compaction")

	m := db.Metrics()
	if m.VlogSegments == 0 {
		t.Fatal("no value-log segments despite 100 large puts")
	}
	if err := db.Delete([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("key-0000")); ok {
		t.Fatal("deleted large value still visible")
	}
}

func TestVlogIteratorAndSnapshot(t *testing.T) {
	db, err := Open(vlogTestOptions(storage.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(i, 150)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.GetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Overwrite under the snapshot: it must keep resolving the old values.
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(i+1000, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	it, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		want := bigVal(i, 150)
		if string(it.Key()) != fmt.Sprintf("k%03d", i) {
			t.Fatalf("iterator key %d = %q", i, it.Key())
		}
		if !bytes.Equal(it.Value(), want) {
			t.Fatalf("iterator value for %q resolved to wrong bytes (%d long)", it.Key(), len(it.Value()))
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("snapshot iterator yielded %d keys, want %d", i, n)
	}
	v, ok, err := snap.Get([]byte("k007"))
	if err != nil || !ok || !bytes.Equal(v, bigVal(7, 150)) {
		t.Fatalf("snapshot Get = ok=%v err=%v (%d bytes)", ok, err, len(v))
	}
}

func TestVlogGCReclaimsGarbage(t *testing.T) {
	db, err := Open(vlogTestOptions(storage.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Overwrite a small key set many times: most vlog entries become
	// garbage, so GC must find candidates and shrink the segment set.
	const rounds, nKeys = 30, 20
	for r := 0; r < rounds; r++ {
		for i := 0; i < nKeys; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(r*nKeys+i, 300)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	if before.VlogGarbageBytes == 0 {
		t.Fatal("compaction accounted no vlog garbage despite heavy overwrites")
	}
	if err := db.CompactValueLog(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if after.VlogGCRuns == 0 {
		t.Fatal("CompactValueLog performed no rewrites")
	}
	if after.VlogSegments >= before.VlogSegments {
		t.Fatalf("segments did not shrink: %d -> %d", before.VlogSegments, after.VlogSegments)
	}
	// Latest versions survive the rewrite.
	for i := 0; i < nKeys; i++ {
		want := bigVal((rounds-1)*nKeys+i, 300)
		got, ok, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("after GC: Get k%03d = ok=%v err=%v (%d bytes)", i, ok, err, len(got))
		}
	}
}

func TestVlogReopenRecoversPointers(t *testing.T) {
	fs := storage.NewMemFS()
	db, err := Open(vlogTestOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(i, 180)); err != nil {
			t.Fatal(err)
		}
	}
	// Half stay WAL-only, half are flushed into sstables.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(i+500, 180)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT the threshold: stored pointers must still resolve —
	// the knob shapes writes, never reads.
	db2, err := Open(testOptions(fs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		want := bigVal(i, 180)
		if i%2 == 0 {
			want = bigVal(i+500, 180)
		}
		got, ok, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("recovered Get k%03d = ok=%v err=%v (%d bytes)", i, ok, err, len(got))
		}
	}
}

func TestVlogTxnLargeValues(t *testing.T) {
	db, err := Open(vlogTestOptions(storage.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Txn(func(tx *Txn) error {
		for i := 0; i < 10; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("t%02d", i)), bigVal(i, 256)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, ok, err := db.Get([]byte(fmt.Sprintf("t%02d", i)))
		if err != nil || !ok || !bytes.Equal(got, bigVal(i, 256)) {
			t.Fatalf("txn Get t%02d = ok=%v err=%v", i, ok, err)
		}
	}
	// RMW over a separated value must see the dereferenced bytes.
	if err := db.RMW([]byte("t03"), func(old []byte, exists bool) []byte {
		if !exists || !bytes.Equal(old, bigVal(3, 256)) {
			t.Errorf("RMW saw wrong old value (exists=%v, %d bytes)", exists, len(old))
		}
		return append(old, []byte("-amended")...)
	}); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := db.Get([]byte("t03"))
	if !ok || !bytes.HasSuffix(got, []byte("-amended")) || len(got) != 256+len("-amended") {
		t.Fatalf("RMW result wrong (%d bytes)", len(got))
	}
}

// TestVlogDisabledParity pins the compatibility contract: with the
// threshold off (the default), no value-log files appear and behavior is
// byte-for-byte the inline path.
func TestVlogDisabledParity(t *testing.T) {
	fs := storage.NewMemFS()
	db := mustOpen(t, fs)
	defer db.Close()

	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), bigVal(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.VlogSegments != 0 {
		t.Fatalf("threshold disabled but %d vlog segments exist", m.VlogSegments)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if kind, _, ok := version.ParseFileName(name); ok && kind == version.KindValueLog {
			t.Fatalf("threshold disabled but %s exists", name)
		}
	}
	if err := db.CompactValueLog(context.Background()); err != nil {
		t.Fatalf("CompactValueLog on inline store: %v", err)
	}
}

// TestVlogCloseDuringGCRewrite: Close landing while a background value-log
// GC rewrite is running must return nil and leave the store's health
// alone. The rewrite notices shutdown and returns ErrClosed; settling that
// as a fault would hand Close a spurious error and report a transition to
// Failed. The first session leaves a live entry in every segment (no
// candidate at ratio 1); the second opens at ratio 0.3, so the planner's
// GC job starts rewriting, and a filesystem hook parks its first relink
// append until Close has begun.
func TestVlogCloseDuringGCRewrite(t *testing.T) {
	ffs := faultfs.Wrap(storage.NewMemFS())
	opts := vlogTestOptions(ffs)
	opts.ValueLogGCRatio = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, nKeys = 30, 8
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for r := 0; r < rounds; r++ {
		put(fmt.Sprintf("live%03d", r), bigVal(r, 300))
		for i := 0; i < nKeys; i++ {
			put(fmt.Sprintf("hot%03d", i), bigVal(1000+r*nKeys+i, 300))
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.VlogGarbageBytes == 0 || m.VlogGCRuns != 0 {
		t.Fatalf("setup: vlog garbage %d bytes, %d GC runs; want garbage and no run yet",
			m.VlogGarbageBytes, m.VlogGCRuns)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	inRewrite := make(chan struct{})
	release := make(chan struct{})
	var parked sync.Once
	ffs.SetHook(func(p faultfs.Point) {
		// After reopen nothing but the GC relink appends to the value log.
		if p.Op == faultfs.OpWrite && strings.HasSuffix(p.Name, ".vlg") {
			parked.Do(func() {
				close(inRewrite)
				<-release
			})
		}
	})
	var trMu sync.Mutex
	var transitions []health.Transition
	opts = vlogTestOptions(ffs)
	opts.OnHealthChange = func(tr health.Transition) {
		trMu.Lock()
		transitions = append(transitions, tr)
		trMu.Unlock()
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inRewrite:
	case <-time.After(10 * time.Second):
		close(release)
		db.Close()
		t.Fatal("background value-log GC never started a rewrite")
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	<-db.closing
	close(release)
	if err := <-closed; err != nil {
		t.Errorf("Close during a GC rewrite = %v, want nil", err)
	}
	trMu.Lock()
	for _, tr := range transitions {
		if tr.To == health.Failed {
			t.Errorf("Close during a GC rewrite reported %v -> %v (%v)", tr.From, tr.To, tr.Cause)
		}
	}
	trMu.Unlock()

	// The interrupted rewrite lost nothing.
	ffs.SetHook(nil)
	db, err = Open(vlogTestOptions(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after reopen: Get %s = ok=%v err=%v (%d bytes)", k, ok, err, len(got))
		}
	}
}

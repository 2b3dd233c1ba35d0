package clsm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clsm/internal/backup"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/storage"
)

// oneEngineLayouts are the two ways to open a single-engine store: the
// flat layout and the one-shard sharded layout. Both must behave like
// the engine itself.
var oneEngineLayouts = []struct {
	name string
	opts []Option
}{
	{"flat", nil},
	{"shards=1", []Option{WithShards(1)}},
}

// TestOneEngineTxnSnapshotAtBegin: on a one-engine store the transaction
// snapshot is taken at Begin, so a Put landing after BeginTxn is
// invisible to the transaction's reads (and conflicts its commit).
func TestOneEngineTxnSnapshotAtBegin(t *testing.T) {
	for _, l := range oneEngineLayouts {
		t.Run(l.name, func(t *testing.T) {
			db, err := OpenPath("", l.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Put([]byte("k"), []byte("old")); err != nil {
				t.Fatal(err)
			}
			txn, err := db.BeginTxn()
			if err != nil {
				t.Fatal(err)
			}
			defer txn.Rollback()
			if err := db.Put([]byte("k"), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := txn.Get([]byte("k")); err != nil || !ok || string(v) != "old" {
				t.Fatalf("txn.Get after a later Put = %q,%v,%v, want the Begin-time value \"old\"", v, ok, err)
			}
			if err := txn.Put([]byte("k"), []byte("txn")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("commit over a write after Begin = %v, want ErrTxnConflict", err)
			}
		})
	}
}

// TestOneEngineBeginTxnCtxCanceled: a canceled context fails at Begin,
// not at the first operation.
func TestOneEngineBeginTxnCtxCanceled(t *testing.T) {
	for _, l := range oneEngineLayouts {
		t.Run(l.name, func(t *testing.T) {
			db, err := OpenPath("", l.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if txn, err := db.BeginTxnCtx(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("BeginTxnCtx(canceled) = %v, %v; want context.Canceled", txn, err)
			}
		})
	}
}

// TestOneEngineObserverIsLive: a one-engine store hands out its engine's
// live observer on every call (so recorders such as the network server
// can write into it), and reports no per-shard observers.
func TestOneEngineObserverIsLive(t *testing.T) {
	for _, l := range oneEngineLayouts {
		t.Run(l.name, func(t *testing.T) {
			db, err := OpenPath("", l.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			o := db.Observer()
			if o == nil || db.Observer() != o {
				t.Fatal("Observer() is not one stable live observer")
			}
			before := o.Op(OpPut).Count()
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if got := o.Op(OpPut).Count(); got != before+1 {
				t.Fatalf("held observer saw %d puts after one Put, want %d", got, before+1)
			}
			if so := db.ShardObservers(); so != nil {
				t.Fatalf("ShardObservers() = %d observers, want nil", len(so))
			}
		})
	}
}

// TestOneEngineIteratorUnpositioned: reading Key/Value off an iterator
// that ran off its range (or was never positioned) returns nil rather
// than panicking.
func TestOneEngineIteratorUnpositioned(t *testing.T) {
	for _, l := range oneEngineLayouts {
		t.Run(l.name, func(t *testing.T) {
			db, err := OpenPath("", l.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			it, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if it.Key() != nil || it.Value() != nil {
				t.Fatal("unpositioned iterator returned a key or value")
			}
			n := 0
			for it.First(); it.Valid(); it.Next() {
				n++
			}
			if n != 1 || it.Key() != nil || it.Value() != nil {
				t.Fatalf("after the last key: %d keys seen, Key %q, Value %q; want 1, nil, nil", n, it.Key(), it.Value())
			}
		})
	}
}

// TestParentFlatLayoutOpensAndRestores writes a flat store and a backup
// of it exactly as the single-engine open path laid them out (the engine
// directly on the store directory, a backup image with the empty
// prefix) and checks both open through the facade with the flat layout
// kept: no shard marker appears, and the data reads back.
func TestParentFlatLayoutOpensAndRestores(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "flat")
	fs, err := storage.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(core.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := eng.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	be := NewMemBackupEngine(RemoteOptions{})
	if _, err := backup.New(be.remote, backup.Options{Observer: obs.New()}).Backup(backup.Source{DB: eng}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(path string) {
		t.Helper()
		db, err := OpenPath(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		defer db.Close()
		for _, i := range []int{0, 99, 199} {
			k := fmt.Sprintf("k%03d", i)
			if v, ok, err := db.Get([]byte(k)); err != nil || !ok || string(v) != fmt.Sprintf("v%03d", i) {
				t.Fatalf("%s: Get(%s) = %q,%v,%v", path, k, v, ok, err)
			}
		}
		if _, err := os.Stat(filepath.Join(path, shardMarkerFile)); !os.IsNotExist(err) {
			t.Fatalf("%s: flat store gained a shard marker (stat err %v)", path, err)
		}
		if _, err := os.Stat(filepath.Join(path, shardDir(1, 0))); !os.IsNotExist(err) {
			t.Fatalf("%s: flat store gained a shard directory (stat err %v)", path, err)
		}
	}
	check(dir)
	restored := filepath.Join(root, "restored")
	if _, err := be.Restore(0, restored); err != nil {
		t.Fatalf("restore: %v", err)
	}
	check(restored)
	if _, err := OpenPath(restored, WithShards(1)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("reopening a flat store with WithShards(1) = %v, want ErrInvalidOptions", err)
	}
}

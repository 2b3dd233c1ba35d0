package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"clsm/internal/faultfs"
	"clsm/internal/keys"
	"clsm/internal/storage"
)

// lookupCase is one key whose newest version sits in a chosen component
// with a chosen kind, and the answer every read path must give for it.
type lookupCase struct {
	key    string
	src    source
	kind   keys.Kind
	want   []byte
	exists bool
	early  *Txn // begun just before the newest version was written
}

// TestLookupAgreement places a key's newest version in each of Pm, P'm
// and Pd with each kind — inline value, tombstone, value-log pointer —
// plus a key absent everywhere, each with an older inline version below
// it. P'm is held in place by a transient fault on sstable creation with
// a long retry backoff. Then Get, Snapshot.Get, MultiGet, Txn.Get, RMW's
// read and commit validation must all give the same answer, and
// validation must report a conflict exactly when the newest version is
// newer than the transaction's snapshot.
func TestLookupAgreement(t *testing.T) {
	ffs := faultfs.Wrap(storage.NewMemFS())
	opts := vlogTestOptions(ffs)
	opts.MemtableSize = 1 << 20 // no rotation but the test's own
	opts.RetryBaseDelay = time.Minute
	opts.RetryMaxDelay = time.Minute
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	begin := func() *Txn {
		txn, err := db.BeginTxn()
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	var cases []*lookupCase
	for _, src := range []source{fromPd, fromImm, fromPm} {
		for _, kind := range []keys.Kind{keys.KindValue, keys.KindDelete, keys.KindValuePtr} {
			c := &lookupCase{key: fmt.Sprintf("k-%d-%d", src, kind), src: src, kind: kind}
			switch kind {
			case keys.KindValue:
				c.want, c.exists = []byte("inline-"+c.key), true
			case keys.KindValuePtr:
				c.want, c.exists = bigVal(int(src)*10+int(kind), 300), true
			}
			cases = append(cases, c)
		}
	}
	cases = append(cases, &lookupCase{key: "k-absent", src: absent, kind: keys.KindDelete, early: begin()})
	for _, c := range cases[:len(cases)-1] {
		if err := db.Put([]byte(c.key), []byte("older-"+c.key)); err != nil {
			t.Fatal(err)
		}
	}
	writeNewest := func(src source) {
		for _, c := range cases {
			if c.src != src {
				continue
			}
			c.early = begin()
			if c.exists {
				err = db.Put([]byte(c.key), c.want)
			} else {
				err = db.Delete([]byte(c.key))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	writeNewest(fromPd)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	writeNewest(fromImm)
	// Freeze P'm: rotate by hand, and let the background flush fail on
	// sstable creation and park in its one-minute backoff.
	ffs.Arm(faultfs.Rule{Op: faultfs.OpCreate, Pattern: "*.sst", N: 1, Kind: faultfs.FaultErr})
	db.flushMu.Lock()
	err = db.rotate()
	db.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	db.sched.Kick()
	waitFor(t, 10*time.Second, "the P'm flush to fail", func() bool {
		return db.obs.BGRetries.Load() >= 1
	})
	writeNewest(fromPm)
	if db.imm.Load() == nil {
		t.Fatal("P'm was not held in place")
	}

	// The one lookup serves each key from the intended component.
	for _, c := range cases {
		v := db.pin()
		h, err := v.lookup([]byte(c.key), keys.MaxTimestamp)
		v.release()
		if err != nil || h.src != c.src || (c.src != absent && h.kind != c.kind) {
			t.Fatalf("lookup %s = src %d kind %d err %v, want src %d kind %d",
				c.key, h.src, h.kind, err, c.src, c.kind)
		}
	}

	check := func(path string, c *lookupCase, got []byte, ok bool, err error) {
		t.Helper()
		if err != nil || ok != c.exists || !bytes.Equal(got, c.want) {
			t.Errorf("%s %s = %q, %v, %v; want %q, %v", path, c.key, got, ok, err, c.want, c.exists)
		}
	}
	ks := make([][]byte, len(cases))
	for i, c := range cases {
		ks[i] = []byte(c.key)
	}
	vals, err := db.MultiGet(ks)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.GetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for i, c := range cases {
		check("MultiGet", c, vals[i].Data, vals[i].Exists, nil)
		got, ok, err := db.Get(ks[i])
		check("Get", c, got, ok, err)
		got, ok, err = snap.Get(ks[i])
		check("Snapshot.Get", c, got, ok, err)

		// A transaction that read the newest version commits; one whose
		// snapshot predates it conflicts, tombstones included.
		late := begin()
		got, ok, err = late.Get(ks[i])
		check("Txn.Get", c, got, ok, err)
		late.Put([]byte("scratch-late-"+c.key), []byte("x"))
		if err := late.Commit(); err != nil {
			t.Errorf("commit after reading %s = %v, want nil", c.key, err)
		}
		if _, _, err := c.early.Get(ks[i]); err != nil {
			t.Fatal(err)
		}
		c.early.Put([]byte("scratch-early-"+c.key), []byte("x"))
		err = c.early.Commit()
		if conflict := errors.Is(err, ErrTxnConflict); conflict != (c.src != absent) || (err != nil && !conflict) {
			t.Errorf("commit of a snapshot older than %s = %v, want conflict %v", c.key, err, c.src != absent)
		}

		// RMW's read step sees the same version.
		if err := db.RMW(ks[i], func(old []byte, exists bool) []byte {
			check("RMW read", c, old, exists, nil)
			return []byte("rmw")
		}); err != nil {
			t.Fatalf("RMW %s: %v", c.key, err)
		}
	}
}

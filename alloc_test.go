//go:build !race

package clsm

import (
	"fmt"
	"runtime"
	"testing"
)

// The public facade is the path every user and the benchmark workloads
// take, so it carries the engine's allocation bar: a Put and a
// cache-hit Get through clsm.DB stay at <= 1 alloc/op.

func TestFacadePutAllocs(t *testing.T) {
	db, err := OpenPath("", WithMemtableSize(256<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := []byte("alloc-bench-key")
	value := []byte("alloc-bench-value-0123456789")
	for i := 0; i < 2000; i++ {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	avg := testing.AllocsPerRun(5000, func() {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("clsm.DB.Put allocates %.2f allocs/op, want <= 1", avg)
	}
}

func TestFacadeGetAllocs(t *testing.T) {
	db, err := OpenPath("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 512; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), []byte("value-0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	// Push everything into sorted tables so the measured Get is served
	// from the block cache, not the memtable.
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	key := []byte("key000256")
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get(key); err != nil || !ok {
			t.Fatalf("warm-up Get = %v, %v", ok, err)
		}
	}
	hits := db.Metrics().CacheHits
	runtime.GC()
	avg := testing.AllocsPerRun(5000, func() {
		if _, _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	if db.Metrics().CacheHits == hits {
		t.Fatal("measured Gets were not served by the block cache")
	}
	if avg > 1 {
		t.Fatalf("clsm.DB.Get (cache hit) allocates %.2f allocs/op, want <= 1", avg)
	}
}

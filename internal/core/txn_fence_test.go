package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"clsm/internal/batch"
	"clsm/internal/storage"
)

// TestTxnFenceInvariant pins the commit fence. Plain atomic batches set
// pairs (A_i, B_i) to (x, c-x); transactions read B_i and write
// A_i = c - B_i. Under serializable commits every snapshot reads
// A_i + B_i = c. Batches and commits share the shared lock, so a batch
// can hold timestamps below a commit's range while its entries are not
// yet in the memtable. A commit that re-checked its keys without first
// fencing below its range would miss that batch, commit A_i over it, and
// leave snapshots with A_i + B_i != c.
func TestTxnFenceInvariant(t *testing.T) {
	db := mustOpen(t, storage.NewMemFS())
	defer db.Close()

	const c = 1_000_000
	const pairs, perBatch = 16, 8
	commits := int64(800)
	if testing.Short() {
		commits = 400
	}
	aKey := func(i int) []byte { return []byte(fmt.Sprintf("a-%02d", i)) }
	bKey := func(i int) []byte { return []byte(fmt.Sprintf("b-%02d", i)) }
	// writePairs sets the given pairs in one batch, every A before every
	// B, so a commit racing the batch can see neither of a pair's keys.
	writePairs := func(rng *rand.Rand, idx []int) error {
		var b batch.Batch
		xs := make([]int, len(idx))
		for j, i := range idx {
			xs[j] = rng.Intn(c)
			b.Put(aKey(i), []byte(strconv.Itoa(xs[j])))
		}
		for j, i := range idx {
			b.Put(bKey(i), []byte(strconv.Itoa(c-xs[j])))
		}
		return db.Write(&b)
	}
	if err := writePairs(rand.New(rand.NewSource(1)), rand.Perm(pairs)); err != nil {
		t.Fatal(err)
	}
	readInt := func(get func([]byte) ([]byte, bool, error), key []byte) (int, error) {
		v, ok, err := get(key)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("key %s missing", key)
		}
		return strconv.Atoi(string(v))
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var violations atomic.Int64
	var firstViolation atomic.Value
	fail := func(err error) {
		if violations.Add(1) == 1 {
			firstViolation.Store(err)
		}
	}
	for w := 0; w < 2; w++ {
		bg.Add(1)
		go func(seed int64) {
			defer bg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := writePairs(rng, rng.Perm(pairs)[:perBatch]); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(10 + w))
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := db.GetSnapshot()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < pairs; i++ {
				a, err := readInt(snap.Get, aKey(i))
				if err != nil {
					fail(err)
					break
				}
				b, err := readInt(snap.Get, bKey(i))
				if err != nil {
					fail(err)
					break
				}
				if a+b != c {
					fail(fmt.Errorf("snapshot %d: pair %d reads %d + %d = %d, want %d",
						snap.TS(), i, a, b, a+b, c))
				}
			}
			snap.Close()
		}
	}()

	var committed, conflicts atomic.Int64
	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := int64(0); committed.Load() < commits; n++ {
				if n > 100*commits {
					t.Errorf("%d commits after %d attempts", committed.Load(), n)
					return
				}
				i := rng.Intn(pairs)
				err := db.Txn(func(tx *Txn) error {
					b, err := readInt(tx.Get, bKey(i))
					if err != nil {
						return err
					}
					return tx.Put(aKey(i), []byte(strconv.Itoa(c-b)))
				})
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrTxnConflict):
					conflicts.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}(int64(20 + w))
	}
	workers.Wait()
	close(stop)
	bg.Wait()

	// At rest, the newest state must satisfy the invariant too.
	for i := 0; i < pairs; i++ {
		a, err := readInt(db.Get, aKey(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := readInt(db.Get, bKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if a+b != c {
			fail(fmt.Errorf("at rest: pair %d reads %d + %d = %d, want %d", i, a, b, a+b, c))
		}
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d invariant violations (%d commits, %d conflicts); first: %v",
			v, committed.Load(), conflicts.Load(), firstViolation.Load())
	}
	t.Logf("%d commits, %d conflicts", committed.Load(), conflicts.Load())
}

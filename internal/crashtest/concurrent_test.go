package crashtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clsm/internal/batch"
	"clsm/internal/core"
	"clsm/internal/oracle"
)

// TestConcurrentOracle runs N goroutines of randomized Put/Delete/Get/
// batch/RMW/Snapshot traffic against one engine, each goroutine mirroring
// its operations into a private reference model over a disjoint key range
// (so per-key histories stay exact without cross-goroutine ordering
// assumptions). Run under -race by scripts/check.sh; the seed is logged so
// any failure replays with CRASHTEST_SEED.
//
// Snapshot reads are checked against the contract of the engine's
// snapshot mode. A goroutine's writes take increasing timestamps, so a
// snapshot always shows some prefix of its history (batches whole), and
// snapshot times never go backward. A linearizable snapshot must show
// the whole history so far. A serializable one (the default) may lag:
// it can stop short of writes that already returned, while an older
// in-flight put from another goroutine holds the snapshot time below
// them.
func TestConcurrentOracle(t *testing.T) {
	for _, linearizable := range []bool{false, true} {
		name := "serializable"
		if linearizable {
			name = "linearizable"
		}
		t.Run(name, func(t *testing.T) { runConcurrentOracle(t, linearizable) })
	}
}

func runConcurrentOracle(t *testing.T, linearizable bool) {
	seed := envInt("CRASHTEST_SEED", 1)
	ops := int(envInt("CRASHTEST_OPS", 300))
	if testing.Short() && ops > 150 {
		ops = 150
	}
	const goroutines = 4

	db, err := core.Open(core.Options{
		// A small memtable keeps flushes and compactions running under
		// the reads, which is the interleaving worth stressing.
		MemtableSize:          16 << 10,
		LinearizableSnapshots: linearizable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	errc := make(chan error, goroutines*8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	models := make([]*oracle.Model, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		models[g] = oracle.NewModel()
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*7919))
			model := models[g]
			keys := make([]string, 16)
			for i := range keys {
				keys[i] = fmt.Sprintf("g%d-k%02d", g, i)
			}
			check := func(ctx, key string, got []byte, ok bool, want []byte, wok bool) {
				if ok != wok || (ok && !bytes.Equal(got, want)) {
					report(fmt.Errorf("goroutine %d %s key %q: engine %q,%v, model %q,%v (CRASHTEST_SEED=%d)",
						g, ctx, key, got, ok, want, wok, seed))
				}
			}
			var seen uint64 // history prefix the last snapshot could show
			for i := 0; i < ops; i++ {
				step := uint64(i + 1) // model step of this op's writes
				key := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(100); {
				case r < 40: // put
					val := []byte(fmt.Sprintf("g%d-v%06d", g, i))
					if db.Put([]byte(key), val) != nil {
						return
					}
					model.Begin(step, oracle.Op{Key: key, Value: val})
				case r < 55: // delete
					if db.Delete([]byte(key)) != nil {
						return
					}
					model.Begin(step, oracle.Op{Key: key, Tombstone: true})
				case r < 65: // atomic batch over own keys
					var b batch.Batch
					var mops []oracle.Op
					for j, ki := range rng.Perm(len(keys))[:3] {
						val := []byte(fmt.Sprintf("g%d-b%06d-%d", g, i, j))
						b.Put([]byte(keys[ki]), val)
						mops = append(mops, oracle.Op{Key: keys[ki], Value: val})
					}
					if db.Write(&b) != nil {
						return
					}
					model.Begin(step, mops...)
				case r < 75: // read-modify-write
					val := []byte(fmt.Sprintf("g%d-r%06d", g, i))
					if db.RMW([]byte(key), func([]byte, bool) []byte { return val }) != nil {
						return
					}
					model.Begin(step, oracle.Op{Key: key, Value: val})
				case r < 92: // live get
					got, ok, err := db.Get([]byte(key))
					if err != nil {
						return
					}
					want, wok := model.Get(key)
					check("get", key, got, ok, want, wok)
				default: // snapshot: own keys must read as one prefix of the history
					checked := rng.Perm(len(keys))[:4]
					snap, err := db.GetSnapshot()
					if err != nil {
						return
					}
					got := make([][]byte, len(checked))
					gotOK := make([]bool, len(checked))
					for j, ki := range checked {
						if got[j], gotOK[j], err = snap.Get([]byte(keys[ki])); err != nil {
							break
						}
					}
					if err != nil {
						snap.Close()
						return
					}
					// Find the shortest prefix, no shorter than the last
					// snapshot's, that explains every read.
					from := seen
					if linearizable {
						from = step - 1
					}
					p := from
					for ; p < step; p++ {
						match := true
						for j, ki := range checked {
							want, wok := model.GetAt(keys[ki], p)
							if gotOK[j] != wok || (wok && !bytes.Equal(got[j], want)) {
								match = false
								break
							}
						}
						if match {
							break
						}
					}
					if p == step {
						var reads []string
						for j, ki := range checked {
							want, wok := model.GetAt(keys[ki], step-1)
							reads = append(reads, fmt.Sprintf("%s: engine %q,%v, model %q,%v", keys[ki], got[j], gotOK[j], want, wok))
						}
						report(fmt.Errorf("goroutine %d snapshot matches no prefix of its writes from step %d to %d: %v (CRASHTEST_SEED=%d)",
							g, from, step-1, reads, seed))
					}
					seen = p
					snap.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// At rest no put is in flight, so even a serializable snapshot must
	// show every goroutine's whole history.
	snap, err := db.GetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for g, model := range models {
		for _, key := range model.Keys() {
			got, ok, err := snap.Get([]byte(key))
			want, wok := model.Get(key)
			if err != nil || ok != wok || (ok && !bytes.Equal(got, want)) {
				t.Errorf("goroutine %d at rest: snapshot key %q: engine %q,%v,%v, model %q,%v (CRASHTEST_SEED=%d)",
					g, key, got, ok, err, want, wok, seed)
			}
		}
	}
}

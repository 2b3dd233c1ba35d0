package main

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"clsm"
	"clsm/internal/batch"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opBatch
	opTxn
	opScan
	numOps
)

var opNames = [numOps]string{"put", "get", "batch", "txn", "scan"}

const (
	batchSize = 8  // entries per atomic Write
	scanLen   = 16 // keys per bounded scan
	txnKeys   = 2  // keys read and keys written per transaction
	workers   = 2  // load goroutines, sized for a 2-CPU host
	setups    = 5  // set-ups per run; setup_s is their median
)

// spec is one workload. Sizes are the only store options changed from
// their defaults; everything else (flush policy, L0 triggers, level
// sizes, table and block sizes, compaction threads) is the default.
type spec struct {
	name   string
	remote bool
	cfg    config
	keys   int // written keyspace, preloaded before timing
	// valueSize is the value length; remote puts carry largeValue bytes
	// instead on one put in largeEvery.
	valueSize, largeValue, largeEvery int
	hotspot                           bool // 90% of accesses on the first 10% of keys
	zipfReads                         bool // point reads Zipfian over the written keys
	absentEvery                       int  // 1 in absentEvery Gets asks for a never-written key
	mix                               [numOps]int
	rate                              float64 // open-loop offered ops/s (remote only)
	inflight                          int     // requests in flight per connection (remote only)
}

var specs = []spec{
	{
		name: "ingest",
		cfg:  config{MemtableSize: 4 << 20, BlockCacheSize: 8 << 20},
		keys: 200_000, valueSize: 256,
		mix: [numOps]int{opPut: 80, opBatch: 10, opTxn: 10},
	},
	{
		name: "read_mostly",
		// Hot keys are rewritten about once a second, so hot Gets mostly
		// read the memtable and L0; a 1 MiB memtable keeps L0 within the
		// 8 MiB cache. All keys are 4x the cache.
		cfg:  config{MemtableSize: 1 << 20, BlockCacheSize: 8 << 20},
		keys: 125_000, valueSize: 256, hotspot: true, absentEvery: 10,
		mix: [numOps]int{opGet: 85, opPut: 10, opScan: 5},
	},
	{
		name: "remote_sync", remote: true,
		cfg:  config{MemtableSize: 4 << 20, BlockCacheSize: 32 << 20, SyncWrites: true, Shards: 2, ValueThreshold: 1 << 10},
		keys: 20_000, valueSize: 128, largeValue: 4 << 10, largeEvery: 10,
		zipfReads: true,
		mix:       [numOps]int{opPut: 55, opGet: 35, opBatch: 10},
		rate:      5000, inflight: 32,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// opRec is one generated operation: its kind, its key draw, and whether a
// Get asks for a never-written key.
type opRec struct {
	kind   opKind
	absent bool
	key    uint32
}

// stream is one worker's pre-generated input: operations and extra key
// draws (for batch, transaction and scan keys), reused cyclically. It is
// built from the seed before set-up, outside every timed window.
type stream struct {
	recs  []opRec
	extra []uint32
	ticks []uint8 // open-loop arrivals per tick (remote only)
	ri    int
	ei    int
	ti    int
}

// tick is the open-loop schedule's resolution: arrivals are Poisson
// counts per tick. The runtime cannot sleep much finer than this here,
// and a generator that promises finer times is merely late.
const tick = time.Millisecond

const streamLen = 1 << 17

func newStream(sp spec, seed uint64, w int) *stream {
	r := rand.New(rand.NewPCG(seed, uint64(w)+1))
	var zipf *rand.Zipf
	if sp.zipfReads {
		zipf = rand.NewZipf(r, 1.1, 1, uint64(sp.keys-1))
	}
	draw := func(read bool) uint32 {
		switch {
		case zipf != nil && read:
			return uint32(zipf.Uint64())
		case sp.hotspot && r.IntN(10) < 9:
			return uint32(r.IntN(sp.keys / 10))
		default:
			return uint32(r.IntN(sp.keys))
		}
	}
	var cum [numOps]int
	acc := 0
	for k := range sp.mix {
		acc += sp.mix[k]
		cum[k] = acc
	}
	s := &stream{recs: make([]opRec, streamLen), extra: make([]uint32, 2*streamLen)}
	for i := range s.recs {
		x := r.IntN(acc)
		k := opKind(0)
		for x >= cum[k] {
			k++
		}
		rec := opRec{kind: k, key: draw(k == opGet || k == opScan)}
		if k == opGet && sp.absentEvery > 0 && r.IntN(sp.absentEvery) == 0 {
			rec.absent = true
		}
		s.recs[i] = rec
	}
	for i := range s.extra {
		s.extra[i] = draw(false)
	}
	if sp.remote {
		lambda := sp.rate / workers * tick.Seconds()
		s.ticks = make([]uint8, streamLen)
		for i := range s.ticks {
			// Knuth's method: count unit-rate exponential gaps in lambda.
			n, t := 0, r.ExpFloat64()
			for t < lambda && n < 255 {
				n++
				t += r.ExpFloat64()
			}
			s.ticks[i] = uint8(n)
		}
	}
	return s
}

func (s *stream) next() opRec {
	rec := s.recs[s.ri]
	s.ri = (s.ri + 1) % len(s.recs)
	return rec
}

func (s *stream) key() uint32 {
	k := s.extra[s.ei]
	s.ei = (s.ei + 1) % len(s.extra)
	return k
}

func (s *stream) arrivals() int {
	n := s.ticks[s.ti]
	s.ti = (s.ti + 1) % len(s.ticks)
	return int(n)
}

// own maps a key draw onto the nearest key owned by writer w.
func own(idx uint32, w, keys int) uint32 {
	i := int(idx) - int(idx)%workers + w
	if i >= keys {
		i -= workers
	}
	return uint32(i)
}

// tally is one worker's record of a timed window.
type tally struct {
	lat                [numOps]opHist
	attempted, failed  uint64
	conflicts, commits uint64
	writes, userBytes  uint64 // acknowledged write requests and their key+value bytes
	gets               uint64
	absent, iterNext   hist // traced runs only
	errs               []string
	spans              []opSpan // traced runs only, sampled
	late               hist     // open loop only
}

// opSpan is one client-side operation span.
type opSpan struct {
	kind       opKind
	key        uint32
	version    uint32
	start, end int64
}

const spanSample = 16 // in-process traced runs keep one op span in this many

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k].merge(&o.lat[k])
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.conflicts += o.conflicts
	t.commits += o.commits
	t.writes += o.writes
	t.userBytes += o.userBytes
	t.gets += o.gets
	t.absent.merge(&o.absent)
	t.iterNext.merge(&o.iterNext)
	t.late.merge(&o.late)
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
	t.spans = append(t.spans, o.spans...)
}

// inproc drives a store from one goroutine per writer in a closed loop.
type inproc struct {
	sp      spec
	db      store
	m       *model
	traced  bool
	epoch   time.Time
	corrupt *atomic.Int64 // corrupt the read whose countdown reaches zero

	start  time.Time // of the window being run
	window time.Duration
}

// timer brackets the store calls of one operation, so a latency is the
// store's and excludes the generator formatting values and checking reads.
type timer struct{ start, end time.Time }

func (c *timer) begin() { c.start = time.Now() }
func (c *timer) stop()  { c.end = time.Now() }

func (r *inproc) worker(w int, s *stream, stop *atomic.Bool, t *tally) {
	var key, vbuf []byte
	// A batch holds its entries' slices until Write returns, so each
	// entry gets its own buffers.
	var bkeys, bvals [batchSize][]byte
	var b batch.Batch
	var scanned scanBuf
	n := uint64(0)
	for !stop.Load() {
		rec := s.next()
		t.attempted++
		n++
		var c timer
		var err error
		spanKey := rec.key
		switch rec.kind {
		case opPut:
			idx := own(rec.key, w, r.sp.keys)
			spanKey = idx
			v := r.m.next(idx)
			key = appendKey(key[:0], idx, false)
			vbuf = fillValue(vbuf, r.sp.valueSize, idx, uint16(w), v)
			r.m.begin(w)
			c.begin()
			err = r.db.Put(key, vbuf)
			c.stop()
			r.m.end(w)
			if err == nil {
				r.m.ack(idx, v)
				t.writes++
				t.userBytes += uint64(len(key) + len(vbuf))
			}
		case opBatch:
			b.Reset()
			var idxs [batchSize]uint32
			var vers [batchSize]uint32
			var bytes int
			for i := range idxs {
				idx := own(s.key(), w, r.sp.keys)
				idxs[i], vers[i] = idx, r.m.next(idx)
				bkeys[i] = appendKey(bkeys[i][:0], idx, false)
				bvals[i] = fillValue(bvals[i], r.sp.valueSize, idx, uint16(w), vers[i])
				b.Put(bkeys[i], bvals[i])
				bytes += len(bkeys[i]) + len(bvals[i])
			}
			r.m.begin(w)
			c.begin()
			err = r.db.Write(&b)
			c.stop()
			r.m.end(w)
			if err == nil {
				for i := range idxs {
					r.m.ack(idxs[i], vers[i])
				}
				t.writes++
				t.userBytes += uint64(bytes)
			}
		case opTxn:
			err = r.txn(w, s, t, &c)
		case opGet:
			t.gets++
			err = r.get(rec, &c)
		case opScan:
			err = r.scan(rec, t, &c, &scanned)
		}
		d := c.end.Sub(c.start)
		t.lat[rec.kind].record(sliceOf(c.end.Sub(r.start), r.window), int64(d))
		if rec.kind == opGet && rec.absent && r.traced {
			t.absent.record(int64(d))
		}
		if r.traced && n%spanSample == 0 {
			t.spans = append(t.spans, opSpan{kind: rec.kind, key: spanKey, start: int64(c.start.Sub(r.epoch)), end: int64(c.end.Sub(r.epoch))})
		}
		if err != nil {
			t.fail(err)
		}
	}
}

func (r *inproc) get(rec opRec, c *timer) error {
	key := appendKey(nil, rec.key, rec.absent)
	cutoff, _ := r.m.readStart()
	c.begin()
	v, ok, err := r.db.Get(key)
	c.stop()
	if err != nil {
		return err
	}
	if rec.absent {
		if ok {
			return errors.New("get of a never-written key returned a value")
		}
		return nil
	}
	v = maybeCorrupt(r.corrupt, v)
	return r.m.check(rec.key, v, ok, cutoff)
}

// maybeCorrupt flips one byte of a read value when the countdown set by
// --corrupt-read reaches zero, to prove the checks catch a bad read.
func maybeCorrupt(c *atomic.Int64, v []byte) []byte {
	if c == nil || c.Add(-1) != 0 || len(v) == 0 {
		return v
	}
	v = append([]byte(nil), v...)
	v[len(v)-1] ^= 0xff
	return v
}

// scanBuf holds a scan's pairs, copied out of the iterator so they are
// checked once the scan's timing has stopped: pair i is
// buf[ends[2i-1]:ends[2i]] (key) and buf[ends[2i]:ends[2i+1]] (value).
type scanBuf struct {
	buf  []byte
	ends []int
}

func (b *scanBuf) reset() { b.buf, b.ends = b.buf[:0], b.ends[:0] }

func (b *scanBuf) add(k, v []byte) {
	b.buf = append(b.buf, k...)
	b.ends = append(b.ends, len(b.buf))
	b.buf = append(b.buf, v...)
	b.ends = append(b.ends, len(b.buf))
}

func (b *scanBuf) len() int { return len(b.ends) / 2 }

func (b *scanBuf) pair(i int) (k, v []byte) {
	start := 0
	if i > 0 {
		start = b.ends[2*i-1]
	}
	return b.buf[start:b.ends[2*i]], b.buf[b.ends[2*i]:b.ends[2*i+1]]
}

func (r *inproc) scan(rec opRec, t *tally, c *timer, out *scanBuf) error {
	first := min(int(rec.key), r.sp.keys-scanLen)
	lo := appendKey(nil, uint32(first), false)
	hi := appendKey(nil, uint32(first+scanLen), false)
	_, cutoff := r.m.readStart()
	out.reset()
	c.begin()
	it, err := r.db.iter(lo, hi)
	if err != nil {
		c.stop()
		return err
	}
	for it.First(); it.Valid(); {
		out.add(it.Key(), it.Value())
		if r.traced {
			s := time.Now()
			it.Next()
			t.iterNext.record(int64(time.Since(s)))
		} else {
			it.Next()
		}
	}
	err = it.Err()
	it.Close()
	c.stop()
	if err != nil {
		return err
	}
	if out.len() != scanLen {
		return errors.New("bounded scan returned the wrong number of keys")
	}
	for i := 0; i < out.len(); i++ {
		k, v := out.pair(i)
		idx, absent, ok := parseKey(k)
		if !ok || absent || int(idx) != first+i {
			return errors.New("scan returned an unexpected key " + string(k))
		}
		if err := r.m.check(idx, maybeCorrupt(r.corrupt, v), true, cutoff); err != nil {
			return err
		}
	}
	return nil
}

// txn runs one transaction that reads txnKeys keys and writes txnKeys
// keys. Its reads are timed on their own and recorded as gets: ingest
// runs no other point reads.
func (r *inproc) txn(w int, s *stream, t *tally, c *timer) error {
	var reads [txnKeys]uint32
	var writes [txnKeys]uint32
	var vers [txnKeys]uint32
	var keys [2 * txnKeys][]byte
	var vals [txnKeys][]byte
	var bytes int
	for i := range reads {
		reads[i] = s.key()
		keys[i] = appendKey(nil, reads[i], false)
	}
	for i := range writes {
		writes[i] = own(s.key(), w, r.sp.keys)
		if i > 0 && writes[i] == writes[0] {
			writes[i] = uint32((int(writes[i]) + workers) % r.sp.keys)
		}
		vers[i] = r.m.next(writes[i])
		keys[txnKeys+i] = appendKey(nil, writes[i], false)
		vals[i] = fillValue(nil, r.sp.valueSize, writes[i], uint16(w), vers[i])
		bytes += len(keys[txnKeys+i]) + len(vals[i])
	}
	var got [txnKeys][]byte
	var found [txnKeys]bool
	var readNS [txnKeys]int64
	nread := 0
	_, cutoff := r.m.readStart()
	r.m.begin(w)
	c.begin()
	err := r.db.txn(func(tx txnView) error {
		nread = 0
		for i := range reads {
			t0 := time.Now()
			v, ok, err := tx.Get(keys[i])
			readNS[i] = int64(time.Since(t0))
			if err != nil {
				return err
			}
			nread++
			got[i], found[i] = append([]byte(nil), v...), ok
		}
		for i := range writes {
			if err := tx.Put(keys[txnKeys+i], vals[i]); err != nil {
				return err
			}
		}
		return nil
	})
	c.stop()
	r.m.end(w)
	slice := sliceOf(c.end.Sub(r.start), r.window)
	for i := 0; i < nread; i++ {
		t.lat[opGet].record(slice, readNS[i])
		t.gets++
	}
	if errors.Is(err, clsm.ErrTxnConflict) {
		t.conflicts++
		return nil
	}
	if err != nil {
		return err
	}
	t.commits++
	t.writes++
	t.userBytes += uint64(bytes)
	for i := range writes {
		r.m.ack(writes[i], vers[i])
	}
	for i, idx := range reads {
		if err := r.m.check(idx, maybeCorrupt(r.corrupt, got[i]), found[i], cutoff); err != nil {
			return err
		}
	}
	return nil
}

// runWindow runs the workers for d and returns their merged tally and
// the elapsed wall time.
func (r *inproc) runWindow(streams []*stream, d time.Duration) (*tally, time.Duration) {
	var stop atomic.Bool
	tallies := make([]*tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	r.start, r.window = start, d
	for w := 0; w < workers; w++ {
		tallies[w] = &tally{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w, streams[w], &stop, tallies[w])
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0], elapsed
}

// preload writes version 1 of every key in batches and acknowledges it.
func preload(m *model, keys, valueSize int, write func(b *batch.Batch) error) error {
	var b batch.Batch
	for lo := 0; lo < keys; lo += 256 {
		b.Reset()
		hi := min(lo+256, keys)
		for i := lo; i < hi; i++ {
			idx := uint32(i)
			b.Put(appendKey(nil, idx, false), fillValue(nil, valueSize, idx, uint16(m.owner(idx)), 1))
		}
		if err := write(&b); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			m.issued[i].Store(1)
			m.ack(uint32(i), 1)
		}
	}
	return nil
}

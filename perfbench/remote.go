package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"clsm/clsmclient"
	"clsm/internal/batch"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/server"
)

// remote drives clsmclient → internal/server → store over loopback TCP,
// open loop: each of the two generator goroutines owns one connection
// and sends on a seeded Poisson schedule (arrival counts per 1 ms tick),
// with at most sp.inflight
// requests outstanding; each outstanding request is carried by a
// short-lived goroutine blocked in the synchronous client call.
type remote struct {
	sp      spec
	m       *model
	clients [workers]*clsmclient.Client
	traced  bool
	epoch   time.Time
	corrupt *atomic.Int64
	busy    []atomic.Bool // a write to this key is in flight
	puts    [workers]uint64
}

func newRemote(sp spec, m *model) *remote {
	return &remote{sp: sp, m: m, busy: make([]atomic.Bool, sp.keys)}
}

// claim returns the first key at or after idx owned by w with no write in
// flight and marks it busy. Keeping one write per key in flight keeps
// each key's versions acknowledged in issue order.
func (r *remote) claim(idx uint32, w int) uint32 {
	i := own(idx, w, r.sp.keys)
	for !r.busy[i].CompareAndSwap(false, true) {
		i = uint32((int(i) + workers) % r.sp.keys)
	}
	return i
}

// write is a prepared mutation: its keys, versions and entries.
type write struct {
	idx, ver []uint32
	b        clsmclient.Batch
	k, v     []byte // the entry of a single-key write
	bytes    int
}

func (r *remote) prepare(w int, idxs []uint32, size int) *write {
	wr := &write{idx: idxs, ver: make([]uint32, len(idxs))}
	for i, idx := range idxs {
		wr.ver[i] = r.m.next(idx)
		wr.k = appendKey(nil, idx, false)
		wr.v = fillValue(nil, size, idx, uint16(w), wr.ver[i])
		wr.b.Put(wr.k, wr.v)
		wr.bytes += len(wr.k) + len(wr.v)
	}
	return wr
}

// finish settles a write: clear its in-flight slot, then acknowledge on
// success, then release its keys.
func (r *remote) finish(wr *write, slot int, err error) {
	r.m.end(slot)
	if err == nil {
		for i := range wr.idx {
			r.m.ack(wr.idx[i], wr.ver[i])
		}
	}
	for _, idx := range wr.idx {
		r.busy[idx].Store(false)
	}
}

// runWindow runs both generators for d and returns the merged tally.
func (r *remote) runWindow(streams []*stream, d time.Duration) (*tally, time.Duration) {
	tallies := make([]*tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < workers; w++ {
		tallies[w] = &tally{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.generate(w, streams[w], start, end, tallies[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0], elapsed
}

func (r *remote) generate(w int, s *stream, start, end time.Time, t *tally) {
	ctx := context.Background()
	c := r.clients[w]
	slots := make(chan int, r.sp.inflight) // semaphore of in-flight slot ids
	for j := 0; j < r.sp.inflight; j++ {
		slots <- w*r.sp.inflight + j
	}
	var mu sync.Mutex // guards t against the request goroutines
	var reqs sync.WaitGroup
	for sched := start; sched.Before(end); sched = sched.Add(tick) {
		time.Sleep(time.Until(sched))
		for n := s.arrivals(); n > 0; n-- {
			slot := <-slots
			sent := time.Now()
			if !sent.Before(end) {
				// Overloaded: the backlog outlived the window. Requests
				// still unsent are dropped; their lateness so far shows it.
				slots <- slot
				reqs.Wait()
				return
			}
			rec := s.next()
			op := r.op(w, s, rec)
			reqs.Add(1)
			go func(sched, sent time.Time) {
				defer reqs.Done()
				res := op(ctx, c, slot)
				done := time.Now()
				late, lat := openLoopTimes(int64(sched.Sub(r.epoch)), int64(sent.Sub(r.epoch)), int64(done.Sub(r.epoch)))
				mu.Lock()
				t.attempted++
				t.lat[rec.kind].record(sliceOf(sched.Sub(start), end.Sub(start)), lat)
				t.late.record(late)
				if res.err != nil {
					t.fail(res.err)
				} else if res.write {
					t.writes++
					t.userBytes += uint64(res.bytes)
				}
				if rec.kind == opGet {
					t.gets++
				}
				if r.traced {
					t.spans = append(t.spans, opSpan{kind: rec.kind, key: res.key, version: res.ver,
						start: int64(sent.Sub(r.epoch)), end: int64(done.Sub(r.epoch))})
				}
				mu.Unlock()
				slots <- slot
			}(sched, sent)
		}
	}
	reqs.Wait()
}

type result struct {
	err      error
	write    bool
	bytes    int
	key, ver uint32 // first key written or read, for linking spans
}

// op prepares one request on the generator goroutine (so versions and
// key claims follow the stream's order) and returns the call to make.
func (r *remote) op(w int, s *stream, rec opRec) func(context.Context, *clsmclient.Client, int) result {
	switch rec.kind {
	case opPut:
		idx := r.claim(rec.key, w)
		r.puts[w]++
		size := r.sp.valueSize
		if r.puts[w]%uint64(r.sp.largeEvery) == 0 {
			size = r.sp.largeValue
		}
		wr := r.prepare(w, []uint32{idx}, size)
		return func(ctx context.Context, c *clsmclient.Client, slot int) result {
			r.m.begin(slot)
			err := c.Put(ctx, wr.k, wr.v)
			r.finish(wr, slot, err)
			return result{err: err, write: true, bytes: wr.bytes, key: idx, ver: wr.ver[0]}
		}
	case opBatch:
		idxs := make([]uint32, batchSize)
		for i := range idxs {
			idxs[i] = r.claim(s.key(), w)
		}
		wr := r.prepare(w, idxs, r.sp.valueSize)
		return func(ctx context.Context, c *clsmclient.Client, slot int) result {
			r.m.begin(slot)
			err := c.Write(ctx, &wr.b)
			r.finish(wr, slot, err)
			return result{err: err, write: true, bytes: wr.bytes, key: idxs[0], ver: wr.ver[0]}
		}
	default: // opGet
		idx := rec.key
		return func(ctx context.Context, c *clsmclient.Client, _ int) result {
			cutoff, _ := r.m.readStart()
			v, ok, err := c.Get(ctx, appendKey(nil, idx, false))
			if err == nil {
				err = r.m.check(idx, maybeCorrupt(r.corrupt, v), ok, cutoff)
			}
			return result{err: err, key: idx}
		}
	}
}

// engineSpan is one call the server made into the engine.
type engineSpan struct {
	write      bool
	start, end int64
	ids        []uint64 // written (key<<32 | version), or read key indexes
}

// spanEngine is the server.Engine the traced run hands to the server: it
// records a span around every engine call, tagged with the value ids it
// wrote or the keys it read, so client requests can be linked to it.
type spanEngine struct {
	server.Engine
	epoch time.Time
	mu    sync.Mutex
	spans []engineSpan
}

func (e *spanEngine) add(write bool, start time.Time, ids []uint64) {
	end := time.Now()
	e.mu.Lock()
	e.spans = append(e.spans, engineSpan{write: write, start: int64(start.Sub(e.epoch)), end: int64(end.Sub(e.epoch)), ids: ids})
	e.mu.Unlock()
}

func writeIDs(b *batch.Batch) []uint64 {
	ids := make([]uint64, 0, b.Len())
	for _, e := range b.Entries() {
		if id, err := decodeValue(e.Value); err == nil {
			ids = append(ids, uint64(id.idx)<<32|uint64(id.version))
		}
	}
	return ids
}

func (e *spanEngine) WriteCtx(ctx context.Context, b *batch.Batch) error {
	t := time.Now()
	err := e.Engine.WriteCtx(ctx, b)
	e.add(true, t, writeIDs(b))
	return err
}

func (e *spanEngine) TxnWriteCtx(ctx context.Context, checks []core.ReadCheck, b *batch.Batch) error {
	t := time.Now()
	err := e.Engine.TxnWriteCtx(ctx, checks, b)
	e.add(true, t, writeIDs(b))
	return err
}

func (e *spanEngine) PutCtx(ctx context.Context, key, value []byte) error {
	t := time.Now()
	err := e.Engine.PutCtx(ctx, key, value)
	var ids []uint64
	if id, derr := decodeValue(value); derr == nil {
		ids = []uint64{uint64(id.idx)<<32 | uint64(id.version)}
	}
	e.add(true, t, ids)
	return err
}

func readIDs(keys ...[]byte) []uint64 {
	ids := make([]uint64, 0, len(keys))
	for _, k := range keys {
		if idx, _, ok := parseKey(k); ok {
			ids = append(ids, uint64(idx))
		}
	}
	return ids
}

func (e *spanEngine) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	t := time.Now()
	v, ok, err := e.Engine.GetCtx(ctx, key)
	e.add(false, t, readIDs(key))
	return v, ok, err
}

func (e *spanEngine) MultiGetCtx(ctx context.Context, keys [][]byte) ([]core.Value, error) {
	t := time.Now()
	v, err := e.Engine.MultiGetCtx(ctx, keys)
	e.add(false, t, readIDs(keys...))
	return v, err
}

func (e *spanEngine) NewIterator(opts ...core.IterOptions) (server.Iterator, error) {
	t := time.Now()
	it, err := e.Engine.NewIterator(opts...)
	e.add(false, t, nil)
	return it, err
}

// ShardObservers keeps the server's per-shard Stats behaviour when the
// wrapped engine is sharded.
func (e *spanEngine) ShardObservers() []*obs.Observer {
	if se, ok := e.Engine.(server.ShardedEngine); ok {
		return se.ShardObservers()
	}
	return nil
}

func (e *spanEngine) reset() {
	e.mu.Lock()
	e.spans = nil
	e.mu.Unlock()
}

func (e *spanEngine) recorded() []engineSpan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spans
}

// serverSplit links every client put, get and batch span to the engine
// spans that served it — writes by the value ids the engine call carried,
// reads by key and time — and returns the server's self time per request
// (client span minus the engine spans inside it) and the engine call
// durations.
func serverSplit(client []opSpan, engine []engineSpan) (self, eng *hist) {
	self, eng = &hist{}, &hist{}
	writes := map[uint64]int{}
	reads := map[uint64][]int{}
	for i, e := range engine {
		eng.record(e.end - e.start)
		for _, id := range e.ids {
			if e.write {
				writes[id] = i
			} else {
				reads[id] = append(reads[id], i)
			}
		}
	}
	for _, c := range client {
		parent := span{c.start, c.end}
		var children []span
		switch c.kind {
		case opPut, opBatch:
			if i, ok := writes[uint64(c.key)<<32|uint64(c.version)]; ok {
				children = append(children, span{engine[i].start, engine[i].end})
			}
		case opGet:
			for _, i := range reads[uint64(c.key)] {
				if engine[i].start >= c.start && engine[i].end <= c.end {
					children = append(children, span{engine[i].start, engine[i].end})
				}
			}
		default:
			continue
		}
		if len(children) == 0 {
			continue
		}
		self.record(selfTime(parent, children))
	}
	return self, eng
}

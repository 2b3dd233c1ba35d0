// Package server is the network front end of the store: a TCP server
// speaking the length-prefixed binary protocol of internal/wire
// (docs/NETWORK.md documents the frame layout and semantics).
//
// The design goal is that the paper's single-process concurrency wins —
// group-committed writes, batched reads — survive the hop onto the
// network. Three mechanisms carry that:
//
//   - Pipelining. Every request carries a client-chosen id; each
//     connection runs one reader and one writer goroutine, and requests
//     are handled by a bounded pool of per-request goroutines, so
//     responses complete out of order and a slow Scan never blocks the
//     Puts queued behind it.
//
//   - Cross-connection write coalescing. All mutations (Put, Delete,
//     Write) from all connections funnel into one committer goroutine
//     that merges whatever is currently queued into a single engine
//     batch and commits it with one WriteCtx call — the WAL group commit
//     then amortizes one fsync over every client in the merge, so
//     syncs/op drops below one as soon as two clients write concurrently.
//
//   - Read coalescing. Concurrent point Gets are merged the same way
//     into one engine MultiGet, which pins the component set once for
//     the whole batch.
//
// Engine errors cross the wire as stable wire.ErrorCode values, so
// clsmclient callers keep their errors.Is(err, clsm.ErrReadOnly)
// switches.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"clsm/internal/batch"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/wire"
)

// Engine is the store surface the server needs. *clsm.DB satisfies it
// up to NewIterator, whose concrete return type differs — a two-line
// adapter in the caller bridges it (see cmd/clsm-server); tests
// substitute fakes to script error paths.
type Engine interface {
	PutCtx(ctx context.Context, key, value []byte) error
	DeleteCtx(ctx context.Context, key []byte) error
	WriteCtx(ctx context.Context, b *batch.Batch) error
	TxnWriteCtx(ctx context.Context, checks []core.ReadCheck, b *batch.Batch) error
	GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error)
	MultiGetCtx(ctx context.Context, keys [][]byte) ([]core.Value, error)
	NewIterator(opts ...core.IterOptions) (Iterator, error)
	Health() core.HealthStatus
	Observer() *obs.Observer
}

// Iterator is the scan cursor surface the server needs — satisfied by
// both the single-engine and the sharded merged iterator.
type Iterator interface {
	First()
	Seek(key []byte)
	Next()
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
	Close()
}

// ShardedEngine is the optional capability a hash-partitioned engine
// exposes: per-shard observability substrates. When the engine
// implements it and reports more than one shard, the Stats opcode
// carries a per-shard snapshot list alongside the aggregate, and the
// server keeps its own substrate for server-side instrumentation (such
// an engine's Observer() is a point-in-time aggregate, not a live
// recording target). A one-shard engine's Observer() is live, so the
// server records into it directly, as for any single engine.
type ShardedEngine interface {
	ShardObservers() []*obs.Observer
}

// Config tunes the server. The zero value is ready to use.
type Config struct {
	// MaxBatch caps how many queued requests one committer pass merges
	// into a single engine commit (default 128). Larger batches amortize
	// the WAL sync further but add latency under sustained load.
	MaxBatch int

	// MaxInflight caps concurrently executing requests per connection
	// (default 256). It bounds per-connection memory and is the
	// pipelining depth a client can usefully exceed it.
	MaxInflight int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

// Server serves the wire protocol over TCP for one engine.
type Server struct {
	eng Engine
	cfg Config
	o   *obs.Observer

	// shardObs holds the per-shard observers of a sharded engine (nil
	// for single-engine stores); stats() aggregates them on demand.
	shardObs []*obs.Observer

	baseCtx context.Context
	cancel  context.CancelFunc

	writeCh chan *writeReq
	readCh  chan *readReq

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool

	wg     sync.WaitGroup // connections + coalescer goroutines
	connWG sync.WaitGroup // connections only — Shutdown's drain barrier
}

// New builds a server around eng. Call Serve to accept connections and
// Close to shut down.
func New(eng Engine, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	var shardObs []*obs.Observer
	o := eng.Observer()
	if se, ok := eng.(ShardedEngine); ok {
		if so := se.ShardObservers(); len(so) > 1 {
			// Sharded store: record server-side instrumentation into a
			// dedicated substrate; the engine's per-shard observers are
			// aggregated fresh per Stats request.
			shardObs = so
			o = obs.New()
		}
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg.withDefaults(),
		o:        o,
		shardObs: shardObs,
		baseCtx:  ctx,
		cancel:   cancel,
		writeCh:  make(chan *writeReq),
		readCh:   make(chan *readReq),
		lns:      make(map[net.Listener]struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(2)
	go s.writeCoalescer()
	go s.readCoalescer()
	return s
}

// Serve accepts connections on ln until Close (which returns nil) or a
// listener error (returned). Multiple Serve calls on different listeners
// are allowed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return core.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		s.o.ServerConns.Add(1)
		go s.serveConn(nc)
	}
}

// Close stops accepting, severs every connection, cancels all in-flight
// engine calls, and waits for every goroutine the server started.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: it stops accepting, half-closes
// every connection's read side so no new requests arrive, and waits for
// the requests already in flight to finish and their responses to reach
// the wire. When every connection has drained — or ctx expires, in which
// case the stragglers are severed the Close way and ctx.Err() is
// returned — the coalescers are stopped and all goroutines joined.
// Clients see a clean EOF after their last response instead of a reset
// mid-pipeline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	// Half-close: CloseRead makes the connection's pending ReadFrame
	// return EOF (ending its reading loop) while the write side stays
	// open for the responses still in flight. Connections that cannot
	// half-close (pipes, TLS wrappers) are severed outright — correct,
	// just less graceful.
	for nc := range s.conns {
		if hc, ok := nc.(interface{ CloseRead() error }); ok {
			hc.CloseRead()
		} else {
			nc.Close()
		}
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: abandon grace. Cancel first so handler
		// goroutines parked in submitWrite/submitRead unblock, then
		// sever the sockets under the slow requests.
		s.cancel()
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	s.cancel()
	s.wg.Wait()
	return err
}

// ---- cross-connection coalescers ----

// writeReq is one mutation queued for the shared committer: the entries
// of a Put (one), Delete (one tombstone), or Write (the whole batch —
// merged contiguously, so the engine batch keeps it atomic).
type writeReq struct {
	entries []wire.Entry
	done    chan error // buffered(1); committer never blocks sending
}

// writeCoalescer is the single committer: it merges every mutation
// queued at the moment it wakes — across all connections — into one
// engine batch and commits it with one WriteCtx call, so the WAL group
// commit pays one sync for the whole merge.
func (s *Server) writeCoalescer() {
	defer s.wg.Done()
	for {
		var first *writeReq
		select {
		case <-s.baseCtx.Done():
			return
		case first = <-s.writeCh:
		}
		reqs := []*writeReq{first}
		var b batch.Batch
		appendEntries(&b, first.entries)
	fill:
		for b.Len() < s.cfg.MaxBatch {
			select {
			case r := <-s.writeCh:
				reqs = append(reqs, r)
				appendEntries(&b, r.entries)
			default:
				break fill
			}
		}
		err := s.eng.WriteCtx(s.baseCtx, &b)
		s.o.ServerWriteBatch.RecordValue(uint64(b.Len()))
		for _, r := range reqs {
			r.done <- err
		}
	}
}

func appendEntries(b *batch.Batch, entries []wire.Entry) {
	for _, e := range entries {
		if e.Delete {
			b.Delete(e.Key)
		} else {
			b.Put(e.Key, e.Value)
		}
	}
}

// readReq is one group of point Gets queued for the shared read
// coalescer.
type readReq struct {
	keys [][]byte
	done chan readReply // buffered(1)
}

type readReply struct {
	vals []core.Value // parallel to the request's keys
	err  error
}

// readCoalescer merges concurrent point-Get groups into one engine
// MultiGet, which pins the component set once for the whole merged
// batch, then splits the results back per group.
func (s *Server) readCoalescer() {
	defer s.wg.Done()
	for {
		var first *readReq
		select {
		case <-s.baseCtx.Done():
			return
		case first = <-s.readCh:
		}
		reqs := []*readReq{first}
		n := len(first.keys)
	fill:
		for n < s.cfg.MaxBatch {
			select {
			case r := <-s.readCh:
				reqs = append(reqs, r)
				n += len(r.keys)
			default:
				break fill
			}
		}
		keys := make([][]byte, 0, n)
		for _, r := range reqs {
			keys = append(keys, r.keys...)
		}
		vals, err := s.eng.MultiGetCtx(s.baseCtx, keys)
		s.o.ServerReadBatch.RecordValue(uint64(len(keys)))
		off := 0
		for _, r := range reqs {
			if err != nil {
				r.done <- readReply{err: err}
			} else {
				r.done <- readReply{vals: vals[off : off+len(r.keys)]}
			}
			off += len(r.keys)
		}
	}
}

// submitWrite queues entries on the committer and waits for the merged
// commit; it fails with ErrClosed when the server shuts down first.
func (s *Server) submitWrite(entries []wire.Entry) error {
	req := &writeReq{entries: entries, done: make(chan error, 1)}
	select {
	case s.writeCh <- req:
	case <-s.baseCtx.Done():
		return core.ErrClosed
	}
	select {
	case err := <-req.done:
		return err
	case <-s.baseCtx.Done():
		return core.ErrClosed
	}
}

// submitRead queues a group of point Gets on the read coalescer.
func (s *Server) submitRead(keys [][]byte) ([]core.Value, error) {
	req := &readReq{keys: keys, done: make(chan readReply, 1)}
	select {
	case s.readCh <- req:
	case <-s.baseCtx.Done():
		return nil, core.ErrClosed
	}
	select {
	case rep := <-req.done:
		return rep.vals, rep.err
	case <-s.baseCtx.Done():
		return nil, core.ErrClosed
	}
}

// ---- per-connection machinery ----

// serveConn runs one connection: this goroutine is the frame reader;
// responses fan in through out to a dedicated writer goroutine, and
// request execution happens in goroutines bounded by the inflight
// semaphore — that is what makes completion out-of-order.
//
// The reader batches aggressively: mutations and point Gets are decoded
// inline and accumulated into groups, and a group is submitted — as one
// coalescer handoff, one engine call, and one response buffer — when the
// connection's receive buffer runs dry (the next read would block) or
// the group reaches MaxBatch. A client that pipelines N puts in one
// network chunk therefore costs the server one commit handshake, not N.
// Slow or rare operations (Scan, MultiGet, Stats, undecodable frames)
// each get their own goroutine so they never hold up the groups.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.connWG.Done()
	defer s.o.ServerConns.Add(-1)

	out := make(chan []byte, s.cfg.MaxInflight)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.connWriter(nc, out)
	}()

	sem := make(chan struct{}, s.cfg.MaxInflight)
	var handlers sync.WaitGroup
	r := bufio.NewReaderSize(nc, 64<<10)
	var g reqGroup
reading:
	for {
		id, op, payload, err := wire.ReadFrame(r)
		if err != nil {
			break // EOF, peer gone, or an unrecoverable framing error
		}
		inline := true
		switch wire.Op(op) {
		case wire.OpPut:
			if k, v, derr := wire.DecodePut(payload); derr == nil {
				g.wids = append(g.wids, id)
				g.entries = append(g.entries, wire.Entry{Key: k, Value: v})
			} else {
				inline = false
			}
		case wire.OpDelete:
			if k, derr := wire.DecodeKey(payload); derr == nil {
				g.wids = append(g.wids, id)
				g.entries = append(g.entries, wire.Entry{Delete: true, Key: k})
			} else {
				inline = false
			}
		case wire.OpWrite:
			if entries, derr := wire.DecodeWrite(payload); derr == nil {
				g.wids = append(g.wids, id)
				g.entries = append(g.entries, entries...)
			} else {
				inline = false
			}
		case wire.OpGet:
			if k, derr := wire.DecodeKey(payload); derr == nil {
				g.rids = append(g.rids, id)
				g.keys = append(g.keys, k)
			} else {
				inline = false
			}
		default:
			inline = false
		}
		if !inline {
			// The generic path re-decodes and maps failures to
			// CodeBadRequest.
			if !s.spawn(sem, &handlers, func() {
				s.deliver(out, s.handle(id, op, payload))
			}) {
				break reading
			}
		}
		if r.Buffered() == 0 || len(g.entries) >= s.cfg.MaxBatch || len(g.rids) >= s.cfg.MaxBatch {
			if !s.flushGroups(&g, sem, &handlers, out) {
				break reading
			}
		}
	}
	s.flushGroups(&g, sem, &handlers, out)

	handlers.Wait()
	close(out)
	writerWG.Wait()
	nc.Close()

	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// reqGroup accumulates one connection's inline-decoded requests between
// submissions: mutations (flattened entries, one response id per
// request) and point Gets (one key and response id per request).
type reqGroup struct {
	wids    []uint64
	entries []wire.Entry
	rids    []uint64
	keys    [][]byte
}

// spawn runs fn in a handler goroutine, bounded by the connection's
// inflight semaphore. It reports false when the server is shutting down.
func (s *Server) spawn(sem chan struct{}, handlers *sync.WaitGroup, fn func()) bool {
	select {
	case sem <- struct{}{}:
	case <-s.baseCtx.Done():
		return false
	}
	handlers.Add(1)
	go func() {
		defer func() {
			<-sem
			handlers.Done()
		}()
		fn()
	}()
	return true
}

// flushGroups submits the accumulated write and read groups (each in its
// own bounded goroutine, so the reader keeps reading while they commit)
// and resets the group. It reports false when the server is shutting
// down.
func (s *Server) flushGroups(g *reqGroup, sem chan struct{}, handlers *sync.WaitGroup, out chan<- []byte) bool {
	if len(g.wids) > 0 {
		wids, entries := g.wids, g.entries
		g.wids, g.entries = nil, nil
		if !s.spawn(sem, handlers, func() { s.commitWrites(out, wids, entries) }) {
			return false
		}
	}
	if len(g.rids) > 0 {
		rids, keys := g.rids, g.keys
		g.rids, g.keys = nil, nil
		if !s.spawn(sem, handlers, func() { s.commitReads(out, rids, keys) }) {
			return false
		}
	}
	return true
}

// commitWrites submits one connection's group of mutations to the shared
// committer and answers every member with the group's outcome in a
// single response buffer.
func (s *Server) commitWrites(out chan<- []byte, wids []uint64, entries []wire.Entry) {
	s.o.ServerInflight.Add(int64(len(wids)))
	defer s.o.ServerInflight.Add(int64(-len(wids)))
	err := s.submitWrite(entries)
	code, msg := byte(wire.CodeOK), []byte(nil)
	if err != nil {
		code, msg = byte(wire.Code(err)), []byte(err.Error())
	}
	buf := make([]byte, 0, len(wids)*(9+4+len(msg)))
	for _, id := range wids {
		buf = wire.AppendFrame(buf, id, code, msg)
	}
	s.deliver(out, buf)
}

// commitReads submits one connection's group of point Gets to the shared
// read coalescer and answers every member in a single response buffer.
func (s *Server) commitReads(out chan<- []byte, rids []uint64, keys [][]byte) {
	s.o.ServerInflight.Add(int64(len(rids)))
	defer s.o.ServerInflight.Add(int64(-len(rids)))
	vals, err := s.submitRead(keys)
	buf := make([]byte, 0, len(rids)*32)
	var scratch []byte
	if err != nil {
		code, msg := byte(wire.Code(err)), []byte(err.Error())
		for _, id := range rids {
			buf = wire.AppendFrame(buf, id, code, msg)
		}
	} else {
		for i, id := range rids {
			scratch = wire.AppendGetReply(scratch[:0], vals[i].Data, vals[i].Exists)
			buf = wire.AppendFrame(buf, id, byte(wire.CodeOK), scratch)
		}
	}
	s.deliver(out, buf)
}

// deliver hands a finished response to the writer, giving up when the
// server shuts down (the connection is being torn down anyway).
func (s *Server) deliver(out chan<- []byte, frame []byte) {
	select {
	case out <- frame:
		return
	default:
	}
	select {
	case out <- frame:
	case <-s.baseCtx.Done():
	}
}

// connWriter drains the response channel onto the socket, flushing
// whenever the channel runs empty so pipelined responses batch into few
// syscalls. After a write error it keeps draining (discarding) so
// handlers never block on a dead connection.
func (s *Server) connWriter(nc net.Conn, out <-chan []byte) {
	w := bufio.NewWriterSize(nc, 64<<10)
	var werr error
	for frame := range out {
		if werr == nil {
			_, werr = w.Write(frame)
		}
		if werr == nil && len(out) == 0 {
			werr = w.Flush()
		}
	}
	if werr == nil {
		w.Flush()
	}
}

// ---- request handling ----

// handle executes one decoded request and returns the encoded response
// frame. The response status byte is the wire.ErrorCode; error responses
// carry the error text as payload.
func (s *Server) handle(id uint64, op byte, payload []byte) []byte {
	body, err := s.dispatch(wire.Op(op), payload)
	if err != nil {
		code := wire.Code(err)
		if errors.Is(err, errBadRequest) {
			code = wire.CodeBadRequest
		}
		return wire.AppendFrame(nil, id, byte(code), []byte(err.Error()))
	}
	return wire.AppendFrame(nil, id, byte(wire.CodeOK), body)
}

// errBadRequest marks protocol-level failures (unknown op, undecodable
// payload) so handle maps them to CodeBadRequest rather than
// CodeInternal.
var errBadRequest = errors.New("bad request")

func badRequest(err error) error {
	return fmt.Errorf("%w: %w", errBadRequest, err)
}

// dispatch decodes and executes one operation, returning the encoded
// success payload.
func (s *Server) dispatch(op wire.Op, payload []byte) ([]byte, error) {
	switch op {
	case wire.OpPut:
		k, v, err := wire.DecodePut(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return nil, s.submitWrite([]wire.Entry{{Key: k, Value: v}})

	case wire.OpDelete:
		k, err := wire.DecodeKey(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return nil, s.submitWrite([]wire.Entry{{Delete: true, Key: k}})

	case wire.OpWrite:
		entries, err := wire.DecodeWrite(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		if len(entries) == 0 {
			return nil, nil // empty batch: trivially committed
		}
		return nil, s.submitWrite(entries)

	case wire.OpGet:
		k, err := wire.DecodeKey(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		vals, err := s.submitRead([][]byte{k})
		if err != nil {
			return nil, err
		}
		return wire.AppendGetReply(nil, vals[0].Data, vals[0].Exists), nil

	case wire.OpMultiGet:
		keys, err := wire.DecodeKeys(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		vals, err := s.eng.MultiGetCtx(s.baseCtx, keys)
		if err != nil {
			return nil, err
		}
		wvals := make([]wire.Value, len(vals))
		for i, v := range vals {
			wvals[i] = wire.Value{Data: v.Data, Exists: v.Exists}
		}
		return wire.AppendValues(nil, wvals), nil

	case wire.OpTxnWrite:
		// Validated commits bypass the write coalescer: coalescing would
		// batch them with unvalidated writes and lose the conflict
		// atomicity (the check and the commit must share one engine txn).
		reads, entries, err := wire.DecodeTxnWrite(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		checks := make([]core.ReadCheck, len(reads))
		for i, r := range reads {
			checks[i] = core.ReadCheck{Key: r.Key, Value: r.Value, Exists: r.Exists}
		}
		var b batch.Batch
		for _, e := range entries {
			if e.Delete {
				b.Delete(e.Key)
			} else {
				b.Put(e.Key, e.Value)
			}
		}
		return nil, s.eng.TxnWriteCtx(s.baseCtx, checks, &b)

	case wire.OpScan:
		start, limit, err := wire.DecodeScan(payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return s.scan(start, limit)

	case wire.OpStats:
		return s.stats()

	default:
		return nil, badRequest(fmt.Errorf("unknown op %d", byte(op)))
	}
}

// scan streams up to limit pairs from start out of a fresh implicit
// snapshot. The whole result is one response frame; wire.MaxFrame bounds
// it, which is why DecodeScan caps limit.
func (s *Server) scan(start []byte, limit int) ([]byte, error) {
	it, err := s.eng.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	pairs := make([]wire.KV, 0, min(limit, 64))
	if len(start) > 0 {
		it.Seek(start)
	} else {
		it.First()
	}
	for ; it.Valid() && len(pairs) < limit; it.Next() {
		k := append([]byte(nil), it.Key()...)
		v := append([]byte(nil), it.Value()...)
		pairs = append(pairs, wire.KV{Key: k, Value: v})
	}
	return wire.AppendPairs(nil, pairs), nil
}

// stats reports the engine's health state plus the full observability
// snapshot as JSON, so a remote client sees exactly what the in-process
// debug endpoint serves. For a sharded engine the top-level snapshot is
// the cross-shard aggregate (server counters included) and a "shards"
// key carries the per-shard snapshots; the top-level shape is unchanged,
// so existing decoders keep working.
func (s *Server) stats() ([]byte, error) {
	st := s.eng.Health()
	msg := ""
	if st.Err != nil {
		msg = st.Err.Error()
	}
	var payload any
	if len(s.shardObs) > 0 {
		perShard := make([]obs.Snapshot, len(s.shardObs))
		for i, so := range s.shardObs {
			perShard[i] = so.Snapshot()
		}
		all := append([]*obs.Observer{s.o}, s.shardObs...)
		payload = struct {
			obs.Snapshot
			Shards []obs.Snapshot `json:"shards,omitempty"`
		}{obs.Aggregate(all...).Snapshot(), perShard}
	} else {
		payload = s.o.Snapshot()
	}
	snap, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendStatus(nil, wire.Status{
		Health:    uint8(st.State),
		HealthMsg: msg,
		Obs:       snap,
	}), nil
}

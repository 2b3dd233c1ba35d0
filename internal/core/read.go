package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"clsm/internal/keys"
	"clsm/internal/memtable"
	"clsm/internal/obs"
	"clsm/internal/syncutil"
	"clsm/internal/version"
	"clsm/internal/vlog"
)

// seekScratch pools the seek-key encodings that Pd lookups build once per
// read. The version search never retains the seek key, so the buffer can
// be recycled as soon as Get returns — keeping the read path free of
// per-operation allocations.
var seekScratch = sync.Pool{New: func() any { return new([]byte) }}

// Get returns the newest value of key, or ok=false if the key is absent or
// deleted. Gets never block (§3.1): component pointers are read with the
// RCU acquire protocol and searched in data-flow order Pm → P'm → Pd,
// which is the reverse of the order the merge updates them, so a
// concurrent rotation can at worst cause the same data to be searched
// twice.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	return db.GetAt(key, keys.MaxTimestamp)
}

// GetCtx is Get with a context. Gets never block (§3.1), so there is no
// wait to interrupt: the context is checked once at entry — a canceled or
// expired ctx fails fast with ctx.Err() — and the read then runs to
// completion. The variant exists so context-threading callers (the network
// server, request-scoped handlers) keep one uniform signature across the
// whole engine surface.
func (db *DB) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	if err := ctxErr(ctx); err != nil {
		return nil, false, err
	}
	return db.Get(key)
}

// MultiGetCtx is MultiGet with a context, checked once at entry (see
// GetCtx: reads never block).
func (db *DB) MultiGetCtx(ctx context.Context, ks [][]byte) ([]Value, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return db.MultiGet(ks)
}

// maxDerefRetries bounds the re-lookup loop a retired-segment dereference
// enters. One retry almost always resolves (the newest version carries the
// relocated pointer); the bound only guards against a pathological chase
// across back-to-back GC cycles.
const maxDerefRetries = 8

// GetAt returns the newest value of key visible at timestamp ts (snapshot
// reads use this with their snapshot time).
func (db *DB) GetAt(key []byte, ts uint64) (value []byte, ok bool, err error) {
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	db.metrics.gets.Add(1)
	// The latency record is an open-coded defer over lock-free atomics:
	// zero allocations on the hot path (obs.TestRecordPathAllocs).
	start := time.Now()
	defer func() { db.obs.Record(obs.OpGet, time.Since(start)) }()
	for attempt := 0; ; attempt++ {
		_, value, ok, err = db.read(key, ts)
		if err != nil && errors.Is(err, vlog.ErrRetired) && attempt < maxDerefRetries {
			// The pointer's segment was GC-retired between the component
			// search and the dereference; the newest version of the key
			// carries the relocated pointer. Re-run the whole lookup.
			continue
		}
		return value, ok, err
	}
}

// view is one reader's pinned component set. Pm and P'm are acquired with
// the RCU protocol when the view is taken; Pd is acquired after them, on
// the first lookup that misses both memtables, so a read served from
// memory never touches the version refcount. Loading in data-flow order
// Pm → P'm → Pd — the reverse of the order a merge updates them (§3.1) —
// means a concurrent rotation can at worst make a version appear in two
// pinned components, never in none. Every point read in the engine takes
// its components through a view, and only through a view.
type view struct {
	db  *DB
	mem *memtable.Table
	imm *memtable.Table
	cur *version.Version
	sk  *[]byte // pooled seek key, taken with cur
}

// pin takes a view. The caller must release it; values a lookup returns
// alias the pinned components, so resolve them before release.
func (db *DB) pin() view {
	mem := syncutil.Acquire[memtable.Table](&db.mem) // Pm before P'm
	imm := syncutil.Acquire[memtable.Table](&db.imm)
	return view{db: db, mem: mem, imm: imm}
}

func (v *view) release() {
	if v.mem != nil {
		v.mem.Unref()
	}
	if v.imm != nil {
		v.imm.Unref()
	}
	if v.cur != nil {
		v.cur.Unref()
		seekScratch.Put(v.sk)
	}
}

// source names the component that served a lookup.
type source uint8

const (
	absent source = iota // no component holds a version at or below ts
	fromPm
	fromImm
	fromPd
)

// hit is one lookup's answer: the newest version's stored bytes (an
// inline value or an encoded value-log pointer, aliasing the component),
// its timestamp and kind, and the component that served it.
type hit struct {
	raw  []byte
	ts   uint64
	kind keys.Kind
	src  source
}

// readTS is the conflict baseline a hit gives InsertRMWKind (Algorithm 3):
// the version's timestamp when Pm served it, and 0 otherwise. Under the
// shared lock the memtable cannot rotate, so every Pm version of the key
// is strictly newer than a version found below Pm: "a version newer than
// ours appeared in Pm" is exactly "any version of the key is in Pm", which
// a baseline of 0 encodes. A retry re-reads through Pm and adopts the
// interfering version.
func (h hit) readTS() uint64 {
	if h.src == fromPm {
		return h.ts
	}
	return 0
}

// lookup is the engine's one point search: the newest version of key at
// or below ts, searched Pm → P'm → Pd. Rotation is a write barrier, so the
// first component holding the key holds its newest version, and a
// tombstone there ends the search like any other version.
func (v *view) lookup(key []byte, ts uint64) (hit, error) {
	if v.mem != nil {
		if raw, vts, kind, ok := v.mem.GetKind(key, ts); ok {
			return hit{raw: raw, ts: vts, kind: kind, src: fromPm}, nil
		}
	}
	if v.imm != nil {
		if raw, vts, kind, ok := v.imm.GetKind(key, ts); ok {
			return hit{raw: raw, ts: vts, kind: kind, src: fromImm}, nil
		}
	}
	if v.cur == nil {
		if v.cur = v.db.versions.Current(); v.cur == nil {
			return hit{}, ErrClosed
		}
		v.sk = seekScratch.Get().(*[]byte)
	}
	*v.sk = keys.AppendSeek((*v.sk)[:0], key, ts)
	raw, vts, kind, ok, err := v.cur.Get(*v.sk)
	if err != nil || !ok {
		return hit{}, err
	}
	return hit{raw: raw, ts: vts, kind: kind, src: fromPd}, nil
}

// resolve turns a hit into user bytes: a tombstone (or a miss) is absent,
// a value-log pointer is dereferenced, and a memtable value is copied out.
// SSTable values alias cached blocks, which the garbage collector keeps
// alive for as long as the caller holds the slice; they are not copied.
// Call it before releasing the view the hit came from.
func (db *DB) resolve(h hit) (value []byte, ok bool, err error) {
	switch {
	case h.src == absent || h.kind == keys.KindDelete:
		return nil, false, nil
	case h.kind == keys.KindValuePtr:
		value, err = db.derefValue(h.raw)
		return value, err == nil, err
	case h.src == fromPd:
		return h.raw, true, nil
	}
	return cloneValue(h.raw), true, nil
}

// read is one point read over a fresh view: pin → lookup → resolve →
// release. The hit is returned for its timestamp and source only; its raw
// bytes are no longer pinned.
func (db *DB) read(key []byte, ts uint64) (h hit, value []byte, ok bool, err error) {
	v := db.pin()
	if h, err = v.lookup(key, ts); err == nil {
		value, ok, err = db.resolve(h)
	}
	v.release()
	return h, value, ok, err
}

// derefValue resolves an encoded value-log pointer to its value bytes,
// recording the dereference latency. The memtable/sstable slice holding the
// pointer encoding is only read before the first I/O, so callers may drop
// their component reference once derefValue returns.
func (db *DB) derefValue(ptr []byte) ([]byte, error) {
	p, pok := vlog.DecodePointer(ptr)
	if !pok {
		return nil, fmt.Errorf("%w: bad pointer encoding (%d bytes)", vlog.ErrCorrupt, len(ptr))
	}
	start := time.Now()
	v, err := db.vlog.Get(p, nil)
	db.obs.VlogDeref.RecordValue(uint64(time.Since(start) / time.Microsecond))
	return v, err
}

// cloneValue copies a memtable value out before the component reference is
// dropped. Memtable arenas are never recycled while referenced, but the
// caller may hold the value long after the memtable is discarded; copying
// keeps Get's contract independent of component lifetime. (Go's GC would
// keep the arena alive through the slice; the copy bounds memory instead.)
func cloneValue(v []byte) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// Has reports whether key is present (not deleted).
func (db *DB) Has(key []byte) (bool, error) {
	_, ok, err := db.Get(key)
	return ok, err
}

// Value is one MultiGet result: the value bytes and whether the key was
// present (not deleted). Data is nil when Exists is false.
type Value struct {
	Data   []byte
	Exists bool
}

// MultiGet returns the newest value of every key in one call. Unlike a
// Get loop it pins the component set — Pm, P'm, and the disk version —
// once for the whole batch and reuses one pooled seek buffer across keys,
// so results are mutually consistent with respect to rotations and version
// installs, and the per-key overhead drops to the searches themselves.
// results[i] corresponds to keys[i]; the first error aborts the batch.
func (db *DB) MultiGet(ks [][]byte) ([]Value, error) {
	return db.multiGet(ks, keys.MaxTimestamp)
}

// MultiGet reads every key as of the snapshot (see DB.MultiGet).
func (s *Snapshot) MultiGet(ks [][]byte) ([]Value, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	return s.db.multiGet(ks, s.ts)
}

func (db *DB) multiGet(ks [][]byte, ts uint64) ([]Value, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if len(ks) == 0 {
		return nil, nil
	}
	db.metrics.gets.Add(uint64(len(ks)))
	start := time.Now()
	defer func() { db.obs.Record(obs.OpMultiGet, time.Since(start)) }()

	// One view for the whole batch, pinned in the same data-flow order as
	// Get.
	v := db.pin()
	defer v.release()
	out := make([]Value, len(ks))
	for i, key := range ks {
		h, err := v.lookup(key, ts)
		if err != nil {
			return nil, err
		}
		data, ok, err := db.resolve(h)
		if errors.Is(err, vlog.ErrRetired) {
			// GC retired the pointer's segment after the batch pinned its
			// components; a fresh single-key lookup re-pins the newest
			// version, which carries the relocated pointer.
			data, ok, err = db.GetAt(key, ts)
		}
		if err != nil {
			return nil, err
		}
		out[i] = Value{Data: data, Exists: ok}
	}
	return out, nil
}

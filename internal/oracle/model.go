package oracle

// Model is a reference key-value store mirrored alongside the real engine
// by correctness harnesses. It records every write with the filesystem
// step interval over which it executed, so a crash image captured at step
// c can be checked against the two recovery invariants:
//
//  1. durability — every operation acknowledged at or before c (its WAL
//     sync completed) is visible with the right value;
//  2. no fabrication — recovery never surfaces a value that was not
//     written at or before c (no torn-record garbage, no half-applied
//     batch).
//
// The model is exact only where writes to a key are issued sequentially
// (the crash workload is single-threaded; the concurrent harness shards
// keys per goroutine), which keeps per-key histories totally ordered.
import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// Op is one model write: a put, or a delete when Tombstone is set.
type Op struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// ModelVersion is one entry in a key's write history.
type ModelVersion struct {
	Value     []byte
	Tombstone bool
	Batch     uint64 // nonzero groups versions written by one atomic batch
	Start     uint64 // fs step observed before the operation was issued
	Ack       uint64 // fs step observed after it returned durably; 0 = never
}

type batchMember struct {
	key string
	idx int
}

// Model mirrors the writes applied to a store.
type Model struct {
	mu       sync.Mutex
	keys     map[string][]ModelVersion
	batches  map[uint64][]batchMember
	batchSeq uint64
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{
		keys:    make(map[string][]ModelVersion),
		batches: make(map[uint64][]batchMember),
	}
}

// Pending is a write recorded in the model but not yet acknowledged by the
// store. Call Ack once the store returns success.
type Pending struct {
	m    *Model
	refs []batchMember
}

// Begin records ops (atomically grouped when more than one) as issued at
// fs step start. The returned Pending must be Acked if and only if the
// store acknowledges the write as durable.
func (m *Model) Begin(start uint64, ops ...Op) *Pending {
	m.mu.Lock()
	defer m.mu.Unlock()
	var batch uint64
	if len(ops) > 1 {
		m.batchSeq++
		batch = m.batchSeq
	}
	p := &Pending{m: m}
	for _, op := range ops {
		vs := m.keys[op.Key]
		idx := len(vs)
		m.keys[op.Key] = append(vs, ModelVersion{
			Value:     append([]byte(nil), op.Value...),
			Tombstone: op.Tombstone,
			Batch:     batch,
			Start:     start,
		})
		if batch != 0 {
			m.batches[batch] = append(m.batches[batch], batchMember{op.Key, idx})
		}
		p.refs = append(p.refs, batchMember{op.Key, idx})
	}
	return p
}

// Ack marks the pending write as acknowledged durable at fs step step.
func (p *Pending) Ack(step uint64) {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	for _, r := range p.refs {
		p.m.keys[r.key][r.idx].Ack = step
	}
}

// VersionsIn returns the indices of key's versions issued in the fs-step
// interval (lo, hi] — the model-side analogue of the engine's commit-time
// validation query ("did any version of this key appear since my
// snapshot?"). The transactional crash workload uses it to bound which
// versions a recovered image may legally surface.
func (m *Model) VersionsIn(key string, lo, hi uint64) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	vs := m.keys[key]
	for i := range vs {
		if s := vs[i].Start; s > lo && s <= hi {
			out = append(out, i)
		}
	}
	return out
}

// Get returns the latest written value of key (exact under sequential
// per-key writes). ok is false if the key was never written or its latest
// version is a tombstone.
func (m *Model) Get(key string) (value []byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.keys[key]
	if len(vs) == 0 || vs[len(vs)-1].Tombstone {
		return nil, false
	}
	return vs[len(vs)-1].Value, true
}

// GetAt returns the value of key after every write issued at or before
// step: the state of key as of a prefix of its history. ok is false if
// no such write exists or the last one is a tombstone.
func (m *Model) GetAt(key string, step uint64) (value []byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.keys[key]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Start > step })
	if i == 0 || vs[i-1].Tombstone {
		return nil, false
	}
	return vs[i-1].Value, true
}

// Keys returns every key the model has seen, sorted.
func (m *Model) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.keys))
	for k := range m.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckCrash validates the state of one key recovered from a crash image
// captured at fs step cutoff. (got, ok) is the recovered read result.
//
// The recovered state must be some version v_i of the key's history with
// i at or after the newest acknowledged-by-cutoff version (invariant 1)
// and Start ≤ cutoff (invariant 2) — or the never-written state when
// nothing was required. matchIdx reports which version matched (-1 for
// never-written); when several match, the newest is preferred, which keeps
// CheckBatchAtomicity free of false alarms. A non-nil error describes the
// invariant violated.
func (m *Model) CheckCrash(key string, got []byte, ok bool, cutoff uint64) (matchIdx int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.keys[key]
	reqIdx := -1
	for i := range vs {
		if vs[i].Ack != 0 && vs[i].Ack <= cutoff {
			reqIdx = i
		}
	}
	matches := func(v *ModelVersion) bool {
		if v.Tombstone {
			return !ok
		}
		return ok && bytes.Equal(got, v.Value)
	}
	for i := len(vs) - 1; i >= reqIdx && i >= 0; i-- {
		if vs[i].Start > cutoff {
			continue
		}
		if matches(&vs[i]) {
			return i, nil
		}
	}
	if reqIdx == -1 && !ok {
		return -1, nil
	}

	// Violation. Classify it for the report.
	if ok {
		for i := range vs {
			if vs[i].Start <= cutoff && !vs[i].Tombstone && bytes.Equal(got, vs[i].Value) {
				// The value was written, but before a version that the
				// cutoff made mandatory: a lost acknowledged write.
				return 0, fmt.Errorf("key %q: recovered stale value %q (version %d) but version %d was durably acked at step %d ≤ cutoff %d",
					key, got, i, reqIdx, vs[reqIdx].Ack, cutoff)
			}
		}
		return 0, fmt.Errorf("key %q: recovered fabricated value %q never written at or before cutoff %d", key, got, cutoff)
	}
	return 0, fmt.Errorf("key %q: missing after recovery, but version %d (%q) was durably acked at step %d ≤ cutoff %d",
		key, reqIdx, vs[reqIdx].Value, vs[reqIdx].Ack, cutoff)
}

// CheckBatchAtomicity takes the per-key matchIdx map produced by calling
// CheckCrash on every model key against one crash image, and reports every
// atomic batch that recovered split: one member's own version visible
// while another member still shows pre-batch state. Because a batch is a
// single WAL record, any such split is a real atomicity violation.
//
// Only a value (non-tombstone) member counts as applied evidence: an
// absent key matches a tombstone member whether or not the batch reached
// the medium, so a tombstone match proves nothing by itself.
func (m *Model) CheckBatchAtomicity(match map[string]int) []error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var errs []error
	for id, members := range m.batches {
		appliedKey, missingKey := "", ""
		for _, mem := range members {
			mi, checked := match[mem.key]
			if !checked {
				continue
			}
			if mi == mem.idx && !m.keys[mem.key][mem.idx].Tombstone {
				appliedKey = mem.key
			} else if mi < mem.idx {
				missingKey = mem.key
			}
		}
		if appliedKey != "" && missingKey != "" {
			errs = append(errs, fmt.Errorf("batch %d split by recovery: member %q applied, member %q still pre-batch", id, appliedKey, missingKey))
		}
	}
	return errs
}

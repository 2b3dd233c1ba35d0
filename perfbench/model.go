package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Keys are "k" + 12 decimal digits of the key index + a suffix byte:
// 'a' for keys the workload writes, 'b' for their never-written
// neighbours. An absent key therefore sorts inside the written range, so
// a Get for it walks the same tables and index blocks a present key does.
const keyLen = 14

func appendKey(dst []byte, idx uint32, absent bool) []byte {
	var b [keyLen]byte
	b[0] = 'k'
	v := idx
	for i := 12; i >= 1; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	b[13] = 'a'
	if absent {
		b[13] = 'b'
	}
	return append(dst, b[:]...)
}

func parseKey(k []byte) (idx uint32, absent bool, ok bool) {
	if len(k) != keyLen || k[0] != 'k' || (k[13] != 'a' && k[13] != 'b') {
		return 0, false, false
	}
	var v uint64
	for _, c := range k[1:13] {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		v = v*10 + uint64(c-'0')
	}
	if v > 1<<32-1 {
		return 0, false, false
	}
	return uint32(v), k[13] == 'b', true
}

// A value describes itself:
//
//	[0:4)   key index
//	[4:6)   writer id
//	[6:10)  version (per-key write sequence, 1 = preload)
//	[10:14) total length
//	[14:18) CRC-32C of every other byte of the value
//	[18:)   filler derived from (key, version)
//
// so a read can say which write produced it, and a torn, misrouted or
// fabricated value fails the check.
const valueHeader = 18

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillValue formats a value of length n into dst (reused when large
// enough) and returns it.
func fillValue(dst []byte, n int, idx uint32, writer uint16, version uint32) []byte {
	if n < valueHeader {
		n = valueHeader
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	v := dst[:n]
	binary.LittleEndian.PutUint32(v[0:], idx)
	binary.LittleEndian.PutUint16(v[4:], writer)
	binary.LittleEndian.PutUint32(v[6:], version)
	binary.LittleEndian.PutUint32(v[10:], uint32(n))
	x := uint64(idx)<<32 | uint64(version) | 1
	for i := valueHeader; i < n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[i:], w[:])
	}
	crc := crc32.Update(0, castagnoli, v[:14])
	crc = crc32.Update(crc, castagnoli, v[valueHeader:])
	binary.LittleEndian.PutUint32(v[14:], crc)
	return v
}

type valueID struct {
	idx     uint32
	writer  uint16
	version uint32
}

// decodeValue checks a value's framing and checksum and returns who wrote it.
func decodeValue(v []byte) (valueID, error) {
	if len(v) < valueHeader {
		return valueID{}, fmt.Errorf("value of %d bytes is shorter than its header", len(v))
	}
	if n := binary.LittleEndian.Uint32(v[10:]); int(n) != len(v) {
		return valueID{}, fmt.Errorf("value is %d bytes, header says %d", len(v), n)
	}
	crc := crc32.Update(0, castagnoli, v[:14])
	crc = crc32.Update(crc, castagnoli, v[valueHeader:])
	if crc != binary.LittleEndian.Uint32(v[14:]) {
		return valueID{}, fmt.Errorf("value checksum mismatch")
	}
	return valueID{
		idx:     binary.LittleEndian.Uint32(v[0:]),
		writer:  binary.LittleEndian.Uint16(v[4:]),
		version: binary.LittleEndian.Uint32(v[6:]),
	}, nil
}

// model is what the generator knows about the store. Every key has one
// owning writer, so a key's versions are issued and acknowledged in
// order. A logical clock orders acknowledgements against read starts:
//
//   - issued[k] is the newest version ever sent for key k; a read that
//     returns anything newer returned a value nobody wrote.
//   - acks[k][v&1] packs (clock<<24 | v) for the two newest acknowledged
//     versions, so a read can ask which version was acknowledged before
//     a given clock value.
//   - inflight[s] is the clock at which the write in slot s started, or
//     0. A snapshot read (scan, transaction read) may legitimately miss
//     writes acknowledged after the oldest write still in flight started,
//     because cLSM's serializable snapshot steps below the oldest active
//     timestamp; its floor is therefore cut at that start.
type model struct {
	owners   int
	clock    atomic.Uint64
	issued   []atomic.Uint32
	acks     [][2]atomic.Uint64
	inflight []atomic.Uint64
}

const versionBits = 24

func newModel(keys, owners, slots int) *model {
	return &model{
		owners:   owners,
		issued:   make([]atomic.Uint32, keys),
		acks:     make([][2]atomic.Uint64, keys),
		inflight: make([]atomic.Uint64, slots),
	}
}

func (m *model) owner(idx uint32) int { return int(idx) % m.owners }

// next issues the next version of idx; only idx's owner calls it.
func (m *model) next(idx uint32) uint32 {
	v := m.issued[idx].Load() + 1
	if v >= 1<<versionBits {
		panic("perfbench: version space of a key exhausted")
	}
	m.issued[idx].Store(v)
	return v
}

// begin marks the write in slot as started at the current clock.
func (m *model) begin(slot int) {
	m.inflight[slot].Store(m.clock.Add(1))
}

// end clears slot; call it before ack so a reader never sees an
// acknowledged write still marked in flight.
func (m *model) end(slot int) { m.inflight[slot].Store(0) }

// ack records that version v of idx was acknowledged.
func (m *model) ack(idx, v uint32) {
	c := m.clock.Add(1)
	m.acks[idx][v&1].Store(c<<versionBits | uint64(v))
}

// readStart returns the cutoff for a point read (everything acknowledged
// before now) and for a snapshot read (additionally cut at the oldest
// write in flight).
func (m *model) readStart() (point, snap uint64) {
	point = m.clock.Add(1)
	snap = point
	for i := range m.inflight {
		if s := m.inflight[i].Load(); s != 0 && s < snap {
			snap = s
		}
	}
	return point, snap
}

// floor is the newest version of idx acknowledged before cutoff, or 0.
func (m *model) floor(idx uint32, cutoff uint64) uint32 {
	var f uint32
	for i := range m.acks[idx] {
		p := m.acks[idx][i].Load()
		if p>>versionBits < cutoff && uint32(p&(1<<versionBits-1)) > f {
			f = uint32(p & (1<<versionBits - 1))
		}
	}
	return f
}

// check verifies a read of key idx that started at cutoff and returned
// (v, ok): the key must exist (every written key is preloaded), the value
// must be intact and belong to idx and its owner, be no older than the
// version acknowledged before the read started, and no newer than any
// version issued.
func (m *model) check(idx uint32, v []byte, ok bool, cutoff uint64) error {
	if !ok {
		return fmt.Errorf("key %d: missing", idx)
	}
	id, err := decodeValue(v)
	if err != nil {
		return fmt.Errorf("key %d: %w", idx, err)
	}
	if id.idx != idx || int(id.writer) != m.owner(idx) {
		return fmt.Errorf("key %d: value belongs to key %d writer %d", idx, id.idx, id.writer)
	}
	if f := m.floor(idx, cutoff); id.version < f {
		return fmt.Errorf("key %d: read version %d, but version %d was acknowledged before the read", idx, id.version, f)
	}
	if iss := m.issued[idx].Load(); id.version > iss {
		return fmt.Errorf("key %d: read version %d, never issued (newest %d)", idx, id.version, iss)
	}
	return nil
}

package main

import (
	"strings"
	"testing"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, idx := range []uint32{0, 7, 123456, 1<<32 - 1} {
		for _, absent := range []bool{false, true} {
			k := appendKey(nil, idx, absent)
			got, gotAbsent, ok := parseKey(k)
			if !ok || got != idx || gotAbsent != absent {
				t.Errorf("parseKey(%q) = %d %v %v", k, got, gotAbsent, ok)
			}
		}
	}
	// An absent key sorts between its written neighbours.
	if !(string(appendKey(nil, 5, false)) < string(appendKey(nil, 5, true)) &&
		string(appendKey(nil, 5, true)) < string(appendKey(nil, 6, false))) {
		t.Error("absent keys do not interleave with written keys")
	}
}

func TestValueCorruptionDetected(t *testing.T) {
	v := fillValue(nil, 256, 42, 1, 7)
	id, err := decodeValue(v)
	if err != nil || id != (valueID{42, 1, 7}) {
		t.Fatalf("decode = %+v, %v", id, err)
	}
	for i := range v {
		c := append([]byte(nil), v...)
		c[i] ^= 0x01
		if _, err := decodeValue(c); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, err := decodeValue(v[:100]); err == nil {
		t.Error("truncated value went undetected")
	}
}

func TestModelCheck(t *testing.T) {
	m := newModel(4, 2, 2)
	// Key 2 is owned by writer 0. Version 1 acknowledged, version 2 issued.
	m.next(2)
	m.ack(2, 1)
	v1 := fillValue(nil, 64, 2, 0, 1)
	v2 := fillValue(nil, 64, 2, 0, 2)
	cut, _ := m.readStart()
	if err := m.check(2, v1, true, cut); err != nil {
		t.Errorf("acknowledged version rejected: %v", err)
	}
	m.next(2)
	if err := m.check(2, v2, true, cut); err != nil {
		t.Errorf("issued, unacknowledged version rejected: %v", err)
	}
	m.ack(2, 2)
	cut, _ = m.readStart()
	if err := m.check(2, v1, true, cut); err == nil || !strings.Contains(err.Error(), "acknowledged before") {
		t.Errorf("stale read accepted: %v", err)
	}
	v9 := fillValue(nil, 64, 2, 0, 9)
	if err := m.check(2, v9, true, cut); err == nil || !strings.Contains(err.Error(), "never issued") {
		t.Errorf("unknown version accepted: %v", err)
	}
	if err := m.check(3, v2, true, cut); err == nil {
		t.Error("value of another key accepted")
	}
	if err := m.check(2, nil, false, cut); err == nil {
		t.Error("missing key accepted")
	}
}

func TestModelSnapshotFloor(t *testing.T) {
	m := newModel(4, 2, 2)
	m.next(1)
	m.ack(1, 1)
	// Writer 0 starts a write on key 0 and is still in flight when writer
	// 1 acknowledges version 2 of key 1: a serializable snapshot taken now
	// may sit below the in-flight write and miss version 2.
	m.begin(0)
	m.next(1)
	m.ack(1, 2)
	point, snap := m.readStart()
	if f := m.floor(1, point); f != 2 {
		t.Errorf("point floor = %d, want 2", f)
	}
	if f := m.floor(1, snap); f != 1 {
		t.Errorf("snapshot floor = %d, want 1", f)
	}
	m.end(0)
	_, snap = m.readStart()
	if f := m.floor(1, snap); f != 2 {
		t.Errorf("snapshot floor with nothing in flight = %d, want 2", f)
	}
}

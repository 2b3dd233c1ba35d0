package scheduler

import (
	"testing"
	"time"
)

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"", "default", "legacy"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if !p.Legacy && (p.InitialRate <= 0 || p.MinRate <= 0 || p.MaxRate < p.InitialRate ||
			p.DecaySlow <= 0 || p.DecaySlow >= 1 || p.DecayStop <= 0 || p.DecayStop >= p.DecaySlow ||
			p.RecoverStep <= 0) {
			t.Fatalf("profile %q has inconsistent parameters: %+v", name, p)
		}
	}
	for _, name := range []string{"warp-speed", "throughput", "latency"} {
		if _, err := ProfileByName(name); err == nil {
			t.Fatalf("unknown profile %q accepted", name)
		}
	}
}

func TestReserveInactiveIsFree(t *testing.T) {
	p, _ := ProfileByName("default")
	th := NewThrottle(p, 0)
	if th.Active() {
		t.Fatal("fresh throttle active without pressure or limit")
	}
	if w := th.Reserve(1 << 20); w != 0 {
		t.Fatalf("inactive Reserve returned wait %v", w)
	}
}

func TestTuneAIMD(t *testing.T) {
	p, _ := ProfileByName("default")
	th := NewThrottle(p, 0)

	// Activation on first pressure.
	r, ch := th.Tune(PressureSlow)
	if ch != ChangeOn || r != p.InitialRate {
		t.Fatalf("first pressure: rate=%d change=%d, want activation at %d", r, ch, p.InitialRate)
	}
	// Multiplicative decrease under sustained pressure, floored at MinRate.
	prev := r
	for i := 0; i < 100; i++ {
		r, _ = th.Tune(PressureStop)
		if r > prev {
			t.Fatalf("rate rose under stop pressure: %d -> %d", prev, r)
		}
		prev = r
	}
	if r != p.MinRate {
		t.Fatalf("sustained stop pressure floored at %d, want MinRate %d", r, p.MinRate)
	}
	// Additive recovery, strictly increasing.
	for i := 0; i < 3; i++ {
		nr, _ := th.Tune(PressureNone)
		if nr != r+p.RecoverStep {
			t.Fatalf("recovery step %d: %d -> %d, want +%d", i, r, nr, p.RecoverStep)
		}
		r = nr
	}
	// Full recovery deactivates.
	for i := 0; i < 1000 && th.Active(); i++ {
		th.Tune(PressureNone)
	}
	if th.Active() {
		t.Fatal("throttle never deactivated after pressure cleared")
	}
}

func TestTuneRespectsUserLimit(t *testing.T) {
	p, _ := ProfileByName("default")
	limit := int64(1 << 20)
	th := NewThrottle(p, limit)
	if r := th.Rate(); r != limit {
		t.Fatalf("rate with user limit = %d, want %d", r, limit)
	}
	// Decay below the limit, then recover: the rate must cap at the limit
	// and stay active forever.
	th.Tune(PressureStop)
	for i := 0; i < 1000; i++ {
		th.Tune(PressureNone)
	}
	if r := th.Rate(); r != limit {
		t.Fatalf("recovered rate = %d, want capped at user limit %d", r, limit)
	}
	if !th.Active() {
		t.Fatal("user-limited throttle deactivated")
	}
}

func TestLegacyProfileNeverAutoActivates(t *testing.T) {
	p, _ := ProfileByName("legacy")
	th := NewThrottle(p, 0)
	for i := 0; i < 10; i++ {
		if r, ch := th.Tune(PressureStop); r != 0 || ch != ChangeNone {
			t.Fatalf("legacy tuner activated: rate=%d change=%d", r, ch)
		}
	}
}

func TestReserveAccumulatesDeficit(t *testing.T) {
	p, _ := ProfileByName("default")
	th := NewThrottle(p, 1<<20) // 1 MiB/s

	// Drain the initial burst allowance, then successive reservations must
	// wait, each longer than the last (shared deficit), capped at
	// maxAdmitWait.
	th.Reserve(128 << 10) // exactly the burst cap (rate/8)
	w1 := th.Reserve(64 << 10)
	w2 := th.Reserve(64 << 10)
	if w1 <= 0 {
		t.Fatalf("deficit reservation waited %v, want > 0", w1)
	}
	if w2 <= w1 {
		t.Fatalf("later reservation waited %v, want more than earlier %v", w2, w1)
	}
	for i := 0; i < 100; i++ {
		if w := th.Reserve(1 << 20); w > maxAdmitWait {
			t.Fatalf("wait %v exceeds maxAdmitWait %v", w, maxAdmitWait)
		}
	}
}

func TestReserveRefillsOverTime(t *testing.T) {
	p, _ := ProfileByName("default")
	th := NewThrottle(p, 8<<20) // 8 MiB/s => 1 MiB burst cap
	th.Reserve(4 << 20)         // deep deficit
	time.Sleep(50 * time.Millisecond)
	// ~400 KiB refilled; a tiny reservation should wait far less than the
	// earlier deficit implied.
	w := th.Reserve(1)
	if w > maxAdmitWait {
		t.Fatalf("wait %v not reduced by refill", w)
	}
}

func TestResetClearsAutoState(t *testing.T) {
	p, _ := ProfileByName("default")
	th := NewThrottle(p, 0)
	th.Tune(PressureStop)
	th.Reserve(1 << 30)
	th.Reset()
	if th.Active() {
		t.Fatal("Reset left an auto-tuned throttle active")
	}
	if w := th.Reserve(1 << 20); w != 0 {
		t.Fatalf("Reserve after Reset waited %v", w)
	}

	// With a user limit, Reset returns to the limit, not to inactive.
	th2 := NewThrottle(p, 42)
	th2.Tune(PressureStop)
	th2.Reset()
	if r := th2.Rate(); r != 42 {
		t.Fatalf("Reset with user limit left rate %d, want 42", r)
	}
}

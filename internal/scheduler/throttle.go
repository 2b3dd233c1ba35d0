package scheduler

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pressure summarizes the debt signal for one tuner step: how urgently the
// background work is backing up behind the write load.
type Pressure uint8

const (
	// PressureNone: the backlog is gone; the rate recovers.
	PressureNone Pressure = iota
	// PressureHold: backlog exists but is draining — the current rate
	// matches the drain rate, so the tuner neither decays nor recovers.
	// Without this state a persistent-but-draining backlog would decay the
	// rate to the floor every tick and throw away disk capacity.
	PressureHold
	// PressureSlow: L0 reached the slowdown trigger, or the memtable pair
	// is full with a merge in flight — debt is growing.
	PressureSlow
	// PressureStop: L0 reached the (historical) stop trigger — the point
	// where the old gate parked writers outright.
	PressureStop
)

// Profile is a named tuning preset for the throttle and scheduler.
type Profile struct {
	Name string

	// InitialRate is the delayed-write rate installed when the throttle
	// activates (bytes/s).
	InitialRate int64
	// MinRate floors the multiplicative decrease so writes always trickle.
	MinRate int64
	// MaxRate is the auto-recovery ceiling: once additive recovery pushes
	// the rate past it under no pressure, the throttle deactivates
	// (unless a user rate limit keeps it permanently active).
	MaxRate int64
	// DecaySlow and DecayStop are the multiplicative factors applied per
	// tuner step under PressureSlow / PressureStop.
	DecaySlow float64
	DecayStop float64
	// RecoverStep is the additive bytes/s regained per step under
	// PressureNone.
	RecoverStep int64

	// Legacy disables the auto-tuner entirely and restores the historical
	// binary gate (1ms slowdown sleep, hard L0-stop wait) in the engine's
	// write path. Kept so the stall benchmark can measure the pre-scheduler
	// cliff in the same binary.
	Legacy bool
}

// Profiles, selected by Options.SchedulerProfile. "default" balances
// recovery speed against stall smoothness; "legacy" is the pre-scheduler
// binary gate, the stall benchmark's A/B baseline.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "", "default":
		return Profile{
			Name:        "default",
			InitialRate: 64 << 20,
			MinRate:     256 << 10,
			MaxRate:     512 << 20,
			DecaySlow:   0.8,
			DecayStop:   0.5,
			RecoverStep: 1 << 20,
		}, nil
	case "legacy":
		return Profile{Name: "legacy", Legacy: true}, nil
	}
	return Profile{}, fmt.Errorf("unknown scheduler profile %q (want default or legacy)", name)
}

// Change reports what a tuner step did, so the engine can emit trace
// events at activation/deactivation and on large adjustments without
// flooding the trace on every 10ms step.
type Change uint8

const (
	ChangeNone   Change = iota
	ChangeOn            // throttle activated
	ChangeOff           // throttle deactivated
	ChangeAdjust        // rate moved past a 2x boundary since last report
)

// maxAdmitWait bounds a single admission wait. Keeping it well under the
// legacy gate's L0-stop parks is the point of the redesign: backpressure is
// delivered as many short delays instead of one cliff, so a writer's
// worst-case latency stays bounded even when the token deficit is deep,
// and throttled writers stay responsive to Close/Resume.
const maxAdmitWait = 250 * time.Millisecond

// Throttle is the write-path admission controller: a token bucket whose
// refill rate is auto-tuned from the scheduler's debt signal, RocksDB
// delayed-write-rate style. While inactive (rate 0) admission is a single
// atomic load — the healthy path stays O(1) and allocation-free.
type Throttle struct {
	profile Profile
	limit   int64 // user cap from Options.WriteRateLimit; 0 = none

	// rate is the admitted bytes/s; 0 means inactive (admit everything).
	rate atomic.Int64

	mu     sync.Mutex
	tokens float64 // may go negative: the current deficit
	last   time.Time
	// lastEmitted is the rate at the last ChangeOn/ChangeAdjust report;
	// adjustments are only reported when the rate doubles or halves
	// relative to it.
	lastEmitted int64
}

// NewThrottle builds the admission controller. A positive limit keeps the
// bucket permanently active at (at most) limit bytes/s; otherwise the
// bucket activates only under pressure.
func NewThrottle(p Profile, limit int64) *Throttle {
	t := &Throttle{profile: p, limit: limit}
	if limit > 0 {
		t.rate.Store(limit)
		t.lastEmitted = limit
	}
	return t
}

// Rate returns the current admitted bytes/s (0 = unthrottled).
func (t *Throttle) Rate() int64 { return t.rate.Load() }

// Active reports whether admission is currently rate-limited.
func (t *Throttle) Active() bool { return t.rate.Load() != 0 }

// Reserve charges n bytes against the bucket and returns how long the
// caller must wait before proceeding (0 = admitted immediately). The
// caller sleeps outside the bucket, so concurrent writers accumulate a
// shared deficit and later arrivals wait proportionally longer — the
// delayed-write behavior, without a queue.
func (t *Throttle) Reserve(n int) time.Duration {
	r := t.rate.Load()
	if r == 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	if !t.last.IsZero() {
		t.tokens += float64(r) * now.Sub(t.last).Seconds()
	}
	t.last = now
	// Cap the burst at 1/8s of rate so an idle period does not bank an
	// unbounded allowance.
	if burst := float64(r) / 8; t.tokens > burst {
		t.tokens = burst
	}
	t.tokens -= float64(n)
	var wait time.Duration
	if t.tokens < 0 {
		wait = time.Duration(-t.tokens / float64(r) * float64(time.Second))
		if wait > maxAdmitWait {
			wait = maxAdmitWait
		}
		// Floor the deficit at half a second of refill: past maxAdmitWait
		// the waits no longer stretch, so letting the deficit grow without
		// bound would only delay recovery after the load stops.
		if floor := -float64(r) / 2; t.tokens < floor {
			t.tokens = floor
		}
	}
	t.mu.Unlock()
	return wait
}

// Tune runs one controller step against the current pressure and returns
// the new rate plus what changed. Called from the engine's planner pass
// (every ~10ms), never concurrently.
func (t *Throttle) Tune(p Pressure) (int64, Change) {
	cur := t.rate.Load()
	if t.profile.Legacy {
		// Legacy keeps the binary gate; the bucket only enforces an
		// explicit user limit, untuned.
		return cur, ChangeNone
	}
	if cur == 0 {
		if p == PressureNone || p == PressureHold {
			return 0, ChangeNone
		}
		nr := t.profile.InitialRate
		if t.limit > 0 && nr > t.limit {
			nr = t.limit
		}
		t.setRate(nr)
		t.mu.Lock()
		t.lastEmitted = nr
		t.mu.Unlock()
		return nr, ChangeOn
	}

	var nr int64
	switch p {
	case PressureStop:
		nr = int64(float64(cur) * t.profile.DecayStop)
	case PressureSlow:
		nr = int64(float64(cur) * t.profile.DecaySlow)
	case PressureHold:
		return cur, ChangeNone
	default:
		nr = cur + t.profile.RecoverStep
	}
	if nr < t.profile.MinRate {
		nr = t.profile.MinRate
	}
	if t.limit > 0 {
		if nr > t.limit {
			nr = t.limit
		}
	} else if p == PressureNone && nr >= t.profile.MaxRate {
		// Fully recovered with no user cap: deactivate.
		t.setRate(0)
		t.mu.Lock()
		t.lastEmitted = 0
		t.tokens = 0
		t.last = time.Time{}
		t.mu.Unlock()
		return 0, ChangeOff
	}
	if nr == cur {
		return cur, ChangeNone
	}
	t.setRate(nr)
	t.mu.Lock()
	emitted := t.lastEmitted
	change := ChangeNone
	if emitted > 0 && (nr >= 2*emitted || nr <= emitted/2) {
		t.lastEmitted = nr
		change = ChangeAdjust
	}
	t.mu.Unlock()
	return nr, change
}

// Reset clears auto-tuned state: the rate returns to the user limit (or
// deactivates without one) and the deficit is forgiven. Called by the
// engine's Resume — the operator's explicit override.
func (t *Throttle) Reset() {
	nr := int64(0)
	if t.limit > 0 {
		nr = t.limit
	}
	t.setRate(nr)
	t.mu.Lock()
	t.tokens = 0
	t.last = time.Time{}
	t.lastEmitted = nr
	t.mu.Unlock()
}

// setRate swaps the published rate, pro-rating the banked tokens so a rate
// change takes effect smoothly rather than instantly refilling or
// emptying the bucket.
func (t *Throttle) setRate(nr int64) {
	t.mu.Lock()
	cur := t.rate.Load()
	if cur > 0 && !t.last.IsZero() {
		// Settle the elapsed interval at the old rate before switching.
		now := time.Now()
		t.tokens += float64(cur) * now.Sub(t.last).Seconds()
		t.last = now
	}
	t.rate.Store(nr)
	t.mu.Unlock()
}

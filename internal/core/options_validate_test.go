package core

import (
	"errors"
	"testing"

	"clsm/internal/version"
)

// TestValidateRejectsNonsense walks every field Validate guards and checks
// both the direct call and the Open-time enforcement wrap ErrInvalidOptions.
func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"negative MemtableSize", func(o *Options) { o.MemtableSize = -1 }},
		{"negative BlockCacheSize", func(o *Options) { o.BlockCacheSize = -1 }},
		{"negative L0SlowdownTrigger", func(o *Options) { o.L0SlowdownTrigger = -1 }},
		{"negative L0StopTrigger", func(o *Options) { o.L0StopTrigger = -2 }},
		{"inverted L0 triggers", func(o *Options) { o.L0SlowdownTrigger = 10; o.L0StopTrigger = 4 }},
		{"negative CompactionThreads", func(o *Options) { o.CompactionThreads = -1 }},
		{"negative SnapshotTTL", func(o *Options) { o.SnapshotTTL = -1 }},
		{"negative RetryBaseDelay", func(o *Options) { o.RetryBaseDelay = -1 }},
		{"negative RetryMaxDelay", func(o *Options) { o.RetryMaxDelay = -1 }},
		{"negative DegradedStallTimeout", func(o *Options) { o.DegradedStallTimeout = -1 }},
		{"negative WriteRateLimit", func(o *Options) { o.WriteRateLimit = -1 }},
		{"unknown SchedulerProfile", func(o *Options) { o.SchedulerProfile = "warp-speed" }},
		{"retired SchedulerProfile", func(o *Options) { o.SchedulerProfile = "latency" }},
		{"negative Disk.L0CompactionTrigger", func(o *Options) { o.Disk.L0CompactionTrigger = -1 }},
		{"negative Disk.BaseLevelBytes", func(o *Options) { o.Disk.BaseLevelBytes = -1 }},
		{"negative Disk.TableFileSize", func(o *Options) { o.Disk.TableFileSize = -1 }},
		{"negative Disk.BlockSize", func(o *Options) { o.Disk.BlockSize = -1 }},
		{"negative Disk.BloomBitsPerKey", func(o *Options) { o.Disk.BloomBitsPerKey = -1 }},
		{"negative ValueThreshold", func(o *Options) { o.ValueThreshold = -1 }},
		{"negative ValueLogSegmentSize", func(o *Options) { o.ValueLogSegmentSize = -1 }},
		{"ValueLogGCRatio above 1", func(o *Options) { o.ValueLogGCRatio = 1.5 }},
		{"ValueThreshold above MemtableSize", func(o *Options) {
			o.MemtableSize = 1 << 10
			o.ValueThreshold = 2 << 10
		}},
		{"ValueThreshold without any log", func(o *Options) {
			o.ValueThreshold = 64
			o.DisableWAL = true
			o.SyncWrites = true
		}},
	}
	for _, tc := range cases {
		var o Options
		tc.mut(&o)
		if err := o.Validate(); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: Validate = %v, want ErrInvalidOptions", tc.name, err)
		}
		if db, err := Open(o); !errors.Is(err, ErrInvalidOptions) {
			if db != nil {
				db.Close()
			}
			t.Errorf("%s: Open = %v, want ErrInvalidOptions", tc.name, err)
		}
	}
}

// TestValidateAcceptsDefaultsAndProfiles: the zero value and every named
// profile are valid configurations.
func TestValidateAcceptsDefaultsAndProfiles(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options: %v", err)
	}
	if err := (Options{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaulted Options: %v", err)
	}
	for _, p := range []string{"", "default", "legacy"} {
		o := Options{SchedulerProfile: p}
		if err := o.Validate(); err != nil {
			t.Errorf("profile %q: %v", p, err)
		}
	}
	// A full sensible configuration passes untouched.
	o := Options{
		MemtableSize:      1 << 20,
		L0SlowdownTrigger: 4,
		L0StopTrigger:     8,
		CompactionThreads: 2,
		WriteRateLimit:    1 << 20,
		SchedulerProfile:  "legacy",
		Disk:              version.Options{}.WithDefaults(),
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("sensible Options: %v", err)
	}
}

// TestOpenRejectsInvertedTriggersAfterDefaults: setting only L0StopTrigger
// below the *defaulted* slowdown trigger is contradictory even though both
// raw fields validate individually — Open must still refuse it.
func TestOpenRejectsInvertedTriggersAfterDefaults(t *testing.T) {
	o := Options{L0StopTrigger: 2} // slowdown defaults to 8
	if err := o.Validate(); err != nil {
		t.Fatalf("raw Validate should pass (stop set, slowdown unset): %v", err)
	}
	db, err := Open(o)
	if !errors.Is(err, ErrInvalidOptions) {
		if db != nil {
			db.Close()
		}
		t.Fatalf("Open = %v, want ErrInvalidOptions after defaults", err)
	}
}

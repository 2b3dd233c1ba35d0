package clsm

import (
	"reflect"
	"testing"
	"time"

	"clsm/internal/obs"
	"clsm/internal/storage"
)

// TestOpenPathEquivalence asserts the acceptance criterion that the struct
// form and the functional-option form produce the identical engine
// configuration: both lower through Options.engineOptions, and a struct
// built field-by-field must equal one built by the With* options.
func TestOpenPathEquivalence(t *testing.T) {
	structOpts := Options{
		Path:                  "x",
		MemtableSize:          8 << 20,
		BlockCacheSize:        16 << 20,
		SyncWrites:            true,
		DisableWAL:            false,
		LinearizableSnapshots: true,
		CompactionThreads:     3,
		SnapshotTTL:           2 * time.Minute,
		Compression:           true,
		WriteRateLimit:        4 << 20,
		SchedulerProfile:      "legacy",
		L0CompactionTrigger:   6,
		L0SlowdownTrigger:     10,
		L0StopTrigger:         14,
		ValueThreshold:        1024,
		ValueLogSegmentSize:   32 << 20,
		ValueLogGCRatio:       0.4,
	}

	fnOpts := Options{Path: "x"}
	for _, apply := range []Option{
		WithMemtableSize(8 << 20),
		WithBlockCacheSize(16 << 20),
		WithSyncWrites(true),
		WithDisableWAL(false),
		WithLinearizableSnapshots(true),
		WithCompactionThreads(3),
		WithSnapshotTTL(2 * time.Minute),
		WithCompression(true),
		WithWriteRateLimit(4 << 20),
		WithSchedulerProfile("legacy"),
		WithL0Triggers(6, 10, 14),
		WithValueThreshold(1024),
		WithValueLogSegmentSize(32 << 20),
		WithValueLogGCRatio(0.4),
	} {
		apply(&fnOpts)
	}

	fs := storage.NewMemFS()
	o := obs.New()
	got := fnOpts.engineOptions(fs, o)
	want := structOpts.engineOptions(fs, o)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine options diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestWithObserverLowering checks the sink option lands in Options.EventSink
// (function values are not comparable, so it is excluded from the
// DeepEqual test above).
func TestWithObserverLowering(t *testing.T) {
	var opts Options
	called := 0
	WithObserver(func(Event) { called++ })(&opts)
	if opts.EventSink == nil {
		t.Fatal("WithObserver did not set EventSink")
	}
	opts.EventSink(Event{})
	if called != 1 {
		t.Fatal("installed sink is not the one provided")
	}
}

// TestEngineOptionDefaults pins the documented defaults: the zero Options
// must lower onto a core config whose WithDefaults resolution matches the
// table in the Options doc comment.
func TestEngineOptionDefaults(t *testing.T) {
	eng := Options{}.engineOptions(storage.NewMemFS(), obs.New()).WithDefaults()
	if eng.MemtableSize != 4<<20 {
		t.Errorf("MemtableSize default = %d, want 4 MiB", eng.MemtableSize)
	}
	if eng.BlockCacheSize != 32<<20 {
		t.Errorf("BlockCacheSize default = %d, want 32 MiB", eng.BlockCacheSize)
	}
	if eng.CompactionThreads != 1 {
		t.Errorf("CompactionThreads default = %d, want 1", eng.CompactionThreads)
	}
	if eng.L0SlowdownTrigger != 8 || eng.L0StopTrigger != 12 {
		t.Errorf("L0 triggers = %d/%d, want 8/12", eng.L0SlowdownTrigger, eng.L0StopTrigger)
	}
	disk := eng.Disk.WithDefaults()
	if disk.L0CompactionTrigger != 4 {
		t.Errorf("L0CompactionTrigger default = %d, want 4", disk.L0CompactionTrigger)
	}
	if disk.BloomBitsPerKey != 0 {
		t.Errorf("BloomBitsPerKey default = %d, want 0 (disabled)", disk.BloomBitsPerKey)
	}
}

// TestOptionRoundTrip applies every With* constructor to a zero Options and
// asserts, by reflection, that it sets exactly its declared field(s) and
// leaves every other field at the zero value — the guard against an option
// silently clobbering an unrelated knob.
func TestOptionRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		opt    Option
		fields []string // fields the option must set, and nothing else
	}{
		{"WithMemtableSize", WithMemtableSize(1), []string{"MemtableSize"}},
		{"WithBlockCacheSize", WithBlockCacheSize(1), []string{"BlockCacheSize"}},
		{"WithSyncWrites", WithSyncWrites(true), []string{"SyncWrites"}},
		{"WithDisableWAL", WithDisableWAL(true), []string{"DisableWAL"}},
		{"WithCompression", WithCompression(true), []string{"Compression"}},
		{"WithCompactionThreads", WithCompactionThreads(2), []string{"CompactionThreads"}},
		{"WithSnapshotTTL", WithSnapshotTTL(time.Second), []string{"SnapshotTTL"}},
		{"WithLinearizableSnapshots", WithLinearizableSnapshots(true), []string{"LinearizableSnapshots"}},
		{"WithWriteRateLimit", WithWriteRateLimit(1), []string{"WriteRateLimit"}},
		{"WithSchedulerProfile", WithSchedulerProfile("legacy"), []string{"SchedulerProfile"}},
		{"WithL0Triggers", WithL0Triggers(1, 2, 3),
			[]string{"L0CompactionTrigger", "L0SlowdownTrigger", "L0StopTrigger"}},
		{"WithObserver", WithObserver(func(Event) {}), []string{"EventSink"}},
		{"WithHealthChange", WithHealthChange(func(HealthChange) {}), []string{"OnHealthChange"}},
	}
	for _, tc := range cases {
		var opts Options
		tc.opt(&opts)
		want := make(map[string]bool, len(tc.fields))
		for _, f := range tc.fields {
			want[f] = true
		}
		v := reflect.ValueOf(opts)
		ty := v.Type()
		for i := 0; i < ty.NumField(); i++ {
			set := !v.Field(i).IsZero()
			if set != want[ty.Field(i).Name] {
				t.Errorf("%s: field %s set=%v, want %v",
					tc.name, ty.Field(i).Name, set, want[ty.Field(i).Name])
			}
		}
	}
}

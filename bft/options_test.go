package bft

import (
	"strings"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/wal"
)

// TestOptionsKnobsReachEngine pins the lowering of every exposed option
// onto the engine config, so none can silently detach.
func TestOptionsKnobsReachEngine(t *testing.T) {
	cfg := EngineConfig(Options{
		Replicas:           7,
		Mode:               BFTPK,
		StateSize:          1 << 15,
		CheckpointInterval: 32,
		LogWindow:          96,
		ViewChangeTimeout:  123 * time.Millisecond,
		ProactiveRecovery:  2 * time.Second,
		Durable:            true,
		Dir:                t.TempDir(),
		SyncEvery:          true,
		Behavior:           WrongResult,
		Seed:               42,
	})
	if cfg.N != 7 || cfg.Mode != BFTPK {
		t.Fatalf("group: N=%d mode=%v", cfg.N, cfg.Mode)
	}
	if cfg.StateSize != 1<<15 {
		t.Fatalf("StateSize=%d", cfg.StateSize)
	}
	if got := uint64(cfg.CheckpointInterval); got != 32 {
		t.Fatalf("K=%d", got)
	}
	if got := uint64(cfg.LogWindow); got != 96 {
		t.Fatalf("L=%d", got)
	}
	if cfg.ViewChangeTimeout != 123*time.Millisecond || cfg.Seed != 42 {
		t.Fatalf("timing knobs: vc=%v seed=%d", cfg.ViewChangeTimeout, cfg.Seed)
	}
	if cfg.WatchdogInterval != 2*time.Second || cfg.KeyRefreshInterval != time.Second {
		t.Fatalf("proactive recovery: watchdog=%v refresh=%v", cfg.WatchdogInterval, cfg.KeyRefreshInterval)
	}
	if !cfg.WALSyncEvery {
		t.Fatal("SyncEvery lowering lost")
	}
	if cfg.Behavior != WrongResult {
		t.Fatalf("Behavior lowering lost: %v", cfg.Behavior)
	}
	// The engine's stage settings are not public options: they always come
	// from pbft.DefaultOptions, untouched.
	if got, want := EngineConfig(Options{}).Opt, pbft.DefaultOptions(); got != want {
		t.Fatalf("engine options: got %+v, want %+v", got, want)
	}

	net := SimNetwork()
	defer net.Close()
	c := NewClient(0, Options{RetryTimeout: 70 * time.Millisecond, MaxRetries: 3}, net)
	defer c.Close()
	if rt, mr := ClientRetry(c); rt != 70*time.Millisecond || mr != 3 {
		t.Fatalf("client knobs: retry=%v max=%d", rt, mr)
	}
	if !panics(func() { NewClient(2, Options{MaxClients: 2}, net) }) {
		t.Fatal("MaxClients=2 admitted client 2")
	}
}

// TestDefaultsLedger checks every default named in an Options doc comment
// against the value the library actually uses, so a comment cannot drift
// from the code that applies the default.
func TestDefaultsLedger(t *testing.T) {
	cfg := EngineConfig(Options{})
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Replicas", cfg.N, 4},
		{"Mode", cfg.Mode, BFT},
		{"StateSize", cfg.StateSize, 64 << 10},
		{"CheckpointInterval", uint64(cfg.CheckpointInterval), uint64(128)},
		{"LogWindow", uint64(cfg.LogWindow), 2 * uint64(cfg.CheckpointInterval)},
		{"ViewChangeTimeout", cfg.ViewChangeTimeout, 250 * time.Millisecond},
		{"ProactiveRecovery", cfg.WatchdogInterval, time.Duration(0)},
		{"SyncEvery", cfg.WALSyncEvery, false},
		{"group-commit interval", wal.DefaultSyncWait, 25 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s default: effective %v, documented %v", c.name, c.got, c.want)
		}
	}

	net := SimNetwork()
	defer net.Close()
	client := NewClient(0, Options{}, net)
	defer client.Close()
	if rt, mr := ClientRetry(client); rt != 150*time.Millisecond || mr != 10 {
		t.Errorf("client defaults: RetryTimeout %v (documented 150ms), MaxRetries %d (documented 10)", rt, mr)
	}
	// MaxClients 128: principals 0..127 exist, 128 does not.
	if panics(func() { NewClient(127, Options{}, net).Close() }) {
		t.Error("MaxClients default: client 127 rejected")
	}
	if !panics(func() { NewClient(128, Options{}, net) }) {
		t.Error("MaxClients default: client 128 admitted")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string // substring of the error, "" = valid
	}{
		{"zero value", Options{}, ""},
		{"explicit group", Options{Replicas: 7}, ""},
		{"too small group", Options{Replicas: 3}, "n ≥ 4"},
		{"window under K", Options{CheckpointInterval: 64, LogWindow: 32}, "water-mark"},
		{"window under defaulted K", Options{LogWindow: 64}, "water-mark"},
		{"window at defaulted K", Options{LogWindow: 128}, ""},
		{"negative knob", Options{MaxClients: -1}, "negative"},
		{"negative duration", Options{RetryTimeout: -time.Second}, "negative"},
		{"SyncEvery without Durable", Options{SyncEvery: true}, "requires Durable"},
		{"SyncEvery with Durable", Options{Durable: true, Dir: "wal", SyncEvery: true}, ""},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

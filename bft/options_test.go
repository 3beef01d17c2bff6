package bft

import (
	"strings"
	"testing"
	"time"

	"repro/internal/pbft"
)

// TestDisableOptimizationsKeepsPipelines is the regression test for the
// DisableOptimizations bug: it used to zero the whole engine Options,
// silently turning off the executor stage and the fetch window — engine
// stages, not Chapter 5 optimizations. A measurement run must keep the
// engine configuration identical and strip only the protocol
// optimizations.
func TestDisableOptimizationsKeepsPipelines(t *testing.T) {
	def := pbft.DefaultOptions()
	cfg := EngineConfig(Options{DisableOptimizations: true})

	if cfg.Opt.DigestReplies || cfg.Opt.TentativeExec || cfg.Opt.ReadOnly ||
		cfg.Opt.Batching || cfg.Opt.SeparateRequests {
		t.Fatalf("a Chapter 5 optimization survived DisableOptimizations: %+v", cfg.Opt)
	}
	if cfg.Opt.ExecPipeline != def.ExecPipeline {
		t.Fatalf("DisableOptimizations changed the executor stage: got %+v, engine default %+v",
			cfg.Opt, def)
	}
	if cfg.Opt.FetchWindow != def.FetchWindow {
		t.Fatalf("DisableOptimizations changed FetchWindow: %d vs %d",
			cfg.Opt.FetchWindow, def.FetchWindow)
	}
}

// TestOptionsKnobsReachEngine pins the lowering of every exposed tuning
// knob onto the engine config, so none can silently detach.
func TestOptionsKnobsReachEngine(t *testing.T) {
	cfg := EngineConfig(Options{
		Replicas:           7,
		CheckpointInterval: 32,
		LogWindow:          96,
		FetchWindow:        3,
		InboxCap:           777,
		StateSize:          1 << 15,
		PageSize:           512,
		ViewChangeTimeout:  123 * time.Millisecond,
		Seed:               42,
		BatchRequests:      24,
		BatchBytes:         1 << 14,
		BatchWait:          700 * time.Microsecond,
		AgreementWindow:    12,
	})
	if cfg.N != 7 {
		t.Fatalf("N=%d", cfg.N)
	}
	if got := uint64(cfg.CheckpointInterval); got != 32 {
		t.Fatalf("K=%d", got)
	}
	if got := uint64(cfg.LogWindow); got != 96 {
		t.Fatalf("L=%d", got)
	}
	if cfg.Opt.FetchWindow != 3 {
		t.Fatalf("fetch window: %+v", cfg.Opt)
	}
	if cfg.InboxCap != 777 || cfg.StateSize != 1<<15 || cfg.PageSize != 512 {
		t.Fatalf("capacity knobs: inbox=%d state=%d page=%d", cfg.InboxCap, cfg.StateSize, cfg.PageSize)
	}
	if cfg.ViewChangeTimeout != 123*time.Millisecond || cfg.Seed != 42 {
		t.Fatalf("timing knobs: vc=%v seed=%d", cfg.ViewChangeTimeout, cfg.Seed)
	}
	if cfg.Opt.BatchRequests != 24 || cfg.Opt.BatchBytes != 1<<14 ||
		cfg.Opt.BatchWait != 700*time.Microsecond || cfg.Opt.AgreementWindow != 12 {
		t.Fatalf("batching knobs: %+v", cfg.Opt)
	}
	if got := EngineConfig(Options{Behavior: WrongResult}).Behavior; got != WrongResult {
		t.Fatalf("Behavior lowering lost: %v", got)
	}
	if cfg := EngineConfig(Options{DisableBatching: true}); cfg.Opt.Batching {
		t.Fatal("DisableBatching did not reach the engine")
	}
	if cfg := EngineConfig(Options{FixedBatching: true}); cfg.Opt.AdaptiveBatch || !cfg.Opt.Batching {
		t.Fatalf("FixedBatching lowering: adaptive=%v batching=%v",
			cfg.Opt.AdaptiveBatch, cfg.Opt.Batching)
	}
	if cfg := EngineConfig(Options{BatchWait: -time.Nanosecond}); cfg.Opt.BatchWait >= 0 {
		t.Fatalf("negative BatchWait (timer disabled) lost: %v", cfg.Opt.BatchWait)
	}
	// Defaults: batching on, adaptive on, thesis cap 16, window 8.
	def := EngineConfig(Options{})
	if !def.Opt.Batching || !def.Opt.AdaptiveBatch || def.Opt.BatchRequests != 16 ||
		def.Opt.AgreementWindow != 8 {
		t.Fatalf("batching defaults: %+v", def.Opt)
	}
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
		{"negative knob", Options{InboxCap: -1}, "negative"},
		{"negative duration", Options{RetryTimeout: -time.Second}, "negative"},
		{"negative batch cap", Options{BatchRequests: -1}, "negative"},
		{"negative byte cap", Options{BatchBytes: -1}, "negative"},
		{"negative BatchWait allowed", Options{BatchWait: -time.Millisecond}, ""},
		{"agreement window over L", Options{AgreementWindow: 300}, "water-mark"},
		{"agreement window over explicit L", Options{CheckpointInterval: 64, LogWindow: 64, AgreementWindow: 65}, "water-mark"},
		{"agreement window at L", Options{AgreementWindow: 256}, ""},
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

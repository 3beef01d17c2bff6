package pbft

import (
	"testing"
	"time"

	"repro/internal/kvservice"
)

// TestSequentialLargeRequestsStress reproduces an intermittent wedge seen
// while measuring latency with 4 KB arguments: sequential 4 KB
// (separately-transmitted) requests from one client must never stall.
func TestSequentialLargeRequestsStress(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 64
	cfg.LogWindow = 128
	cfg.ViewChangeTimeout = 2 * time.Second
	cfg.StatusInterval = 100 * time.Millisecond
	cfg.StateSize = kvservice.MinStateSize + 128*1024
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.RetryTimeout = 250 * time.Millisecond
	cl.MaxRetries = 4 // fail fast instead of wedging for minutes

	blob := make([]byte, 4096)
	for i := 0; i < 300; i++ {
		blob[0] = byte(i)
		if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
			t.Fatalf("op %d wedged: %v", i, err)
		}
	}
}

// TestConcurrentLargeRequestsStress reproduces a wedge seen while
// measuring throughput: several closed-loop clients with
// separately-transmitted 4 KB requests.
func TestConcurrentLargeRequestsStress(t *testing.T) {
	for round := 0; round < 6; round++ {
		cfg := testConfig()
		cfg.CheckpointInterval = 64
		cfg.LogWindow = 128
		cfg.ViewChangeTimeout = 2 * time.Second
		cfg.StatusInterval = 100 * time.Millisecond
		cfg.StateSize = kvservice.MinStateSize + 128*1024
		cfg.Seed = int64(round)
		c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
		c.Start()

		const nClients = 5
		const each = 10
		errs := make(chan error, nClients)
		for i := 0; i < nClients; i++ {
			cl := c.NewClient()
			cl.RetryTimeout = 250 * time.Millisecond
			cl.MaxRetries = 4
			go func() {
				blob := make([]byte, 4096)
				for j := 0; j < each; j++ {
					blob[0] = byte(j)
					if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		failed := false
		for i := 0; i < nClients; i++ {
			if err := <-errs; err != nil {
				failed = true
			}
		}
		if failed {
			for i, r := range c.Replicas {
				r.do(func() {
					t.Logf("replica %d: view=%d active=%v pending=%v seqno=%d lastExec=%d lastCommitted=%d low=%d queue=%d waitingPP=%d reqStore=%d",
						i, r.view, r.active, r.vc.pending, r.seqno, r.lastExec, r.lastCommitted,
						r.log.Low(), r.queue.Len(), len(r.waitingPP), r.log.RequestCount())
					for seq := r.lastExec + 1; seq <= r.lastExec+4; seq++ {
						if s, ok := r.log.Peek(seq); ok {
							bodies := s.PrePrepare != nil && r.haveSeparateBodies(s.PrePrepare)
							t.Logf("  slot %d: view=%d hasD=%v hasPP=%v bodies=%v prepCnt=%d prepared=%v commitCnt=%d committed=%v",
								seq, s.View, s.HasDigest, s.PrePrepare != nil, bodies, s.PrepareCount(r.primary(s.View)), s.Prepared, s.CommitCount(), s.CommittedLocal)
						} else {
							t.Logf("  slot %d: missing", seq)
						}
					}
				})
			}
			c.Stop()
			t.Fatalf("round %d wedged", round)
		}
		c.Stop()
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/bft"
	"repro/bft/kv"
	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/executor"
	"repro/internal/ingress"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/statemachine"
	"repro/internal/wal"
)

// Layer probes: direct timed calls into each internal package's exported
// functions, on inputs taken from the workload's traced run — the datagrams
// replica 0 received, the batch fill it ran at, its operation.

// probeInput is what a traced run hands the probes.
type probeInput struct {
	def       workloadDef
	seed      int64
	captured  [][]byte // datagrams as received by replica 0
	fill      int      // requests per batch, rounded, at least 1
	sendSize  int      // the workload's larger datagram: request or full reply
	stateSize int
	tmpDir    string
	budget    time.Duration // time per probe
}

// perCall times f(n) — n calls of the probed function — over five rounds
// and returns the median round's nanoseconds per call. n is grown until a
// round fills a fifth of the budget, so short and long calls both get a
// stable count.
func perCall(budget time.Duration, f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d >= budget/10 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	rounds := make([]float64, 5)
	for i := range rounds {
		t0 := time.Now()
		f(n)
		rounds[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(rounds)
}

// sink defeats dead-code elimination of probe results.
var sink atomic.Uint64

func runProbes(in probeInput, out map[string]float64) error {
	probeCrypto(in, out)
	probeMessage(in, out)
	probeIngress(in, out)
	probeExecutor(in, out)
	probeCheckpoint(in, out)
	probeEgress(in, out)
	if err := probeTransport(in, out); err != nil {
		return err
	}
	if in.def.Durable {
		if err := probeWAL(in, out); err != nil {
			return err
		}
	}
	if in.def.Name == "sim-incr-c1" {
		if err := probeBaseline(in, out); err != nil {
			return err
		}
	}
	return nil
}

func probeCrypto(in probeInput, out map[string]float64) {
	hdr := make([]byte, 64)
	key := crypto.DeriveKey("session", 1, 0)
	out["crypto.mac_ns"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			m := crypto.ComputeMAC(key, hdr)
			sink.Add(uint64(m[0]))
		}
	})
	ks := replicaKeyStore(0, 0)
	out["crypto.authenticator_ns"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			a := ks.MakeAuthenticator(replicas, hdr)
			sink.Add(uint64(a.MACs[1][0]))
		}
	})
	buf := make([]byte, blobSize)
	out["crypto.digest_ns_per_kib"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			d := crypto.DigestOf(buf)
			sink.Add(uint64(d[0]))
		}
	}) / (blobSize / 1024)
}

// replicaKeyStore builds replica self's key store as the offline set-up
// leaves it: initial session keys with every replica and the first clients
// principals.
func replicaKeyStore(self uint32, clients int) *crypto.KeyStore {
	ks := crypto.NewKeyStore(self)
	for i := 0; i < replicas; i++ {
		ks.InstallInitial(uint32(i))
	}
	for k := 0; k < clients; k++ {
		ks.InstallInitial(uint32(message.ClientIDBase) + uint32(k))
	}
	return ks
}

func probeMessage(in probeInput, out map[string]float64) {
	if len(in.captured) > 0 {
		msgs := make([]message.Message, 0, len(in.captured))
		for _, raw := range in.captured {
			if m, err := message.Unmarshal(raw); err == nil {
				msgs = append(msgs, m)
			}
		}
		out["message.unmarshal_ns_per_msg"] = perCall(in.budget, func(n int) {
			for i := 0; i < n; i++ {
				m, _ := message.Unmarshal(in.captured[i%len(in.captured)])
				if m != nil {
					sink.Add(uint64(m.MsgType()))
				}
			}
		})
		if len(msgs) > 0 {
			out["message.marshal_ns_per_msg"] = perCall(in.budget, func(n int) {
				for i := 0; i < n; i++ {
					sink.Add(uint64(len(msgs[i%len(msgs)].Marshal())))
				}
			})
		}
	}
	digests := make([]crypto.Digest, in.fill)
	for i := range digests {
		digests[i][0] = byte(i)
	}
	out["message.batch_digest_ns"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			d := message.BatchDigest(digests, nil)
			sink.Add(uint64(d[0]))
		}
	})
}

func probeIngress(in probeInput, out map[string]float64) {
	if len(in.captured) == 0 {
		return
	}
	ks := replicaKeyStore(0, in.def.Clients)
	verify := ingress.VerifierFunc(func(m message.Message) (bool, uint64) {
		a := m.AuthTrailer()
		switch a.Kind {
		case message.AuthVector:
			return ks.CheckAuthenticator(uint32(m.Sender()), m.Payload(), a.Vector), 0
		case message.AuthMAC:
			return ks.CheckPointMAC(uint32(m.Sender()), m.Payload(), a.MAC), 0
		}
		return false, 0
	})
	out["ingress.verify_ns_per_msg"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			m, err := message.Unmarshal(in.captured[i%len(in.captured)])
			if err != nil {
				continue
			}
			if ok, _ := verify.Verify(m); ok {
				sink.Add(1)
			}
		}
	})
	var delivered atomic.Int64
	p := ingress.New(0, 0, verify, func(message.Message, bool, uint64) { delivered.Add(1) })
	defer p.Close()
	ns := perCall(in.budget, func(n int) {
		want := delivered.Load() + int64(n)
		for i := 0; i < n; i++ {
			for !p.Submit(in.captured[i%len(in.captured)]) {
				runtime.Gosched() // backpressure: wait for queue headroom
			}
		}
		for delivered.Load() < want {
			runtime.Gosched()
		}
	})
	out["ingress.msgs_per_s"] = 1e9 / ns
}

// workloadOp returns one operation of the workload's kind.
func workloadOp(def workloadDef) []byte {
	switch def.Op {
	case opWrite4k:
		return kvservice.WriteBlob(make([]byte, blobSize))
	case opRead4k:
		return kvservice.ReadBlob(blobSize)
	}
	return kvservice.Incr()
}

type nullOutbound struct{}

func (nullOutbound) SendReply(*message.Reply) {}

func probeExecutor(in probeInput, out map[string]float64) {
	region := statemachine.NewRegion(in.stateSize, 4096)
	svc := kvservice.New(region)
	if in.def.Op == opRead4k {
		svc.Execute(message.ClientIDBase, kvservice.WriteBlob(make([]byte, blobSize)), nil)
	}
	ex := executor.New(executor.Config{
		Self: 0, DigestReplies: true, SmallResult: 32,
		Service: svc, Ckpt: checkpoint.NewManager(region, 16), Cache: executor.NewReplyCache(),
		Out: nullOutbound{}, Report: func(executor.Event) {},
	})
	defer ex.Close()
	op := workloadOp(in.def)
	var seq message.Seq
	var ts uint64
	ns := perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			if in.def.Op == opRead4k {
				ts++
				ex.ExecReadOnly(&message.Request{Client: message.ClientIDBase, Timestamp: ts, Flags: message.FlagReadOnly, Replier: message.NoNode, Op: op}, 0)
				continue
			}
			seq++
			entries := make([]executor.Entry, in.fill)
			for j := range entries {
				ts++
				entries[j].Req = &message.Request{Client: message.ClientIDBase + message.NodeID(j), Timestamp: ts, Replier: message.NoNode, Op: op}
			}
			ex.ExecBatch(seq, 0, nil, false, entries)
			if seq%128 == 0 {
				ex.TakeCheckpoint(seq, 0)
				ex.Discard(seq)
			}
		}
		ex.Sync(func() {}) // drain before the clock stops
	})
	if in.def.Op != opRead4k {
		ns /= float64(in.fill)
	}
	out["executor.batch_ns_per_op"] = ns
}

func probeCheckpoint(in probeInput, out map[string]float64) {
	region := statemachine.NewRegion(in.stateSize, 4096)
	svc := kvservice.New(region)
	mgr := checkpoint.NewManager(region, 16)
	op := workloadOp(in.def)
	var seq message.Seq
	var took []float64
	deadline := time.Now().Add(in.budget)
	for len(took) < 5 || (time.Now().Before(deadline) && len(took) < 200) {
		// One checkpoint interval of the workload: 128 batches.
		for i := 0; i < 128*in.fill; i++ {
			svc.Execute(message.ClientIDBase, op, nil)
		}
		seq += 128
		t0 := time.Now()
		mgr.Take(seq, nil)
		took = append(took, float64(time.Since(t0))/1e6)
		mgr.DiscardBefore(seq)
	}
	out["checkpoint.take_ms"] = median(took)
}

// vectorSealer is the group seal a replica performs per multicast: encode
// the body, MAC it once per replica, append the trailer.
type vectorSealer struct{ ks *crypto.KeyStore }

func (s vectorSealer) Seal(buf []byte, _ egress.Kind, _ message.NodeID, m message.Message) ([]byte, uint64) {
	gen := s.ks.Generation()
	start := len(buf)
	buf = message.AppendPayload(buf, m)
	a := message.Auth{Kind: message.AuthVector, Vector: s.ks.MakeAuthenticator(replicas, buf[start:])}
	return message.AppendAuth(buf, &a), gen
}

func (s vectorSealer) Generation() uint64 { return s.ks.Generation() }

// countTransport discards datagrams, counting them, and releases buffers at
// once like udpnet, so the pipeline's pooled-buffer path is what is timed.
type countTransport struct{ sent atomic.Int64 }

func (t *countTransport) Self() message.NodeID               { return 0 }
func (t *countTransport) Send(message.NodeID, []byte)        { t.sent.Add(1) }
func (t *countTransport) Multicast([]message.NodeID, []byte) { t.sent.Add(1) }
func (t *countTransport) Close()                             {}
func (t *countTransport) SendOwned(_ message.NodeID, p []byte, release func([]byte)) {
	t.sent.Add(1)
	release(p)
}
func (t *countTransport) MulticastOwned(_ []message.NodeID, p []byte, release func([]byte)) {
	t.sent.Add(1)
	release(p)
}

func probeEgress(in probeInput, out map[string]float64) {
	ct := &countTransport{}
	p := egress.New(0, 0, vectorSealer{replicaKeyStore(0, 0)}, ct)
	defer p.Close()
	prep := &message.Prepare{View: 0, Seq: 1, Replica: 0}
	pp := &message.PrePrepare{View: 0, Seq: 1, Replica: 0}
	op := workloadOp(in.def)
	for j := 0; j < in.fill; j++ {
		req := message.Request{Client: message.ClientIDBase + message.NodeID(j), Timestamp: 1, Replier: message.NoNode, Op: op}
		// 255 is the engine's inline threshold (§5.1.5).
		if len(op) > 255 {
			pp.Digests = append(pp.Digests, req.Digest())
		} else {
			pp.Inline = append(pp.Inline, req)
		}
	}
	dsts := []message.NodeID{0, 1, 2, 3}
	out["egress.seal_ns_per_multicast"] = perCall(in.budget, func(n int) {
		want := ct.sent.Load() + int64(n)
		for i := 0; i < n; i++ {
			var m message.Message = prep
			if i%2 == 1 {
				m = pp
			}
			for !p.Multicast(dsts, m, egress.Vector) {
				runtime.Gosched() // backpressure: wait for queue headroom
			}
		}
		for ct.sent.Load() < want {
			runtime.Gosched()
		}
	})
}

func probeTransport(in probeInput, out map[string]float64) error {
	var net bft.Network
	switch in.def.Net {
	case netSim:
		sim := bft.SimNetwork(bft.SimSeed(in.seed))
		defer sim.Close()
		net = sim
	case netUDP:
		udp, err := bft.LoopbackUDP(2, 0)
		if err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
		net = udp
	}
	var got atomic.Int64
	rx := net.Attach(1, func([]byte) { got.Add(1) })
	defer rx.Close()
	tx := net.Attach(0, func([]byte) {})
	defer tx.Close()
	payload := make([]byte, in.sendSize)
	out["transport.send_us"] = perCall(in.budget, func(n int) {
		for i := 0; i < n; i++ {
			tx.Send(1, payload)
		}
	}) / 1e3
	return nil
}

func probeWAL(in probeInput, out map[string]float64) error {
	dir, err := os.MkdirTemp(in.tmpDir, "walprobe-")
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer os.RemoveAll(dir)
	fb, err := wal.NewFileBackend(dir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	rec, err := wal.Recover(fb)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	w, err := wal.Open(fb, rec, wal.Options{})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer w.Close()
	// A pre-prepare record at the workload's fill: the largest record the
	// normal case logs.
	pp := &message.PrePrepare{View: 0, Seq: 1, Replica: 0}
	for j := 0; j < in.fill; j++ {
		pp.Inline = append(pp.Inline, message.Request{Client: message.ClientIDBase + message.NodeID(j), Timestamp: 1, Replier: message.NoNode, Op: workloadOp(in.def)})
	}
	record := wal.Record{Kind: wal.KindPrePrepare, Seq: 1, Body: pp.Marshal()}
	// Rounds stay below the writer's queue capacity, with a barrier
	// between them, so this times the enqueue and not the disk.
	var rounds []float64
	for i := 0; i < 9; i++ {
		const n = 2000
		t0 := time.Now()
		for j := 0; j < n; j++ {
			w.Append(record)
		}
		rounds = append(rounds, float64(time.Since(t0))/n)
		w.Barrier()
	}
	out["wal.append_ns"] = median(rounds)
	var barriers []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		w.Append(record)
		w.Barrier()
		barriers = append(barriers, float64(time.Since(t0))/1e6)
	}
	out["wal.barrier_ms"] = median(barriers)
	return w.Err()
}

// probeBaseline measures the unreplicated server on the same simnet and
// operation as sim-incr-c1: the base of the BFT tax.
func probeBaseline(in probeInput, out map[string]float64) error {
	net := simnet.New(simnet.WithSeed(in.seed))
	defer net.Close()
	srv := baseline.NewServer(net, in.stateSize, 4096, kvservice.Factory)
	srv.Start()
	defer srv.Stop()
	c := baseline.NewClient(message.ClientIDBase, net)
	defer c.Close()
	var lat []float64
	deadline := time.Now().Add(10 * in.budget)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if _, err := c.InvokeContext(context.Background(), kv.Incr(), false); err != nil {
			return fmt.Errorf("baseline probe: %w", err)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	sort.Float64s(lat)
	out["baseline.invoke_p50_ms"] = percentile(lat, 0.5)
	return nil
}

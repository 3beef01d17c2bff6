// Package perfmodel implements the analytic performance model of Chapter 7:
// latency and throughput predictions for read-only and read-write
// operations built from three component models — digest computation, MAC
// computation, and communication — plus protocol constants.
//
// The thesis calibrates the model on its testbed (PII/600, 100 Mbit
// Ethernet); here Calibrate measures the same components on the host and
// the in-process network, so the model predicts what the benchmark should
// measure. Nothing outside this package's tests calls it yet; ROADMAP item
// E2 is to compare its predictions with bench/'s per-layer metrics.
package perfmodel

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Params are the model's calibrated constants (§7.1, §7.2).
type Params struct {
	// Digest computation: D(l) = DigestFixed + l*DigestPerByte (§7.1.1).
	DigestFixed   time.Duration
	DigestPerByte time.Duration

	// MAC computation over a fixed-size header (§7.1.2). Generation and
	// verification are symmetric for HMAC.
	MACOp time.Duration

	// Public-key operations (BFT-PK's substitutes for MACs).
	SigGen    time.Duration
	SigVerify time.Duration

	// Communication: C(l) = CommFixed + l*CommPerByte one way (§7.1.3).
	CommFixed   time.Duration
	CommPerByte time.Duration

	// Execute is the service-execution floor (null op).
	Execute time.Duration

	// Header is the protocol header overhead added to every message.
	Header int

	// N is the replica group size (f = (N-1)/3).
	N int
}

// F returns the fault threshold.
func (p Params) F() int { return quorum.F(p.N) }

// digest returns D(l).
func (p Params) digest(l int) time.Duration {
	return p.DigestFixed + time.Duration(l)*p.DigestPerByte
}

// comm returns the one-way time for an l-byte payload.
func (p Params) comm(l int) time.Duration {
	return p.CommFixed + time.Duration(l+p.Header)*p.CommPerByte
}

// authGen is the cost of generating an authenticator (one MAC per replica,
// §3.2.1) or a signature in PK mode.
func (p Params) authGen(pk bool) time.Duration {
	if pk {
		return p.SigGen
	}
	return time.Duration(p.N-1) * p.MACOp
}

// authVerify is the cost of verifying one inbound message's authentication.
func (p Params) authVerify(pk bool) time.Duration {
	if pk {
		return p.SigVerify
	}
	return p.MACOp
}

// LatencyReadOnly predicts the latency of a read-only a/b operation
// (§7.3.1): one round trip — request multicast, execution, reply.
func (p Params) LatencyReadOnly(a, b int, pk bool) time.Duration {
	t := p.comm(a)                                                   // request to replicas
	t += p.authVerify(pk) + p.digest(a)                              // replica authenticates request
	t += p.Execute                                                   // execute
	t += p.digest(b) + p.authGen(pk)/time.Duration(maxInt(p.N-1, 1)) // reply MAC (single)
	t += p.comm(b)                                                   // reply to client
	t += p.authVerify(pk) + p.digest(b)                              // client checks the certificate
	return t
}

// LatencyReadWrite predicts the latency of a read-write a/b operation
// (§7.3.2). With tentative execution the client sees four message delays
// (request, pre-prepare, prepare, reply); without it the commit phase adds
// a fifth (§5.1.2).
func (p Params) LatencyReadWrite(a, b int, pk, tentative bool) time.Duration {
	f := p.F()
	// Request to primary.
	t := p.comm(a)
	t += p.authVerify(pk) + p.digest(a)
	// Pre-prepare to backups (request inlined).
	t += p.authGen(pk)
	t += p.comm(a)
	t += p.authVerify(pk) + p.digest(a)
	// Prepare round: backups multicast, everyone collects 2f matching.
	t += p.authGen(pk)
	t += p.comm(0)
	t += time.Duration(quorum.MatchingPrepares(f)) * p.authVerify(pk)
	if !tentative {
		// Commit round.
		t += p.authGen(pk)
		t += p.comm(0)
		t += time.Duration(quorum.Strong(f)) * p.authVerify(pk)
	}
	// Execute and reply.
	t += p.Execute
	t += p.digest(b) + p.MACOp
	t += p.comm(b)
	t += p.authVerify(pk) + p.digest(b)
	return t
}

// ThroughputReadWrite predicts sustained operations per second for a/b
// read-write operations with the given batch size (§7.4.2). The primary is
// the bottleneck: per batch it verifies β requests, builds one pre-prepare
// authenticator, processes 2f prepares and 2f+1 commits, executes β
// operations, and sends β replies plus n-1 pre-prepare copies.
func (p Params) ThroughputReadWrite(a, b, batch int, pk bool) float64 {
	f := p.F()
	β := time.Duration(batch)
	perBatch := β * (p.authVerify(pk) + p.digest(a)) // verify requests
	perBatch += p.authGen(pk)                        // pre-prepare auth
	// Serialize n-1 pre-prepare copies onto the wire.
	perBatch += time.Duration(p.N-1) * time.Duration(batch*a+p.Header) * p.CommPerByte
	perBatch += time.Duration(quorum.MatchingPrepares(f)) * p.authVerify(pk) // prepares in
	perBatch += p.authGen(pk)                                                // commit auth
	perBatch += time.Duration(quorum.Strong(f)) * p.authVerify(pk)           // commits in
	perBatch += β * p.Execute                                                // execution
	perBatch += β * (p.digest(b) + p.MACOp +
		time.Duration(b+p.Header)*p.CommPerByte) // replies
	if perBatch <= 0 {
		return 0
	}
	return float64(batch) / perBatch.Seconds()
}

// ThroughputReadOnly predicts read-only throughput (§7.4.1): every replica
// serves reads independently, so aggregate capacity is n times one
// replica's rate, but each replica must verify and answer every client's
// request (quorum of 2f+1 needed), giving n/(2f+1) effective parallelism.
func (p Params) ThroughputReadOnly(a, b int, pk bool) float64 {
	per := p.authVerify(pk) + p.digest(a) + p.Execute +
		p.digest(b) + p.MACOp + time.Duration(b+p.Header)*p.CommPerByte
	if per <= 0 {
		return 0
	}
	single := 1 / per.Seconds()
	return single * float64(p.N) / float64(quorum.Strong(p.F()))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Calibrate measures the component costs on this host and network
// configuration (§8.2's "performance model parameters").
func Calibrate(n int, link simnet.LinkConfig) Params {
	p := Params{N: n, Header: 96}

	// Digest: measure SHA-256 on 0 and 4096 bytes.
	small := make([]byte, 64)
	big := make([]byte, 4096)
	p.DigestFixed = timeOp(2000, func() { crypto.DigestOf(small) })
	d4k := timeOp(2000, func() { crypto.DigestOf(big) })
	if d4k > p.DigestFixed {
		p.DigestPerByte = (d4k - p.DigestFixed) / 4032
	}

	// MAC over a fixed-size header, as replicas compute it: from an
	// installed session key's precomputed states.
	ks := crypto.NewKeyStore(0)
	ks.InstallInitial(1)
	hdr := make([]byte, 96)
	p.MACOp = timeOp(2000, func() { ks.ComputePointMAC(1, hdr) })

	// Signatures.
	kp := crypto.GenerateKeyPair([]byte("calibrate"))
	sig := kp.Sign(hdr)
	p.SigGen = timeOp(200, func() { kp.Sign(hdr) })
	p.SigVerify = timeOp(200, func() { crypto.Verify(kp.Public, hdr, sig) })

	// Communication: measure an in-process round trip on a probe network
	// with the same link model, then halve it.
	p.CommFixed, p.CommPerByte = measureComm(link)
	p.Execute = 200 * time.Nanosecond
	return p
}

func timeOp(iters int, f func()) time.Duration {
	f() // warm up
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return time.Since(start) / time.Duration(iters)
}

// measureComm times round trips for small and large payloads over a probe
// simnet with the given link model.
func measureComm(link simnet.LinkConfig) (fixed, perByte time.Duration) {
	net := simnet.New(simnet.WithSeed(1), simnet.WithDefaults(link))
	defer net.Close()
	pong := make(chan int, 1)
	var echo transport.Transport
	echo = net.Attach(message.NodeID(1), func(b []byte) {
		echo.Send(0, b)
	})
	var ping transport.Transport
	ping = net.Attach(message.NodeID(0), func(b []byte) {
		pong <- len(b)
	})

	rtt := func(size, iters int) time.Duration {
		buf := make([]byte, size)
		// warm up
		ping.Send(1, buf)
		<-pong
		start := time.Now()
		for i := 0; i < iters; i++ {
			ping.Send(1, buf)
			<-pong
		}
		return time.Since(start) / time.Duration(iters)
	}
	smallRT := rtt(64, 200)
	bigRT := rtt(4096, 200)
	fixed = smallRT / 2
	if bigRT > smallRT {
		perByte = (bigRT - smallRT) / (2 * 4032)
	}
	return fixed, perByte
}

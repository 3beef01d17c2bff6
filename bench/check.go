package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/bft/kv"
)

// verify checks the run's outputs after the clients have stopped. It
// returns the safety violations (wrong outputs, whatever the host's speed)
// and the liveness ones (the group did not converge in time) separately:
// either kind fails a run, but only the first is independent of load, so
// only the first is asserted by the smoke test.
func (p *phase) verify() (unsafe, stalled []string) {
	fail := func(format string, args ...any) { unsafe = append(unsafe, fmt.Sprintf(format, args...)) }

	var attempted, acked uint64
	for k := range p.samples {
		attempted += p.issued[k].Load()
		for _, s := range p.samples[k] {
			if s.ok {
				acked++
			}
		}
	}
	if n := p.wrong.Load(); n > 0 {
		fail("%d results contradict the service contract", n)
	}

	c0 := p.b.clients[0]
	switch p.b.def.Op {
	case opIncr:
		res, err := p.b.invoke(c0, kv.Get(), false)
		if err != nil || len(res) != 8 {
			fail("final Get: %v", err)
			break
		}
		final := kv.DecodeU64(res)
		if final < acked || final > attempted {
			fail("final counter %d outside [acknowledged %d, attempted %d]", final, acked, attempted)
		}
		// Every acknowledged Incr returned a distinct value in 1..final.
		seen := make([]bool, final+1)
		for k := range p.samples {
			for _, s := range p.samples[k] {
				if !s.ok {
					continue
				}
				if s.val == 0 || s.val > final || seen[s.val] {
					fail("counter value %d acknowledged twice or out of range", s.val)
					return unsafe, stalled
				}
				seen[s.val] = true
			}
		}
	case opWrite4k:
		res, err := p.b.invoke(c0, kv.ReadBlob(blobSize), false)
		if err != nil || len(res) != blobSize {
			fail("final ReadBlob: %v (%d bytes)", err, len(res))
			break
		}
		if !p.issuedBlobPage(res) {
			fail("final blob page is not made of writes the clients issued")
		}
	case opRead4k:
		// Every read was compared with the set-up blob as it returned.
	}

	// A restarted replica that was slow to catch up under load shows in
	// pbft.rejoin_ms and pbft.rejoin_timeouts; what must hold is that it
	// agrees with its peers once the load is off.
	if msg := p.b.awaitAgreement(agreementLimit); msg != "" {
		stalled = append(stalled, msg)
	}
	return unsafe, stalled
}

// issuedBlobPage reports whether page, the first blobSize bytes of the blob
// area, is what issued writes leave there. The area is not a whole number
// of writes long, so writes wrap round it at shifting offsets and the page
// is a few pieces, each a slice of one write at that write's alignment: the
// tail of the newest wrapped write, then what older writes left. Every
// piece but the last runs to the end of its write (the next write starts
// there) and the last runs to the end of the page, so at each position the
// page must match some payload, at some alignment, all the way to one of
// those two ends. Payloads are random: nothing else matches that far.
func (p *phase) issuedBlobPage(page []byte) bool {
	payloads := append([][]byte{p.setupBlob}, p.payloads...)
	// stampOK validates the 8 bytes a write of payloads[i] starts with.
	stampOK := func(i int, stamp uint64) bool {
		if i == 0 {
			return stamp == 0
		}
		k, seq := int(stamp>>40)-1, stamp&(1<<40-1)
		return k == i-1 && seq >= 1 && seq <= p.issued[k].Load()
	}
	pieces := 0
	for pos := 0; pos < len(page); pieces++ {
		best := 0
		for i, pl := range payloads {
			// j is the payload offset that sits at pos.
			for j := 0; j < blobSize; j++ {
				n := 0
				for pos+n < len(page) && j+n < blobSize && (j+n < 8 || page[pos+n] == pl[j+n]) {
					n++
				}
				if pos+n < len(page) && j+n < blobSize {
					continue // the match broke off inside both
				}
				// A write seen from its first byte shows its stamp.
				if j == 0 && n >= 8 && !stampOK(i, binary.LittleEndian.Uint64(page[pos:])) {
					continue
				}
				best = max(best, n)
			}
		}
		if best == 0 {
			return false
		}
		pos += best
	}
	// Newest wrapped tail, an older tail, an older head; one to spare.
	return pieces <= 4
}

// agreementLimit bounds the wait for the quiescent group to converge. It is
// generous because a stolen processor stretches a state transfer, and a run
// that gives up here is lost to the driver.
const agreementLimit = 60 * time.Second

// checkpointInterval is bft.Options.CheckpointInterval's documented
// default, which every workload runs at.
const checkpointInterval = 128

// awaitAgreement waits for every replica to report an equal state digest
// at an equal execution frontier, and describes the disagreement if the
// group does not get there.
//
// Under the UDP write workload a replica that lost datagrams to a full
// socket buffer falls behind, and (as observed, an engine matter outside
// this program) closes the gap only by state transfer to a stable
// checkpoint, never through the tail behind it. So the wait walks the
// group to the next checkpoint boundary with ordered reads, which change no
// state, and lets the laggard fetch a checkpoint that IS the frontier.
func (b *bed) awaitAgreement(limit time.Duration) string {
	deadline := time.Now().Add(limit)
	for {
		rs := b.live()
		frontier := rs[0].LastExecuted()
		digest := rs[0].StateDigest()
		agree := true
		for _, r := range rs[1:] {
			le := r.LastExecuted()
			if le != frontier || r.StateDigest() != digest {
				agree = false
			}
			frontier = max(frontier, le)
		}
		// Re-read the frontier: a digest taken while a batch executed
		// belongs to neither side of it.
		if agree && rs[0].LastExecuted() == frontier {
			return ""
		}
		if time.Now().After(deadline) {
			msg := "replicas disagree after quiescence:"
			for _, r := range rs {
				msg += fmt.Sprintf(" r%d@%d=%v", r.ID(), r.LastExecuted(), r.StateDigest())
			}
			return msg
		}
		if frontier%checkpointInterval == 0 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if _, err := b.invoke(b.clients[0], kv.Get(), false); err != nil {
			return fmt.Sprintf("quiescence read: %v", err)
		}
	}
}

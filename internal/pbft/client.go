package pbft

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/ingress"
	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// ErrClientClosed is returned by Invoke after Close.
var ErrClientClosed = errors.New("pbft: client closed")

// Client is the proxy of §2.3.2/§6.2: it timestamps requests, sends them to
// the primary (retransmitting to everyone on timeout), and assembles reply
// certificates — weak (f+1) for ordinary replies, quorum (2f+1) for
// tentative and read-only replies.
//
// A client principal has one invocation in flight at a time (§2.3.2:
// replicas order one client's requests by timestamp); concurrent calls
// serialize. Every invocation reuses the client's request, retry timer and
// reply tallies instead of allocating them, but a result is never reused:
// it is a view of the reply datagram and stays the caller's.
type Client struct {
	id   message.NodeID
	dir  *Directory
	mode Mode
	opt  Options
	ks   *crypto.KeyStore
	kp   crypto.KeyPair

	trans transport.Transport
	// pipe decodes and verifies replies on the transport's receive
	// goroutine; out seals requests on the invoking goroutine.
	pipe *ingress.Pipeline
	out  *egress.Pipeline

	// RetryTimeout is the base retransmission timeout; it backs off
	// exponentially like the adaptive scheme of §5.2.
	RetryTimeout time.Duration
	// MaxRetries bounds retransmissions before Invoke fails.
	MaxRetries int

	// sem is a one-slot semaphore (ctx-aware, unlike a mutex) held by the
	// invocation in flight, which alone uses req, timer and nextReplier.
	sem         chan struct{}
	req         message.Request
	timer       *time.Timer
	nextReplier uint64

	mu        sync.Mutex
	timestamp uint64
	view      message.View // latest view observed in replies
	// inv holds the reply tallies every invocation reuses; pending is inv
	// while an invocation waits for its certificate, nil otherwise.
	inv     *pendingInvoke
	pending *pendingInvoke
	closed  bool
}

// replyVote is one replica's latest reply to the pending request; the zero
// value means the replica has not replied.
type replyVote struct {
	digest    crypto.Digest
	tentative bool
	voted     bool
}

// replyResult is the full result one replica returned, checked against its
// digest; the zero value means none.
type replyResult struct {
	digest crypto.Digest
	data   []byte
	ok     bool
}

type pendingInvoke struct {
	timestamp uint64
	need      int           // matching replies required
	votes     []replyVote   // latest vote, by replica
	results   []replyResult // latest full result, by replica
	done      chan []byte
	readOnly  bool
}

// newPendingInvoke sizes the per-replica tallies for a group of n.
func newPendingInvoke(n int) *pendingInvoke {
	return &pendingInvoke{
		votes:   make([]replyVote, n),
		results: make([]replyResult, n),
		done:    make(chan []byte, 1),
	}
}

// reset readies the tallies for the invocation at ts. It drops the last
// invocation's votes and results, and the datagram views they hold, and a
// certificate the last invocation completed after its caller stopped
// waiting, which must not answer this one.
func (p *pendingInvoke) reset(ts uint64, need int, readOnly bool) {
	p.timestamp, p.need, p.readOnly = ts, need, readOnly
	clear(p.votes)
	clear(p.results)
	select {
	case <-p.done:
	default:
	}
}

// demote turns a read-only invocation into a read-write one (§5.1.3): the
// read-only votes no longer count, but the full results still match by
// digest, so they stay.
func (p *pendingInvoke) demote(need int) {
	p.readOnly = false
	p.need = need
	clear(p.votes)
}

// result returns a full result whose digest is d.
func (p *pendingInvoke) result(d crypto.Digest) ([]byte, bool) {
	for _, r := range p.results {
		if r.ok && r.digest == d {
			return r.data, true
		}
	}
	return nil, false
}

// NewClient attaches a client to the network. Session keys with each replica
// derive from the same offline setup replicas use.
func NewClient(id message.NodeID, dir *Directory, net Network, mode Mode, opt Options) *Client {
	c := &Client{
		id:           id,
		dir:          dir,
		mode:         mode,
		opt:          opt,
		ks:           crypto.NewKeyStore(uint32(id)),
		kp:           crypto.GenerateKeyPair(crypto.DeriveKey("client-identity", uint64(id))),
		RetryTimeout: 150 * time.Millisecond,
		MaxRetries:   10,
		sem:          make(chan struct{}, 1),
		timer:        time.NewTimer(time.Hour),
		inv:          newPendingInvoke(dir.N()),
		nextReplier:  uint64(id), // stagger start across clients
	}
	c.timer.Stop()
	dir.Register(id, c.kp.Public)
	for i := 0; i < dir.N(); i++ {
		c.ks.InstallInitial(uint32(i))
	}
	c.pipe = ingress.New(0, 0, ingress.VerifierFunc(c.verifyInbound),
		func(m message.Message, ok bool, _ uint64) {
			if rep, isRep := m.(*message.Reply); isRep && ok {
				c.onReply(rep)
			}
		})
	c.trans = net.Attach(id, func(p []byte) { c.pipe.Submit(p) })
	c.out = egress.New(0, 0, &sealer{mode: mode, n: dir.N(), ks: c.ks, kp: c.kp}, c.trans)
	return c
}

// ID returns the client's principal id.
func (c *Client) ID() message.NodeID { return c.id }

// Close detaches the client from the network.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.out.Close()
	c.trans.Close()
	c.pipe.Close()
}

func (c *Client) f() int { return quorum.F(c.dir.N()) }

// Invoke executes an operation on the replicated service and returns its
// result (§6.2's Byz_invoke). readOnly requests use the single-round-trip
// optimization when the library has it enabled.
//
// The result is a view of the reply datagram that carried it (decoding
// copies nothing). A reply is addressed to this client alone and no one
// else writes its datagram, so the result belongs to the caller.
func (c *Client) Invoke(op []byte, readOnly bool) ([]byte, error) {
	return c.InvokeContext(context.Background(), op, readOnly)
}

// InvokeContext is Invoke with cancellation: the retry loop checks ctx
// between transmissions and while waiting for a reply certificate, so an
// in-flight invocation returns promptly with ctx.Err() when the caller
// cancels or a deadline passes, and a call still waiting for the one in
// flight returns as soon as ctx is done. The client stays usable
// afterwards — the abandoned timestamp is simply never reused, and any
// certificate that completes late is discarded like any other stale reply.
func (c *Client) InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.sem }()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.timestamp++
	ts := c.timestamp
	view := c.view

	useRO := readOnly && c.opt.ReadOnly
	need := quorum.Weak(c.f())
	if useRO {
		need = quorum.Strong(c.f())
	}
	p := c.inv
	p.reset(ts, need, useRO)
	c.pending = p
	c.mu.Unlock()
	defer c.finish()

	// The egress stage seals req into a wire buffer of its own and keeps
	// no reference to it, so one request serves every transmission.
	req := &c.req
	*req = message.Request{
		Client:    c.id,
		Timestamp: ts,
		Replier:   c.pickReplier(),
		Op:        op,
	}
	if useRO {
		req.Flags |= message.FlagReadOnly
	}
	if !c.opt.DigestReplies {
		req.Replier = message.NoNode
	}

	// First transmission: read-only requests and separately transmitted
	// ones (§5.1.5) go to everyone; inline-sized read-write requests go to
	// the believed primary (§2.3.2).
	if useRO || c.opt.separate(len(op)) {
		c.sendRequest(req, message.NoNode)
	} else {
		c.sendRequest(req, c.dir.Primary(view))
	}

	timeout := c.RetryTimeout
	maxBackoff := 8 * c.RetryTimeout // cap the exponential backoff (§5.2)
	c.timer.Reset(timeout)
	for attempt := 0; attempt <= c.MaxRetries; attempt++ {
		select {
		case res := <-p.done:
			return res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.timer.C:
		}
		// Retransmit to all replicas; ask everyone for the full result and
		// demote read-only to read-write (§5.1.3, §5.2).
		req.Replier, req.Flags = message.NoNode, 0
		c.mu.Lock()
		if p.readOnly {
			p.demote(quorum.Weak(c.f()))
		}
		c.mu.Unlock()
		c.sendRequest(req, message.NoNode)
		timeout *= 2 // randomized exponential backoff, deterministic here
		if timeout > maxBackoff {
			timeout = maxBackoff
		}
		c.timer.Reset(timeout)
	}
	return nil, errors.New("pbft: request timed out without a reply certificate")
}

// finish ends the invocation in flight: later replies find nothing
// pending, the timer holds no tick for the next invocation (Stop guarantees
// that since Go 1.23), and the request lets go of the caller's operation.
func (c *Client) finish() {
	c.mu.Lock()
	c.pending = nil
	c.mu.Unlock()
	c.timer.Stop()
	c.req = message.Request{}
}

// pickReplier chooses the designated replier round-robin (load balancing,
// §5.1.1): a per-client counter walks the replicas in strict rotation, so
// over any window of n requests every replica returns exactly one full
// result. (An earlier LCG here skewed replier load through modulo bias.)
func (c *Client) pickReplier() message.NodeID {
	id := message.NodeID(c.nextReplier % uint64(c.dir.N()))
	c.nextReplier++
	return id
}

// sendRequest authenticates and transmits one request: multicast to every
// replica when dst is NoNode, point-send otherwise. Requests always carry
// the full vector authenticator (§5.2) — every replica must be able to
// check its MAC when the primary inlines the request in a pre-prepare — so
// even the point-send to the primary seals as Vector.
func (c *Client) sendRequest(req *message.Request, dst message.NodeID) {
	if dst == message.NoNode {
		c.out.Multicast(c.dir.ReplicaIDs(), req, egress.Vector)
		return
	}
	c.out.Send(dst, req, egress.Vector)
}

// verifyInbound authenticates one decoded message for the ingress stage:
// only replies addressed to this client can verify. The tag is unused —
// clients never rotate their session keys mid-run, so a reply verdict
// cannot go stale the way a replica's can.
func (c *Client) verifyInbound(m message.Message) (bool, uint64) {
	rep, ok := m.(*message.Reply)
	if !ok || rep.Client != c.id {
		return false, 0
	}
	return c.verifyReply(rep), 0
}

// onReply folds one authenticated reply into the pending certificate. rep
// is lent by the ingress stage for the call; the tallies keep its Result,
// a view of the datagram, and copy everything else.
func (c *Client) onReply(rep *message.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldReply(rep)
}

// foldReply is onReply with c.mu held.
func (c *Client) foldReply(rep *message.Reply) {
	if rep.View > c.view {
		c.view = rep.View // track the current primary (§2.3.2)
	}
	p := c.pending
	if p == nil || rep.Timestamp != p.timestamp {
		return
	}
	// verifyReply proved key possession for the claimed sender, not group
	// membership; bound the replica ID before it indexes the tallies.
	if rep.Replica < 0 || int(rep.Replica) >= len(p.votes) {
		return
	}
	if rep.HasResult {
		if crypto.DigestOf(rep.Result) != rep.ResultDigest {
			return // inconsistent reply
		}
		p.results[rep.Replica] = replyResult{digest: rep.ResultDigest, data: rep.Result, ok: true}
	}
	p.votes[rep.Replica] = replyVote{digest: rep.ResultDigest, tentative: rep.Tentative, voted: true}

	// Count votes per digest, each digest once at its first voter.
	// Tentative replies need a quorum; final replies need only a weak
	// certificate — a final vote also supports a tentative count (it is
	// strictly stronger). In read-only mode two digests can complete at
	// once (honest replicas answering from different execution prefixes);
	// the smallest digest with a full result wins, so the accepted result
	// never depends on arrival order.
	strong := quorum.Strong(c.f())
	var best crypto.Digest
	var bestRes []byte
	found := false
	for i, v := range p.votes {
		if !v.voted || counted(p.votes[:i], v.digest) {
			continue
		}
		n, finals := 0, 0
		for _, u := range p.votes[i:] {
			if u.voted && u.digest == v.digest {
				n++
				if !u.tentative {
					finals++
				}
			}
		}
		enough := n >= strong || finals >= p.need
		if p.readOnly {
			enough = n >= p.need
		}
		if !enough || (found && bytes.Compare(v.digest[:], best[:]) >= 0) {
			continue
		}
		// A complete certificate without a full result keeps waiting (a
		// retransmission will request full replies from everyone).
		if res, ok := p.result(v.digest); ok {
			best, bestRes, found = v.digest, res, true
		}
	}
	if found {
		select {
		case p.done <- bestRes:
		default:
		}
	}
}

// counted reports whether some vote in votes is for d.
func counted(votes []replyVote, d crypto.Digest) bool {
	for _, v := range votes {
		if v.voted && v.digest == d {
			return true
		}
	}
	return false
}

func (c *Client) verifyReply(rep *message.Reply) bool {
	if c.mode == ModePK {
		pub, ok := c.dir.PublicKey(rep.Replica)
		if !ok || rep.Auth.Kind != message.AuthSig {
			return false
		}
		return crypto.Verify(pub, rep.Payload(), rep.Auth.Sig)
	}
	if rep.Auth.Kind != message.AuthMAC {
		return false
	}
	return c.ks.CheckPointMAC(uint32(rep.Replica), rep.Payload(), rep.Auth.MAC)
}

package pbft

import (
	"bytes"
	"context"
	"errors"
	"sort"
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

	mu        sync.Mutex
	timestamp uint64
	view      message.View // latest view observed in replies
	pending   *pendingInvoke
	closed    bool

	replierMu   sync.Mutex
	nextReplier uint64
}

type replyVote struct {
	digest    crypto.Digest
	tentative bool
}

type pendingInvoke struct {
	timestamp uint64
	need      int // matching replies required
	votes     map[message.NodeID]replyVote
	results   map[crypto.Digest][]byte // full results received, by digest
	done      chan []byte
	readOnly  bool
}

// NewClient attaches a client to the network. Session keys with each replica
// derive from the same offline setup replicas use.
func NewClient(id message.NodeID, dir *Directory, net Network, mode Mode, opt Options) *Client {
	c := &Client{
		id:           id,
		dir:          dir,
		mode:         mode,
		opt:          opt.withDefaults(),
		ks:           crypto.NewKeyStore(uint32(id)),
		kp:           crypto.GenerateKeyPair(crypto.DeriveKey("client-identity", uint64(id))),
		RetryTimeout: 150 * time.Millisecond,
		MaxRetries:   10,
		nextReplier:  uint64(id), // stagger start across clients
	}
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

//bftlint:faultbound
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
// cancels or a deadline passes. The client stays usable afterwards — the
// abandoned timestamp is simply never reused, and any certificate that
// completes late is discarded like any other stale reply.
func (c *Client) InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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
	p := &pendingInvoke{
		timestamp: ts,
		need:      need,
		votes:     make(map[message.NodeID]replyVote),
		results:   make(map[crypto.Digest][]byte),
		done:      make(chan []byte, 1),
		readOnly:  useRO,
	}
	c.pending = p
	c.mu.Unlock()

	replier := c.pickReplier()
	req := &message.Request{
		Client:    c.id,
		Timestamp: ts,
		Replier:   replier,
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
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for attempt := 0; attempt <= c.MaxRetries; attempt++ {
		select {
		case res := <-p.done:
			c.mu.Lock()
			c.pending = nil
			c.mu.Unlock()
			return res, nil
		case <-ctx.Done():
			c.mu.Lock()
			c.pending = nil
			c.mu.Unlock()
			return nil, ctx.Err()
		case <-timer.C:
		}
		// Retransmit to all replicas; ask everyone for the full result and
		// demote read-only to read-write (§5.1.3, §5.2).
		retry := &message.Request{
			Client:    c.id,
			Timestamp: ts,
			Replier:   message.NoNode,
			Op:        op,
		}
		c.mu.Lock()
		if p.readOnly {
			p.readOnly = false
			p.need = quorum.Weak(c.f())
			p.votes = make(map[message.NodeID]replyVote)
			// Keep results: digests can still match.
		}
		c.mu.Unlock()
		c.sendRequest(retry, message.NoNode)
		timeout *= 2 // randomized exponential backoff, deterministic here
		if timeout > maxBackoff {
			timeout = maxBackoff
		}
		timer.Reset(timeout)
	}
	c.mu.Lock()
	c.pending = nil
	c.mu.Unlock()
	return nil, errors.New("pbft: request timed out without a reply certificate")
}

// pickReplier chooses the designated replier round-robin (load balancing,
// §5.1.1): a per-client counter walks the replicas in strict rotation, so
// over any window of n requests every replica returns exactly one full
// result. (An earlier LCG here skewed replier load through modulo bias.)
func (c *Client) pickReplier() message.NodeID {
	c.replierMu.Lock()
	defer c.replierMu.Unlock()
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

// onReply folds one authenticated reply into the pending certificate.
func (c *Client) onReply(rep *message.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep.View > c.view {
		c.view = rep.View // track the current primary (§2.3.2)
	}
	p := c.pending
	if p == nil || rep.Timestamp != p.timestamp {
		return
	}
	// verifyReply proved key possession for the claimed sender, not group
	// membership; bound the replica ID before it keys the vote map.
	if int(rep.Replica) >= c.dir.N() {
		return
	}
	if rep.HasResult {
		if crypto.DigestOf(rep.Result) != rep.ResultDigest {
			return // inconsistent reply
		}
		p.results[rep.ResultDigest] = rep.Result
	}
	p.votes[rep.Replica] = replyVote{digest: rep.ResultDigest, tentative: rep.Tentative}

	// Count votes per digest. Tentative replies need a quorum; final
	// replies need only a weak certificate — a final vote also supports a
	// tentative count (it is strictly stronger).
	counts := make(map[crypto.Digest]int)
	finals := make(map[crypto.Digest]int)
	for _, v := range p.votes {
		counts[v.digest]++
		if !v.tentative {
			finals[v.digest]++
		}
	}
	// In read-only mode two digests can complete a weak certificate at once
	// (honest replicas answering from different execution prefixes); iterate
	// digests in sorted order so the accepted result never depends on map
	// iteration order.
	ds := make([]crypto.Digest, 0, len(counts))
	for d := range counts {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
	for _, d := range ds {
		n := counts[d]
		enough := n >= quorum.Strong(c.f()) || finals[d] >= p.need
		if p.readOnly {
			enough = n >= p.need
		}
		if enough {
			if res, ok := p.results[d]; ok {
				select {
				case p.done <- res:
				default:
				}
				return
			}
			// Certificate complete but no full result yet: keep waiting (a
			// retransmission will request full replies from everyone).
		}
	}
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

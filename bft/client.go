package bft

import (
	"context"

	"repro/internal/message"
	"repro/internal/pbft"
)

func replicaID(i int) message.NodeID { return message.NodeID(i) }
func clientID(k int) message.NodeID  { return message.ClientIDBase + message.NodeID(k) }

// InvokeOption modifies one invocation.
type InvokeOption func(*invokeOpts)

type invokeOpts struct {
	readOnly bool
}

func foldInvokeOpts(opts []InvokeOption) invokeOpts {
	var io invokeOpts
	for _, o := range opts {
		o(&io)
	}
	return io
}

// ReadOnly marks the operation read-only, letting the library answer it in
// a single round trip without running the three-phase protocol (§5.1.3).
// The service's IsReadOnly upcall still guards it — a mutating operation
// flagged read-only is demoted to the read-write path at the replicas.
func ReadOnly(o *invokeOpts) { o.readOnly = true }

// Client invokes operations on the replicated service — §6.2's
// Byz_init_client/Byz_invoke with a modern contract: every invocation
// takes a context and honors cancellation mid-retry.
//
// One client principal has ONE operation in flight at a time (§2.3.2 —
// replicas order per-client requests by timestamp); concurrent calls on
// one Client serialize. Use a ClientPool for concurrency across principals.
type Client struct {
	inner *pbft.Client
	id    int
	// sem serializes invocations (ctx-aware, unlike a mutex).
	sem chan struct{}
}

// NewClient constructs client principal k (0 ≤ k < opts.MaxClients)
// attached to net.
func NewClient(k int, opts Options, net Network) *Client {
	cfg := opts.engineConfig()
	if k < 0 || k >= opts.maxClients() {
		panic("bft: client id out of range (raise Options.MaxClients)")
	}
	cl := pbft.NewClient(clientID(k), opts.offlineDirectory(cfg.N), net, cfg.Mode, cfg.Opt)
	if opts.RetryTimeout > 0 {
		cl.RetryTimeout = opts.RetryTimeout
	}
	if opts.MaxRetries > 0 {
		cl.MaxRetries = opts.MaxRetries
	}
	c := &Client{inner: cl, id: k, sem: make(chan struct{}, 1)}
	return c
}

// ID returns the client's principal index.
func (c *Client) ID() int { return c.id }

// Invoke executes op on the replicated service and returns its result once
// a reply certificate assembles (f+1 matching replies; 2f+1 for tentative
// and read-only ones). It retransmits on timeout with exponential backoff
// and returns promptly with ctx.Err() if ctx is cancelled mid-flight; the
// client stays usable afterwards.
//
// Cancelling abandons the wait, not the operation: a request that already
// left this client may still be ordered and executed (exactly once) after
// Invoke has returned ctx.Err(), just as with any RPC whose reply is lost.
// Callers that cancel must treat the operation's outcome as unknown.
func (c *Client) Invoke(ctx context.Context, op []byte, opts ...InvokeOption) ([]byte, error) {
	return c.InvokeContext(ctx, op, foldInvokeOpts(opts).readOnly)
}

// InvokeContext is the option-free form of Invoke (the library-wide
// invocation interface shared with bft/fs and the workload drivers).
func (c *Client) InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.sem }()
	return c.inner.InvokeContext(ctx, op, readOnly)
}

// Future is the handle returned by InvokeAsync.
type Future struct {
	done chan struct{}
	res  []byte
	err  error
}

// goFuture runs fn on its own goroutine and resolves the returned Future
// with its result — the shared plumbing behind every InvokeAsync.
func goFuture(fn func() ([]byte, error)) *Future {
	f := &Future{done: make(chan struct{})}
	go func() {
		f.res, f.err = fn()
		close(f.done)
	}()
	return f
}

// Done is closed when the invocation completes.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the invocation completes or ctx is cancelled. Note
// that cancelling the WAIT does not cancel the invocation — cancel the
// context passed to InvokeAsync for that.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// InvokeAsync starts an invocation and returns immediately with a Future.
// Successive InvokeAsync calls on one client queue behind each other (one
// in flight per principal); fan out across a ClientPool for parallelism.
func (c *Client) InvokeAsync(ctx context.Context, op []byte, opts ...InvokeOption) *Future {
	return goFuture(func() ([]byte, error) { return c.Invoke(ctx, op, opts...) })
}

// Close detaches the client from the network. In-flight invocations fail.
func (c *Client) Close() { c.inner.Close() }

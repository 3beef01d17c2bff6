package bft

import "context"

// ClientPool fans invocations across k distinct client principals. The
// engine admits one operation in flight per principal (replicas order a
// client's requests by timestamp, §2.3.2), so the pool is the supported
// way to drive concurrent — including open-loop — load: each call checks
// out an idle principal, invokes through it, and returns it.
type ClientPool struct {
	clients []*Client
	idle    chan *Client
}

// NewClientPool builds a pool of k clients, principals 0..k-1; all k must
// be below opts.MaxClients. (A Cluster places its pools after the
// principals it already handed out.)
func NewClientPool(k int, opts Options, net Network) *ClientPool {
	return newClientPoolAt(0, k, opts, net)
}

// newClientPoolAt builds a pool of k clients starting at principal first.
func newClientPoolAt(first, k int, opts Options, net Network) *ClientPool {
	if k <= 0 {
		panic("bft: pool size must be positive")
	}
	p := &ClientPool{idle: make(chan *Client, k)}
	for i := 0; i < k; i++ {
		c := NewClient(first+i, opts, net)
		p.clients = append(p.clients, c)
		p.idle <- c
	}
	return p
}

// Size returns the number of client principals in the pool.
func (p *ClientPool) Size() int { return len(p.clients) }

// Invoke checks an idle client out of the pool (waiting, ctx-aware, when
// all k are busy), invokes through it, and returns it.
func (p *ClientPool) Invoke(ctx context.Context, op []byte, opts ...InvokeOption) ([]byte, error) {
	return p.InvokeContext(ctx, op, foldInvokeOpts(opts).readOnly)
}

// InvokeContext is the option-free form of Invoke (the library-wide
// invocation interface, so a pool drops into any driver a Client fits).
func (p *ClientPool) InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	select {
	case c := <-p.idle:
		defer func() { p.idle <- c }()
		return c.InvokeContext(ctx, op, readOnly)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// InvokeAsync starts an invocation on the next idle principal and returns
// a Future. Unlike Client.InvokeAsync, up to k invocations proceed in
// parallel.
func (p *ClientPool) InvokeAsync(ctx context.Context, op []byte, opts ...InvokeOption) *Future {
	return goFuture(func() ([]byte, error) { return p.Invoke(ctx, op, opts...) })
}

// Close detaches every client in the pool. Call it after in-flight
// invocations have completed.
func (p *ClientPool) Close() {
	for _, c := range p.clients {
		c.Close()
	}
}

package bft

import (
	"time"

	"repro/internal/pbft"
)

// EngineConfig exposes the validated Options lowering for regression
// tests: the public surface must not silently change what reaches the
// engine.
func EngineConfig(o Options) pbft.Config { return o.engineConfig() }

// ClientRetry exposes a built client's effective retransmission settings
// (Options.RetryTimeout and Options.MaxRetries after defaulting).
func ClientRetry(c *Client) (time.Duration, int) {
	return c.inner.RetryTimeout, c.inner.MaxRetries
}

// Package repro is a from-scratch Go reproduction of "Practical Byzantine
// Fault Tolerance" (Castro & Liskov, OSDI '99; Castro's MIT thesis, 2001).
//
// The public library API lives in repro/bft: a per-node surface mirroring
// §6.2 of the thesis (bft.NewReplica / bft.NewClient over any network —
// simulated or real UDP), context-aware invocation with ClientPool fan-out,
// typed fault injection, and metrics. Two complete replicated services ship
// publicly: repro/bft/kv (counter/KV demo) and repro/bft/fs (the BFS file
// system of Chapter 6). The protocol engine and every substrate (network
// simulator, crypto, checkpointing, state transfer, the NO-REP baseline,
// and the analytic performance model) live under repro/internal.
// See README.md for a tour, bench/README.md for the repository benchmark,
// and CHANGES.md for the measurements each change recorded.
package repro

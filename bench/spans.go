package main

import (
	"fmt"
	"sort"

	"repro/internal/message"
)

// Span assembly: after a traced phase the tap's events are folded into one
// trace per request, keyed by (client, timestamp), and the sequence number
// a request rode is found through the pre-prepare that carried it.

const quorum = 2*faults + 1

// reqTrace is what the tap saw of one request. Zero means not seen.
type reqTrace struct {
	clientTx int64           // first transmission by the client
	rxAt     [replicas]int64 // first receipt at each replica
	replyTx  [replicas]int64 // first reply transmission by each replica
	replyRx  [replicas]int64 // client's first receipt of each replica's reply
}

// slotTrace is what the tap saw of one (view, sequence number).
type slotTrace struct {
	primary  int
	ppTx     int64
	ppRx     [replicas]int64
	prepRx   [replicas][]int64 // receipt times of prepares at each replica
	commitRx [replicas][]int64
}

type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Request string `json:"request"`
}

// spanStats is the outcome of one traced phase.
type spanStats struct {
	p50      map[string]float64 // span name -> median, µs
	execNs   float64            // median Execute duration, ns
	samples  int
	untraced float64 // share of the invoke median the blocking path leaves uncovered
	spans    []span  // the first requests' spans, for the trace file
}

// Blocking-path spans, in order, for the ordered and the read-only path.
var (
	orderedPath  = []string{"bft.client_seal", "transport.request_hop", "pbft.order_wait", "pbft.prepare_round", "executor.prepared_to_reply", "transport.reply_hop", "bft.reply_cert_wait"}
	readOnlyPath = []string{"bft.client_seal", "transport.request_hop", "executor.request_to_reply", "transport.reply_hop", "bft.reply_cert_wait"}
)

const maxTraceFileRequests = 2000

func buildSpans(p *phase) spanStats {
	t := p.b.tap
	reqs := make(map[reqKey]*reqTrace)
	slots := make(map[slotKey]*slotTrace)
	req := func(k reqKey) *reqTrace {
		r := reqs[k]
		if r == nil {
			r = &reqTrace{}
			reqs[k] = r
		}
		return r
	}
	slot := func(k slotKey) *slotTrace {
		s := slots[k]
		if s == nil {
			s = &slotTrace{primary: -1}
			slots[k] = s
		}
		return s
	}
	first := func(dst *int64, t int64) {
		if *dst == 0 || t < *dst {
			*dst = t
		}
	}
	for _, e := range t.events() {
		node := int(e.node)
		switch e.typ {
		case message.TRequest:
			r := req(reqKey{message.NodeID(e.a), e.b})
			if e.dir == evTx && message.NodeID(e.node).IsClient() {
				first(&r.clientTx, e.t)
			} else if e.dir == evRx && node < replicas {
				first(&r.rxAt[node], e.t)
			}
		case message.TReply:
			r := req(reqKey{message.NodeID(e.a), e.b})
			if e.dir == evTx && node < replicas {
				first(&r.replyTx[node], e.t)
			} else if e.dir == evRx && int(e.from) < replicas && e.from >= 0 {
				first(&r.replyRx[e.from], e.t)
			}
		case message.TPrePrepare:
			s := slot(slotKey{e.a, e.b})
			if e.dir == evTx && e.node == e.from {
				first(&s.ppTx, e.t)
				s.primary = node
			} else if e.dir == evRx && node < replicas {
				first(&s.ppRx[node], e.t)
			}
		case message.TPrepare:
			if e.dir == evRx && node < replicas {
				s := slot(slotKey{e.a, e.b})
				s.prepRx[node] = append(s.prepRx[node], e.t)
			}
		case message.TCommit:
			if e.dir == evRx && node < replicas {
				s := slot(slotKey{e.a, e.b})
				s.commitRx[node] = append(s.commitRx[node], e.t)
			}
		}
	}
	for _, s := range slots {
		for i := range s.prepRx {
			sort.Slice(s.prepRx[i], func(a, b int) bool { return s.prepRx[i][a] < s.prepRx[i][b] })
			sort.Slice(s.commitRx[i], func(a, b int) bool { return s.commitRx[i][a] < s.commitRx[i][b] })
		}
	}
	// Which slot carried each request. A request re-proposed after a view
	// change appears in several; the latest pre-prepare wins, since that
	// is the one whose execution answered the client.
	carried := make(map[reqKey]slotKey)
	t.mu.Lock()
	for sk, c := range t.batches {
		keys := append([]reqKey(nil), c.inline...)
		for _, d := range c.digests {
			if k, ok := t.bigReqs[d]; ok {
				keys = append(keys, k)
			}
		}
		sl := slots[sk]
		if sl == nil {
			continue // the pre-prepare's own event did not fit the buffer
		}
		for _, k := range keys {
			if prev, ok := carried[k]; !ok || sl.ppTx > slots[prev].ppTx {
				carried[k] = sk
			}
		}
	}
	t.mu.Unlock()

	// Execute events per (replica, client), in time order.
	type execKey struct {
		replica int
		client  message.NodeID
	}
	execs := make(map[execKey][]execEvent)
	var execDur []float64
	for _, s := range t.services {
		for _, e := range s.ev {
			k := execKey{s.replica, e.client}
			execs[k] = append(execs[k], e)
			execDur = append(execDur, float64(e.end-e.start))
		}
	}
	for _, l := range execs {
		sort.Slice(l, func(a, b int) bool { return l[a].start < l[b].start })
	}

	// Match each request to the generator's invoke interval: a principal's
	// operations do not overlap, so the interval holding the first
	// transmission is the call that made it.
	byClient := make(map[message.NodeID][]reqKey)
	for k, r := range reqs {
		if r.clientTx != 0 {
			byClient[k.client] = append(byClient[k.client], k)
		}
	}

	durs := make(map[string][]float64)
	st := spanStats{p50: make(map[string]float64)}
	// A request's spans are staged and kept only if the whole set is
	// there, so a half-seen request cannot skew one span's median.
	var staged []span
	stage := func(name, parent string, from, to int64) bool {
		if from == 0 || to == 0 || to < from {
			return false
		}
		staged = append(staged, span{Name: name, Start: from, End: to, Parent: parent})
		return true
	}

	for ci, samples := range p.samples {
		client := message.ClientIDBase + message.NodeID(ci)
		keys := byClient[client]
		sort.Slice(keys, func(a, b int) bool { return reqs[keys[a]].clientTx < reqs[keys[b]].clientTx })
		ki := 0
		for _, s := range samples {
			if !s.ok || s.end <= p.measFrom || s.end > p.measTo {
				continue
			}
			for ki < len(keys) && reqs[keys[ki]].clientTx < s.start {
				ki++
			}
			if ki == len(keys) || reqs[keys[ki]].clientTx > s.end {
				continue
			}
			k := keys[ki]
			ki++
			r := reqs[k]
			// The quorum-completing replica: the client waits for 2f+1
			// matching replies, so the (2f+1)-th to arrive ends the wait.
			qc := nthReplier(r, quorum)
			if qc < 0 {
				continue
			}
			staged = staged[:0]
			ok := stage("bft.invoke", "", s.start, s.end) &&
				stage("bft.client_seal", "bft.invoke", s.start, r.clientTx) &&
				stage("transport.reply_hop", "bft.invoke", r.replyTx[qc], r.replyRx[qc]) &&
				stage("bft.reply_cert_wait", "bft.invoke", r.replyRx[qc], s.end)
			if p.b.def.Op == opRead4k {
				ok = ok && stage("transport.request_hop", "bft.invoke", r.clientTx, r.rxAt[qc]) &&
					stage("executor.request_to_reply", "bft.invoke", r.rxAt[qc], r.replyTx[qc])
				if e, found := execWithin(execs[execKey{qc, k.client}], r.rxAt[qc], r.replyTx[qc]); ok && found {
					stage("kvservice.execute", "executor.request_to_reply", e.start, e.end)
				}
			} else {
				sk, found := carried[k]
				if !found || slots[sk].primary < 0 {
					continue
				}
				sl, pr := slots[sk], slots[sk].primary
				prepared := func(i int) int64 {
					if i == pr {
						return nth(sl.prepRx[i], 2*faults)
					}
					// A backup holds the pre-prepare and its own prepare
					// and needs 2f-1 more from the others.
					t := nth(sl.prepRx[i], 2*faults-1)
					if t == 0 || sl.ppRx[i] == 0 {
						return 0
					}
					return max(t, sl.ppRx[i])
				}
				ok = ok && stage("transport.request_hop", "bft.invoke", r.clientTx, r.rxAt[pr]) &&
					stage("pbft.order_wait", "bft.invoke", r.rxAt[pr], sl.ppTx) &&
					stage("pbft.prepare_round", "bft.invoke", sl.ppTx, prepared(pr)) &&
					stage("executor.prepared_to_reply", "bft.invoke", prepared(qc), r.replyTx[qc])
				if ok {
					// The primary's own commit does not cross the wire,
					// so its (2f+1)-th commit is the 2f-th it receives.
					// Off the blocking path, hence optional.
					stage("pbft.commit_round", "bft.invoke", prepared(pr), nth(sl.commitRx[pr], 2*faults))
					if e, found := execWithin(execs[execKey{qc, k.client}], prepared(qc), r.replyTx[qc]); found {
						stage("kvservice.execute", "executor.prepared_to_reply", e.start, e.end)
					}
				}
			}
			if !ok {
				continue
			}
			id := fmt.Sprintf("%d/%d", k.client, k.ts)
			for _, sp := range staged {
				durs[sp.Name] = append(durs[sp.Name], float64(sp.End-sp.Start)/1e3)
				if st.samples < maxTraceFileRequests {
					sp.Request = id
					st.spans = append(st.spans, sp)
				}
			}
			st.samples++
		}
	}

	for name, d := range durs {
		st.p50[name] = median(d)
	}
	st.execNs = median(execDur)
	path := orderedPath
	if p.b.def.Op == opRead4k {
		path = readOnlyPath
	}
	if inv := st.p50["bft.invoke"]; inv > 0 {
		var sum float64
		for _, name := range path {
			sum += st.p50[name]
		}
		st.untraced = 1 - sum/inv
	}
	return st
}

// nth returns the n-th smallest (1-based) of sorted, or 0.
func nth(sorted []int64, n int) int64 {
	if n < 1 || len(sorted) < n {
		return 0
	}
	return sorted[n-1]
}

// nthReplier returns the replica whose reply was the n-th the client
// received, or -1 if fewer arrived.
func nthReplier(r *reqTrace, n int) int {
	type arrival struct {
		at      int64
		replica int
	}
	var got []arrival
	for i, t := range r.replyRx {
		if t != 0 && r.replyTx[i] != 0 {
			got = append(got, arrival{t, i})
		}
	}
	if len(got) < n {
		return -1
	}
	sort.Slice(got, func(a, b int) bool { return got[a].at < got[b].at })
	return got[n-1].replica
}

// execWithin returns the first Execute of l that started inside
// [from, to].
func execWithin(l []execEvent, from, to int64) (execEvent, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].start >= from })
	if from != 0 && i < len(l) && l[i].start <= to {
		return l[i], true
	}
	return execEvent{}, false
}

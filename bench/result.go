package main

import (
	"math"
	"sort"
)

// metricValue is one reported number. IQR and N describe the five windows
// it is the median of; they go to the report, not to the driver's line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is everything one workload run produced.
type runResult struct {
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Violations []string               `json:"violations,omitempty"` // wrong outputs
	Stalled    []string               `json:"stalled,omitempty"`    // the group did not converge in time
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Env        environment            `json:"env"`
}

// tally folds a phase's attempt counts and check outcomes into the result.
func (r *runResult) tally(p *phase) {
	for k := range p.issued {
		r.Attempted += int64(p.issued[k].Load())
	}
	r.Failed += p.failed.Load()
	r.Violations = append(r.Violations, p.unsafe...)
	r.Stalled = append(r.Stalled, p.stalled...)
	r.Correct = len(r.Violations) == 0 && len(r.Stalled) == 0 && r.Failed == 0
}

// windowStats are the per-window figures the end-to-end metrics are the
// medians of.
type windowStats struct {
	ops                       []float64 // completed operations per window
	tput, p50, p99            []float64
	cpuUs, allocs, allocBytes []float64
}

// windows cuts the phase's samples at the usage snapshots. A closed-loop
// operation belongs to the window it completed in; an open-loop one to the
// window it was due in, so requests due during an outage count there.
func (p *phase) windows() windowStats {
	if p.ws != nil {
		return *p.ws
	}
	n := len(p.bounds) - 1
	lat := make([][]float64, n)
	open := p.b.def.OpenRate > 0
	for k := range p.samples {
		for _, s := range p.samples[k] {
			if !s.ok {
				continue
			}
			at := s.end
			if open {
				at = s.start
			}
			if at < p.bounds[0].at || at >= p.bounds[n].at {
				continue
			}
			w := sort.Search(n, func(i int) bool { return p.bounds[i+1].at > at })
			lat[w] = append(lat[w], float64(s.end-s.start)/1e6)
		}
	}
	var ws windowStats
	for w := 0; w < n; w++ {
		from, to := p.bounds[w], p.bounds[w+1]
		ops := float64(len(lat[w]))
		ws.ops = append(ws.ops, ops)
		ws.tput = append(ws.tput, ops/(float64(to.at-from.at)/1e9))
		if ops == 0 {
			continue // nothing to divide by: the window yields no per-op figure
		}
		sort.Float64s(lat[w])
		ws.p50 = append(ws.p50, percentile(lat[w], 0.50))
		ws.p99 = append(ws.p99, percentile(lat[w], 0.99))
		ws.cpuUs = append(ws.cpuUs, float64(to.cpu-from.cpu)/1e3/ops)
		ws.allocs = append(ws.allocs, float64(to.mallocs-from.mallocs)/ops)
		ws.allocBytes = append(ws.allocBytes, float64(to.bytes-from.bytes)/ops)
	}
	p.ws = &ws
	return ws
}

func windowMetric(v []float64) metricValue {
	return metricValue{Value: median(v), IQR: iqr(v), N: len(v)}
}

// betterHalf reports the median of the better half of the windows (the
// top three of five), for metrics that interference can only worsen. The
// host this benchmark was built on switches between two speeds 44% apart
// every few seconds (a fixed SHA-256 loop shows it); a window that caught
// the slow speed measures the neighbours, not the program, and the plain
// median flips between the two speeds once half a run is slow. The spread
// beside the value is still the IQR over all windows.
func betterHalf(v []float64, better string) metricValue {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	keep := (len(s) + 1) / 2
	if better == "higher" {
		s = s[len(s)-keep:]
	} else {
		s = s[:keep]
	}
	return metricValue{Value: median(s), IQR: iqr(v), N: len(v)}
}

// endToEndMetrics reports the user-visible numbers of an untraced phase.
func endToEndMetrics(p *phase, setup []float64) map[string]metricValue {
	ws := p.windows()
	out := map[string]metricValue{
		"throughput_ops_s":   betterHalf(ws.tput, "higher"),
		"invoke_p50_ms":      betterHalf(ws.p50, "lower"),
		"invoke_p99_ms":      betterHalf(ws.p99, "lower"),
		"cpu_us_per_op":      betterHalf(ws.cpuUs, "lower"),
		"allocs_per_op":      windowMetric(ws.allocs),
		"alloc_bytes_per_op": windowMetric(ws.allocBytes),
		"setup_s":            betterHalf(setup, "lower"),
	}
	for _, m := range endToEnd {
		v := out[m.Name]
		v.Unit = m.Unit
		out[m.Name] = v
	}
	return out
}

// completed counts the operations acknowledged inside the measured
// interval.
func (p *phase) completed() float64 {
	var n float64
	for _, ops := range p.windows().ops {
		n += ops
	}
	return n
}

// counterMetrics turns the measured interval's counter deltas into the C
// per-layer metrics.
func counterMetrics(p *phase, out map[string]float64) {
	d := p.after
	d.sub(p.before)
	ops := p.completed()
	if ops == 0 {
		return
	}
	kop := ops / 1000
	out["ingress.inbox_drops_per_kop"] = d[cInboxDrops] / kop
	out["ingress.bad_auth_per_kop"] = d[cBadAuth] / kop
	if d[cBatchesProposed] > 0 {
		out["pbft.batch_fill_avg"] = d[cRequestsProposed] / d[cBatchesProposed]
	}
	out["pbft.batches_per_kop"] = d[cBatchesProposed] / kop
	out["pbft.batch_wait_fires_per_kop"] = d[cBatchWaitFires] / kop
	out["pbft.queue_depth_max"] = float64(p.queueMax.Load())
	if d[cBatchesExecuted] > 0 {
		out["pbft.tentative_share"] = d[cTentativeExecs] / d[cBatchesExecuted]
	}
	out["pbft.rollbacks"] = d[cRollbacks]
	out["pbft.view_changes"] = d[cViewChanges]
	out["executor.queue_depth_max"] = float64(p.execMax.Load())
	out["executor.stalls_per_kop"] = d[cExecStalls] / kop
	out["checkpoint.pages_copied_per_kop"] = d[cPagesCopied] / kop
	out["checkpoint.pages_digested_per_kop"] = d[cPagesDigested] / kop
	out["checkpoint.digest_ms_per_kop"] = d[cCkptMs] / kop
	out["checkpoint.stable_per_kop"] = d[cStable] / kop
	out["egress.outbox_drops_per_kop"] = d[cOutboxDrops] / kop
	out["wal.appends_per_op"] = d[cWALAppends] / ops
	out["wal.fsyncs_per_kop"] = d[cWALFsyncs] / kop
	out["wal.bytes_per_op"] = d[cWALBytes] / ops

	if len(p.late) > 0 {
		late := append([]float64(nil), p.late...)
		sort.Float64s(late)
		out["bench.sched_lateness_p99_ms"] = percentile(late, 0.99)
	}
	var rejoin, failover []float64
	var timeouts float64
	for _, k := range p.kills {
		if k.rejoinedAt != 0 {
			rejoin = append(rejoin, float64(k.rejoinedAt-k.restartAt)/1e6)
		} else {
			timeouts++
		}
		if f := p.firstCompletionAfter(k.killAt); f > 0 {
			failover = append(failover, float64(f-k.killAt)/1e6)
		}
	}
	out["pbft.kills"] = float64(len(p.kills))
	out["pbft.rejoin_ms"] = median(rejoin)
	out["pbft.failover_ms"] = median(failover)
	var catchup, replay []float64
	for _, k := range p.walKills {
		if k.rejoinedAt != 0 {
			catchup = append(catchup, float64(k.rejoinedAt-k.restartAt)/1e6)
			replay = append(replay, float64(k.replay)/1e6)
		} else {
			timeouts++
		}
	}
	out["pbft.rejoin_timeouts"] = timeouts
	out["wal.restart_catchup_ms"] = median(catchup)
	out["wal.replay_ms"] = median(replay)
}

// firstCompletionAfter returns when the first request due after t
// completed, or 0.
func (p *phase) firstCompletionAfter(t int64) int64 {
	first := int64(math.MaxInt64)
	for k := range p.samples {
		for _, s := range p.samples[k] {
			if s.ok && s.start >= t && s.end < first {
				first = s.end
			}
		}
	}
	if first == math.MaxInt64 {
		return 0
	}
	return first
}

// tapMetrics turns the traced phase's tap counts and spans into the tap C
// and T per-layer metrics.
func tapMetrics(p *phase, st spanStats, out map[string]float64) {
	t := p.b.tap
	if ops := p.completed(); ops > 0 {
		out["bft.request_sends_per_op"] = float64(t.reqSends.Load()) / ops
		out["transport.msgs_per_op"] = float64(t.txMsgs.Load()) / ops
		out["transport.bytes_per_op"] = float64(t.txBytes.Load()) / ops
	}
	if tx := float64(t.txMsgs.Load()); tx > 0 {
		out["transport.dropped_share"] = math.Max(0, 1-float64(t.rxMsgs.Load())/tx)
	}
	for _, name := range []string{
		"bft.invoke", "bft.client_seal", "bft.reply_cert_wait",
		"transport.request_hop", "transport.reply_hop",
		"pbft.order_wait", "pbft.prepare_round", "pbft.commit_round",
		"executor.prepared_to_reply", "executor.request_to_reply",
	} {
		out[name+"_p50_us"] = st.p50[name]
	}
	out["kvservice.execute_ns_per_op"] = st.execNs
	out["bench.untraced_share"] = st.untraced
	out["bench.trace_events_dropped"] = float64(t.dropped.Load())
	out["bench.samples"] = float64(st.samples)
}

// perLayerValues attaches units and fills metrics a workload does not
// exercise with 0.
func perLayerValues(vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out
}

package main

import "time"

// The registry is the single list of workloads and metrics the program
// emits. BENCHMARK.json restates the names, units, directions and bounds
// for the driver; TestRegistryMatchesManifest keeps the two in step.

type netKind int

const (
	netSim netKind = iota // in-process simulated network
	netUDP                // real sockets on 127.0.0.1
)

type opKind int

const (
	opIncr    opKind = iota // kv.Incr(): the 0/0 operation, made checkable
	opWrite4k               // kv.WriteBlob of 4 KiB, first 8 bytes an op stamp
	opRead4k                // kv.ReadBlob(4096) invoked read-only
)

const blobSize = 4096

// workloadDef fixes everything about one workload except the seed.
type workloadDef struct {
	Name      string
	Why       string
	Net       netKind
	LinkDelay time.Duration // one-way simnet link delay
	Clients   int           // client principals (closed loop) or pool size (open loop)
	Op        opKind
	Durable   bool
	OpenRate  float64 // requests per second; 0 means closed loop
	Failover  bool    // kill the primary once per window
}

var workloads = []workloadDef{
	{
		Name:    "sim-incr-c1",
		Why:     "latency floor: 1 closed-loop client, zero-delay simnet, fill 1, so every layer sits on the blocking path once and batching is bypassed",
		Net:     netSim,
		Clients: 1, Op: opIncr,
	},
	{
		Name:    "sim-incr-c32",
		Why:     "saturation: 32 closed-loop principals, so request queue, adaptive batching, agreement window and stage overlap do the work",
		Net:     netSim,
		Clients: 32, Op: opIncr,
	},
	{
		// Four principals, not the eight of the read workload: at eight a
		// replica that loses datagrams to a full socket buffer drops out
		// of the group for good in about one run in three, and the
		// remaining three run 20% faster — two modes, no steady median.
		Name:    "udp-write4k-c4",
		Why:     "loopback UDP, 4 closed-loop principals writing 4 KiB: syscalls, codec, digests, separate request transmission and checkpoint copy-on-write dominate",
		Net:     netUDP,
		Clients: 4, Op: opWrite4k,
	},
	{
		Name:    "udp-read4k-c8",
		Why:     "loopback UDP, 8 closed-loop principals, read-only 4 KiB reads: ingress, executor, egress and udpnet only, bypassing agreement, checkpoint and wal",
		Net:     netUDP,
		Clients: 8, Op: opRead4k,
	},
	{
		Name:    "wal-incr-c32",
		Why:     "sim-incr-c32 with the durable write-ahead log on a file-backed directory: the pair isolates the durability tax",
		Net:     netSim,
		Clients: 32, Op: opIncr, Durable: true,
	},
	{
		Name:      "sim1ms-open500-failover",
		Why:       "open loop at 500 ops/s over 1 ms links, primary killed and restarted once per window: view change, state transfer, client retransmission",
		Net:       netSim,
		LinkDelay: time.Millisecond,
		Clients:   8, Op: opIncr,
		OpenRate: 500, Failover: true,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Help   string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, and none can be zero.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.25, "acknowledged operations per second (open loop: operations due in the window that completed)"},
	{"invoke_p50_ms", "ms", "lower", 0.25, "median Invoke call to assembled reply certificate (open loop: from when the request was due)"},
	{"invoke_p99_ms", "ms", "lower", 0.25, "99th percentile of the same"},
	{"cpu_us_per_op", "us", "lower", 0.25, "getrusage user+sys of the whole process over the window, per acknowledged operation"},
	{"allocs_per_op", "count", "lower", 0.08, "heap allocations of the whole process per acknowledged operation"},
	{"alloc_bytes_per_op", "B", "lower", 0.12, "heap bytes allocated by the whole process per acknowledged operation"},
	{"setup_s", "s", "lower", 0.25, "fresh process start to first acknowledged operation, median of the faster half of 16 set-ups"},
}

// perLayer lists single-layer metrics; the prefix is the package measured.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"bft.invoke_p50_us", "us", "lower", 0, "root span: Invoke call to return, traced run"},
	{"bft.client_seal_p50_us", "us", "lower", 0, "Invoke call to first request datagram on the wire"},
	{"bft.reply_cert_wait_p50_us", "us", "lower", 0, "quorum-completing reply received to Invoke return"},
	{"bft.request_sends_per_op", "count", "lower", 0, "request transmissions per operation (1 = no retransmission)"},

	{"transport.msgs_per_op", "count", "lower", 0, "datagrams handed to the transport per operation"},
	{"transport.bytes_per_op", "B", "lower", 0, "datagram bytes handed to the transport per operation"},
	{"transport.dropped_share", "share", "lower", 0, "datagrams sent but never delivered to a handler"},
	{"transport.request_hop_p50_us", "us", "lower", 0, "client transmit to receive at the ordering (or answering) replica"},
	{"transport.reply_hop_p50_us", "us", "lower", 0, "quorum-completing replica's reply transmit to client receive"},
	{"transport.send_us", "us", "lower", 0, "probe: one Send of a workload-sized datagram"},

	{"message.unmarshal_ns_per_msg", "ns", "lower", 0, "probe: Unmarshal over the captured datagram mix"},
	{"message.marshal_ns_per_msg", "ns", "lower", 0, "probe: Marshal over the captured datagram mix"},
	{"message.batch_digest_ns", "ns", "lower", 0, "probe: BatchDigest at the workload's batch fill"},

	{"crypto.mac_ns", "ns", "lower", 0, "probe: one MAC over a 64-byte header"},
	{"crypto.authenticator_ns", "ns", "lower", 0, "probe: one n=4 authenticator over a 64-byte header"},
	{"crypto.digest_ns_per_kib", "ns", "lower", 0, "probe: SHA-256 digest per KiB over 4 KiB"},

	{"ingress.verify_ns_per_msg", "ns", "lower", 0, "probe: serial decode + verify over the captured mix"},
	{"ingress.msgs_per_s", "1/s", "higher", 0, "probe: Pipeline.Submit to sink over the captured mix, default workers"},
	{"ingress.inbox_drops_per_kop", "count", "lower", 0, "receive-queue overflows per 1000 operations"},
	{"ingress.bad_auth_per_kop", "count", "lower", 0, "datagrams rejected by authentication per 1000 operations"},

	{"pbft.order_wait_p50_us", "us", "lower", 0, "primary receives request to primary transmits the pre-prepare carrying it"},
	{"pbft.prepare_round_p50_us", "us", "lower", 0, "pre-prepare transmit to primary's 2f-th matching prepare"},
	{"pbft.commit_round_p50_us", "us", "lower", 0, "primary prepared to its (2f+1)-th commit (off the blocking path)"},
	{"pbft.batch_fill_avg", "count", "higher", 0, "requests per pre-prepare"},
	{"pbft.batches_per_kop", "count", "lower", 0, "pre-prepares per 1000 operations"},
	{"pbft.batch_wait_fires_per_kop", "count", "lower", 0, "accumulate deadlines fired per 1000 operations"},
	{"pbft.queue_depth_max", "count", "lower", 0, "largest request-queue depth sampled every 100 ms"},
	{"pbft.tentative_share", "share", "higher", 0, "batch executions that were tentative"},
	{"pbft.rollbacks", "count", "lower", 0, "tentative executions rolled back"},
	{"pbft.view_changes", "count", "lower", 0, "view changes started or joined, summed over replicas"},
	{"pbft.kills", "count", "higher", 0, "primaries the failover schedule killed in the measured interval; fewer than one per window when the group was slow to become whole again"},
	{"pbft.rejoin_ms", "ms", "lower", 0, "Restart to the restarted replica's execution frontier caught up (median)"},
	{"pbft.rejoin_timeouts", "count", "lower", 0, "restarts (failover and log-replay cycles) whose replica had not caught up under load when the cycle stopped waiting"},
	{"pbft.failover_ms", "ms", "lower", 0, "kill instant to first completion of a request due after it (median)"},

	{"executor.prepared_to_reply_p50_us", "us", "lower", 0, "quorum-completing replica holds the prepared certificate to its reply transmit"},
	{"executor.request_to_reply_p50_us", "us", "lower", 0, "read-only path: replica receives request to its reply transmit"},
	{"kvservice.execute_ns_per_op", "ns", "lower", 0, "median Service.Execute duration (decorator)"},
	{"executor.queue_depth_max", "count", "lower", 0, "largest executor command-queue depth sampled every 100 ms"},
	{"executor.stalls_per_kop", "count", "lower", 0, "event-loop dispatches that found the executor queue full, per 1000 operations"},
	{"executor.batch_ns_per_op", "ns", "lower", 0, "probe: executor.ExecBatch at the workload's operation and fill, per operation"},

	{"checkpoint.pages_copied_per_kop", "count", "lower", 0, "copy-on-write page copies per 1000 operations"},
	{"checkpoint.pages_digested_per_kop", "count", "lower", 0, "page digests per 1000 operations"},
	{"checkpoint.digest_ms_per_kop", "ms", "lower", 0, "time spent taking checkpoints per 1000 operations"},
	{"checkpoint.stable_per_kop", "count", "lower", 0, "stable checkpoints per 1000 operations"},
	{"checkpoint.take_ms", "ms", "lower", 0, "probe: Manager.Take after one checkpoint interval of the workload's writes"},

	{"egress.seal_ns_per_multicast", "ns", "lower", 0, "probe: Pipeline.Multicast of a prepare and a workload-sized pre-prepare"},
	{"egress.outbox_drops_per_kop", "count", "lower", 0, "sends lost to egress saturation per 1000 operations"},

	{"wal.appends_per_op", "count", "lower", 0, "log records per operation"},
	{"wal.fsyncs_per_kop", "count", "lower", 0, "group commits per 1000 operations"},
	{"wal.bytes_per_op", "B", "lower", 0, "log bytes per operation"},
	{"wal.append_ns", "ns", "lower", 0, "probe: Writer.Append of a pre-prepare-sized record"},
	{"wal.barrier_ms", "ms", "lower", 0, "probe: append + Barrier on the file backend (one real fsync)"},
	{"wal.restart_catchup_ms", "ms", "lower", 0, "backup Restart to frontier caught up, under load (median of 3)"},
	{"wal.replay_ms", "ms", "lower", 0, "log replay time reported by the restarted backup (median of 3)"},

	{"baseline.invoke_p50_ms", "ms", "lower", 0, "unreplicated internal/baseline server, same simnet and operation as sim-incr-c1"},

	{"bench.sched_lateness_p99_ms", "ms", "lower", 0, "open loop: how late the generator handed a request over"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "throughput lost with the decorators on, same process"},
	{"bench.untraced_share", "share", "lower", 0, "share of the invoke median the blocking-path span medians do not cover"},
	{"bench.trace_events_dropped", "count", "lower", 0, "events that did not fit the span buffer"},
	{"bench.samples", "count", "higher", 0, "traced requests with a complete span set"},
	{"bench.peak_rss_mib", "MiB", "lower", 0, "VmHWM of the process after the untraced half (GC pacing makes it too unsteady to bound)"},
}

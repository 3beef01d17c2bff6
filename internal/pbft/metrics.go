package pbft

// Metrics aggregation. Merge folds replica snapshots into one rollup
// with per-field semantics; nothing outside this package's tests calls
// it since the sharded cluster, its only user, was deleted:
//
//   - event counters (executions, view changes, drops, batching tallies,
//     cumulative digest time) add,
//   - point-in-time gauges of backlog (QueueDepth, ExecQueueDepth) add —
//     the rollup reports total queued work,
//   - "last observed" durations (LastTransferTime, LastRecoveryTime) and
//     the adaptive BatchTarget take the max — the rollup reports the
//     worst/hottest member,
//   - BatchFillAvg is recomputed from the summed proposal tallies so the
//     rollup is the true requests-per-batch ratio, not an average of
//     averages.

// Merge folds other into m in place using the per-field semantics above.
func (m *Metrics) Merge(other Metrics) {
	m.RequestsExecuted += other.RequestsExecuted
	m.BatchesExecuted += other.BatchesExecuted
	m.TentativeExecs += other.TentativeExecs
	m.Rollbacks += other.Rollbacks
	m.ViewChanges += other.ViewChanges
	m.NewViewsProcessed += other.NewViewsProcessed
	m.CheckpointsTaken += other.CheckpointsTaken
	m.StableCheckpoints += other.StableCheckpoints
	m.StateTransfers += other.StateTransfers
	m.PagesFetched += other.PagesFetched
	if other.LastTransferTime > m.LastTransferTime {
		m.LastTransferTime = other.LastTransferTime
	}
	m.TransferBytes += other.TransferBytes
	m.FetchRetries += other.FetchRetries
	m.Recoveries += other.Recoveries
	m.RecoveriesCompleted += other.RecoveriesCompleted
	if other.LastRecoveryTime > m.LastRecoveryTime {
		m.LastRecoveryTime = other.LastRecoveryTime
	}
	m.MsgsDroppedBadAuth += other.MsgsDroppedBadAuth
	m.InboxDrops += other.InboxDrops
	m.OutboxDrops += other.OutboxDrops
	m.ExecQueueDepth += other.ExecQueueDepth
	m.ExecStalls += other.ExecStalls
	m.PagesCopied += other.PagesCopied
	m.PagesDigested += other.PagesDigested
	m.CkptDigestTime += other.CkptDigestTime
	m.BatchesProposed += other.BatchesProposed
	m.RequestsProposed += other.RequestsProposed
	m.BatchBytesTotal += other.BatchBytesTotal
	m.BatchWaitFires += other.BatchWaitFires
	m.QueueDepth += other.QueueDepth
	m.WALAppends += other.WALAppends
	m.WALFsyncs += other.WALFsyncs
	m.WALBytes += other.WALBytes
	if other.ReplayTime > m.ReplayTime {
		m.ReplayTime = other.ReplayTime
	}
	if other.BatchTarget > m.BatchTarget {
		m.BatchTarget = other.BatchTarget
	}
	if m.BatchesProposed > 0 {
		m.BatchFillAvg = float64(m.RequestsProposed) / float64(m.BatchesProposed)
	} else {
		m.BatchFillAvg = 0
	}
}

// SumMetrics merges a set of snapshots into one rollup.
func SumMetrics(snaps ...Metrics) Metrics {
	var out Metrics
	for _, s := range snaps {
		out.Merge(s)
	}
	return out
}

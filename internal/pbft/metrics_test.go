package pbft

import (
	"reflect"
	"testing"
	"time"
)

func TestMetricsMergeSemantics(t *testing.T) {
	a := Metrics{
		RequestsExecuted: 100, BatchesExecuted: 10,
		ViewChanges: 1, InboxDrops: 3,
		LastTransferTime: 5 * time.Millisecond,
		LastRecoveryTime: 2 * time.Second,
		CkptDigestTime:   10 * time.Millisecond,
		BatchesProposed:  10, RequestsProposed: 40, BatchFillAvg: 4.0,
		QueueDepth: 7, BatchTarget: 4, ExecQueueDepth: 2,
	}
	b := Metrics{
		RequestsExecuted: 50, BatchesExecuted: 25,
		LastTransferTime: 9 * time.Millisecond,
		LastRecoveryTime: 1 * time.Second,
		CkptDigestTime:   15 * time.Millisecond,
		BatchesProposed:  30, RequestsProposed: 40, BatchFillAvg: 1.33,
		QueueDepth: 1, BatchTarget: 9, ExecQueueDepth: 5,
	}
	m := SumMetrics(a, b)

	if m.RequestsExecuted != 150 || m.BatchesExecuted != 35 || m.ViewChanges != 1 || m.InboxDrops != 3 {
		t.Fatalf("counters should add: %+v", m)
	}
	if m.QueueDepth != 8 || m.ExecQueueDepth != 7 {
		t.Fatalf("backlog gauges should add: %+v", m)
	}
	if m.LastTransferTime != 9*time.Millisecond || m.LastRecoveryTime != 2*time.Second {
		t.Fatalf("last-observed durations should take the max: %+v", m)
	}
	if m.CkptDigestTime != 25*time.Millisecond {
		t.Fatalf("cumulative digest time should add: %v", m.CkptDigestTime)
	}
	if m.BatchTarget != 9 {
		t.Fatalf("batch target should take the max: %d", m.BatchTarget)
	}
	// 80 requests over 40 batches = 2.0 — NOT the mean of 4.0 and 1.33.
	if m.BatchFillAvg != 2.0 {
		t.Fatalf("fill avg must be recomputed from totals: %v", m.BatchFillAvg)
	}
}

// TestMetricsMergeCoversEveryField sets every field of a snapshot to a
// distinct non-zero value and merges it into a zero Metrics: a field added
// to Metrics without a line in Merge stays zero and fails here.
func TestMetricsMergeCoversEveryField(t *testing.T) {
	var other Metrics
	v := reflect.ValueOf(&other).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int64: // time.Duration
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i + 1))
		default:
			t.Fatalf("field %s has kind %s; extend this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	var m Metrics
	m.Merge(other)
	got := reflect.ValueOf(m)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).IsZero() {
			t.Errorf("Merge drops field %s", got.Type().Field(i).Name)
		}
	}
}

func TestMetricsMergeZero(t *testing.T) {
	var zero Metrics
	if got := SumMetrics(); got != zero {
		t.Fatalf("empty sum = %+v", got)
	}
	a := Metrics{RequestsProposed: 6, BatchesProposed: 2, BatchFillAvg: 3}
	if got := SumMetrics(a, zero); got != a {
		t.Fatalf("identity merge changed the snapshot: %+v", got)
	}
	if got := SumMetrics(zero); got.BatchFillAvg != 0 {
		t.Fatalf("zero-batch fill avg must stay 0, got %v", got.BatchFillAvg)
	}
}

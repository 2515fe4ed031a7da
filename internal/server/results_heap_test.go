//go:build !race

// The race detector's shadow memory multiplies this test's ~90 MB
// working set several times over, and its heap figures are not what a
// production build retains, so it runs in ordinary builds only.

package server

import (
	"runtime"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// TestRingRetainedBytes: a full ring of 800-row results (three ints and
// two datetimes per row, the shape of the benchmark's transaction
// snapshot) holds little more heap than the encoded bytes themselves.
func TestRingRetainedBytes(t *testing.T) {
	at := time.Date(2022, 10, 14, 15, 0, 0, 0, time.UTC)
	rows := make([][]value.Value, 800)
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i) * 7919), value.NewInt(1_000_000 + int64(i)),
			value.NewDateTime(at.Add(-time.Duration(i) * time.Second)), value.NewDateTime(at),
		}
	}
	res := engine.Result{At: at, Window: stream.Interval{Start: at.Add(-time.Hour), End: at},
		Table: &eval.Table{Cols: []string{"a", "b", "c", "t1", "t2"}, Rows: rows}}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := &resultRing{}
	for i := 0; i < resultBufferSize; i++ {
		r.add(res)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	encoded := 0
	for _, b := range r.after(0) {
		encoded += len(b)
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(res)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := encoded + encoded/4; retained > int64(limit) {
		t.Fatalf("full ring retains %d B of heap for %d B of encoded results (limit %d)", retained, encoded, limit)
	}
	t.Logf("full ring: %d B encoded, %d B retained (%.3f×)", encoded, retained, float64(retained)/float64(encoded))
}

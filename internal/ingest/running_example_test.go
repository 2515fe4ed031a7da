package ingest_test

import (
	"strings"
	"testing"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/workload"
)

// TestCSVDrivesRunningExample replays the CSV-decoded Figure 1 stream
// through the Listing 5 query and reproduces the Tables 5/6 outputs.
// It lives in an external package because the engine imports ingest.
func TestCSVDrivesRunningExample(t *testing.T) {
	elems, err := ingest.ReadCSV(strings.NewReader(ingest.Figure1CSV), ingest.RentalCSVMapping())
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New()
	col := &engine.Collector{}
	if _, err := e.RegisterSource(workload.StudentTrickQuery, col.Sink()); err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		if err := e.Push(el.Graph, el.Time); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTo(el.Time); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := col.NonEmpty()
	if len(nonEmpty) != 2 {
		t.Fatalf("non-empty emissions = %d, want 2", len(nonEmpty))
	}
	if u := nonEmpty[0].Table.Get(0, "r.user_id").Int(); u != 1234 {
		t.Errorf("first match user = %d", u)
	}
	if u := nonEmpty[1].Table.Get(0, "r.user_id").Int(); u != 5678 {
		t.Errorf("second match user = %d", u)
	}
}

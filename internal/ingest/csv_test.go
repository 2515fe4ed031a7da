package ingest

import (
	"strings"
	"testing"
	"time"
)

// Figure1CSV is the Figure 1 stream in the rental CSV format (exported
// for the external-package test in running_example_test.go).
const Figure1CSV = `ts,vehicle,electric,station,user,kind,at,duration,extra_label
2022-10-14T14:45:00,5,true,1,1234,rentedAt,2022-10-14T14:40:00,,EBike
2022-10-14T15:00:00,5,true,2,1234,returnedAt,2022-10-14T14:55:00,15,EBike
2022-10-14T15:00:00,6,false,2,1234,rentedAt,2022-10-14T14:57:00,,
2022-10-14T15:00:00,8,false,2,5678,rentedAt,2022-10-14T14:58:00,,
2022-10-14T15:15:00,6,false,3,1234,returnedAt,2022-10-14T15:13:00,16,
2022-10-14T15:20:00,8,false,3,5678,returnedAt,2022-10-14T15:15:00,17,
2022-10-14T15:20:00,7,true,3,5678,rentedAt,2022-10-14T15:18:00,,EBike
2022-10-14T15:40:00,7,true,4,5678,returnedAt,2022-10-14T15:35:00,17,EBike
`

func TestReadCSVFigure1(t *testing.T) {
	elems, err := ReadCSV(strings.NewReader(Figure1CSV), RentalCSVMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 5 {
		t.Fatalf("elements = %d, want 5", len(elems))
	}
	wantRels := []int{1, 3, 1, 2, 1}
	for i, e := range elems {
		if e.Graph.NumRels() != wantRels[i] {
			t.Errorf("element %d rels = %d, want %d", i, e.Graph.NumRels(), wantRels[i])
		}
		if err := e.Graph.Validate(); err != nil {
			t.Errorf("element %d: %v", i, err)
		}
	}
	// First rental has the right typed properties.
	r := elems[0].Graph.Rels()[0]
	if r.Type != "rentedAt" || r.Prop("user_id").Int() != 1234 {
		t.Errorf("first rel: %s %s", r.Type, r.Prop("user_id"))
	}
	if got := r.Prop("val_time").DateTime().Format("15:04"); got != "14:40" {
		t.Errorf("val_time = %s", got)
	}
	if !r.Prop("duration").IsNull() {
		t.Error("rental should have no duration")
	}
	// EBike label applied from the extra_label column.
	for _, n := range elems[0].Graph.Nodes() {
		if n.HasLabel("Bike") && n.Prop("id").Int() == 5 && !n.HasLabel("EBike") {
			t.Error("extra label missing")
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	m := RentalCSVMapping()
	cases := []struct {
		name string
		csv  string
	}{
		{"missing time column", "vehicle,station\n1,2\n"},
		{"bad timestamp", "ts,vehicle,electric,station,user,kind,at,duration,extra_label\nnope,1,true,1,1,rentedAt,2022-10-14T14:40:00,,\n"},
		{"bad node id", "ts,vehicle,electric,station,user,kind,at,duration,extra_label\n2022-10-14T14:45:00,xyz,true,1,1,rentedAt,2022-10-14T14:40:00,,\n"},
		{"empty required", "ts,vehicle,electric,station,user,kind,at,duration,extra_label\n2022-10-14T14:45:00,1,true,1,,rentedAt,2022-10-14T14:40:00,,\n"},
		{"empty type", "ts,vehicle,electric,station,user,kind,at,duration,extra_label\n2022-10-14T14:45:00,1,true,1,1,,2022-10-14T14:40:00,,\n"},
		{"out of order", Figure1CSV + "2022-10-14T15:00:00,9,false,1,1,rentedAt,2022-10-14T14:40:00,,\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv), m); err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestReadCSVGroupsEqualTimestamps(t *testing.T) {
	elems, err := ReadCSV(strings.NewReader(Figure1CSV), RentalCSVMapping())
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2022, 10, 14, 15, 0, 0, 0, time.UTC)
	if !elems[1].Time.Equal(want) || elems[1].Graph.NumRels() != 3 {
		t.Errorf("grouping: %s %d", elems[1].Time, elems[1].Graph.NumRels())
	}
}

func TestCSVDeterministicRelIDs(t *testing.T) {
	a, err := ReadCSV(strings.NewReader(Figure1CSV), RentalCSVMapping())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV(strings.NewReader(Figure1CSV), RentalCSVMapping())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ra, rb := a[i].Graph.Rels(), b[i].Graph.Rels()
		for j := range ra {
			if ra[j].ID != rb[j].ID {
				t.Fatal("relationship ids must be deterministic")
			}
		}
	}
}

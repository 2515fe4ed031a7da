package main

// oracle.go checks the measured server's answers while it is being
// timed. The specification side is from-scratch evaluation: a server
// built with no engine option (no delta maintenance, no sharing),
// driven in-process through the same HTTP handler so both sides render
// rows identically. referenceResults is the one place to swap in
// internal/refeval once it exists.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"seraph/internal/server"
)

// segment is a run of consecutive instants [first, first+n) checked on
// the listed queries (indices into the workload's query list).
type segment struct {
	first, n int
	queries  []int
}

// referenceResults evaluates a segment from scratch. The reference is
// registered at the segment's first instant and fed the whole widest
// window before it, so from the second instant on its emission state
// (what ON ENTERING / ON EXITING diff against) equals that of a server
// that has run since event 0. It returns raw rows per query per
// instant offset; offset 0 is the unchecked base.
func referenceResults(w *workloadSpec, qs []querySpec, in *inputs, seg segment) (map[int][][]byte, error) {
	h := server.New().Handler()
	call := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	start := in.elems[seg.first].Time
	for _, qi := range seg.queries {
		if code, body := call(http.MethodPost, "/queries", []byte(qs[qi].text(start))); !ok2xx(code) {
			return nil, fmt.Errorf("reference: register %s: %d %s", qs[qi].name, code, body)
		}
	}
	from := seg.first - w.widthSlides + 1
	if from < 0 {
		from = 0
	}
	if code, body := call(http.MethodPost, "/events", bytes.Join(in.lines[from:seg.first+seg.n], nil)); !ok2xx(code) {
		return nil, fmt.Errorf("reference: ingest: %d %s", code, body)
	}
	out := map[int][][]byte{}
	for _, qi := range seg.queries {
		code, body := call(http.MethodGet, "/queries/"+qs[qi].name+"/results", nil)
		if !ok2xx(code) {
			return nil, fmt.Errorf("reference: results of %s: %d", qs[qi].name, code)
		}
		var rs []polledResult
		if err := json.Unmarshal(body, &rs); err != nil {
			return nil, fmt.Errorf("reference: results of %s: %w", qs[qi].name, err)
		}
		if len(rs) != seg.n {
			return nil, fmt.Errorf("reference: %s produced %d results for %d instants", qs[qi].name, len(rs), seg.n)
		}
		rows := make([][]byte, seg.n)
		for i, r := range rs {
			rows[i] = r.Rows
		}
		out[qi] = rows
	}
	return out, nil
}

// canonBag renders a JSON array of row objects as a sorted list of
// canonical row encodings (encoding/json writes map keys sorted), so
// two results compare as bags.
func canonBag(rows []byte) ([]string, error) {
	var rs []map[string]any
	dec := json.NewDecoder(bytes.NewReader(rows))
	dec.UseNumber() // int64 sums must not round through float64
	if err := dec.Decode(&rs); err != nil {
		return nil, err
	}
	out := make([]string, len(rs))
	for i, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out, nil
}

func sameBag(a, b []byte) bool {
	ca, err1 := canonBag(a)
	cb, err2 := canonBag(b)
	if err1 != nil || err2 != nil || len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// oracleVerdict is the outcome of checking every sampled pair.
type oracleVerdict struct {
	checked    int
	mismatched int
	first      string      // first diverging (query, instant), for the log
	perQuery   map[int]int // pairs checked per query index
}

// checkSegments compares got[query][instant] with the reference on
// every sampled (query, instant) pair. A pair the server never
// delivered counts as a mismatch.
func checkSegments(w *workloadSpec, qs []querySpec, in *inputs, segs []segment, got func(q, instant int) ([]byte, bool)) (oracleVerdict, error) {
	v := oracleVerdict{perQuery: map[int]int{}}
	for _, seg := range segs {
		ref, err := referenceResults(w, qs, in, seg)
		if err != nil {
			return v, err
		}
		for _, qi := range seg.queries {
			for off := 1; off < seg.n; off++ {
				v.checked++
				v.perQuery[qi]++
				rows, ok := got(qi, seg.first+off)
				if ok && sameBag(rows, ref[qi][off]) {
					continue
				}
				v.mismatched++
				if v.first == "" {
					v.first = fmt.Sprintf("query %s at instant %d (%s): delivered=%v", qs[qi].name, seg.first+off,
						in.elems[seg.first+off].Time.Format("2006-01-02T15:04:05Z"), ok)
				}
			}
		}
	}
	return v, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/workpool"
)

// fixtureStore holds the FITS cutout of every galaxy a workload's archives
// can serve, rendered once in set-up. Serving /cutout from it keeps skysim
// rendering — the test fixture — out of the system's timed galaxies/s.
type fixtureStore struct {
	cutouts map[string][]byte // galaxy ID -> FITS bytes
	bytes   int64
}

// renderFixture renders every galaxy of clusters through the archive's own
// cutout path, spread over workers goroutines, so the stored bytes are the
// bytes the archive would have served.
func renderFixture(a *services.Archive, clusters []*skysim.Cluster, workers int) (*fixtureStore, error) {
	var ids []string
	for _, c := range clusters {
		for _, g := range c.Galaxies {
			ids = append(ids, g.ID)
		}
	}
	data := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	workpool.Run(workers, len(ids), func(i int) {
		_, data[i], errs[i] = a.CutoutFITS(ids[i])
	})
	fs := &fixtureStore{cutouts: make(map[string][]byte, len(ids))}
	for i, id := range ids {
		if errs[i] != nil {
			return nil, fmt.Errorf("fixture: render %s: %w", id, errs[i])
		}
		fs.cutouts[id] = data[i]
		fs.bytes += int64(len(data[i]))
	}
	return fs, nil
}

// layerOf names the layer a testbed request enters, or "" for traffic the
// benchmark does not time (RLS, registry, table operations).
func layerOf(host, path string) string {
	switch host {
	case "mast.nvo", "ned.nvo", "heasarc.nvo":
		switch path {
		case "/cone", "/sia", "/siacut", "/cutout":
			return "services." + path[1:]
		}
	case "compute.isi":
		switch path {
		case "/galmorph":
			return "webservice.submit"
		case "/status":
			return "webservice.status"
		case "/result":
			return "webservice.result"
		}
	}
	return ""
}

// exchange is one catalog sent to the compute service and the result table
// it returned, kept for the VOTable codec replay.
type exchange struct{ catalog, result []byte }

// transport wraps a testbed's Client.Transport. It serves /cutout from the
// fixture store and passes every other request through to the testbed's
// router. It always records the request IDs of accepted submissions (the
// benchmark reads their RunStats through Service.Status); with a recorder
// it also records one span per archive or compute-service call and keeps
// each request's catalog and result bytes.
type transport struct {
	next http.RoundTripper
	fix  *fixtureStore
	rec  *recorder // nil: untraced

	mu        sync.Mutex
	submitted []string
	exchanges []exchange
}

// take returns and clears what the transport collected since the last take.
func (t *transport) take() (submitted []string, exchanges []exchange) {
	t.mu.Lock()
	defer t.mu.Unlock()
	submitted, exchanges = t.submitted, t.exchanges
	t.submitted, t.exchanges = nil, nil
	return submitted, exchanges
}

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := layerOf(req.URL.Host, req.URL.Path)
	if name == "" {
		return t.next.RoundTrip(req)
	}
	var catalog []byte
	if t.rec != nil && name == "webservice.submit" && req.Body != nil {
		b, err := io.ReadAll(req.Body)
		_ = req.Body.Close() // in-memory body: a close cannot fail after a full read
		if err != nil {
			return nil, err
		}
		catalog = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}

	var start time.Duration
	if t.rec != nil {
		start = t.rec.at()
	}
	resp, fixed, err := t.serve(req, name)
	var end time.Duration
	if t.rec != nil {
		end = t.rec.at()
	}
	if err != nil {
		if t.rec != nil {
			t.rec.add(span{Name: name, Start: start, End: end, Failed: true})
		}
		return nil, err
	}
	s := span{Name: name, Start: start, End: end, Bytes: int64(fixed), Failed: resp.StatusCode >= 400}
	// Only the submit id, the poll state and the traced byte counts of
	// router responses need the body; everything else streams through.
	if fixed > 0 || (t.rec == nil && name != "webservice.submit") {
		if t.rec != nil {
			t.rec.add(s)
		}
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // in-memory body: a close cannot fail after a full read
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	s.Bytes = int64(len(body))
	switch name {
	case "webservice.submit":
		if resp.StatusCode == http.StatusAccepted {
			_, id, _ := strings.Cut(strings.TrimSpace(string(body)), "id=")
			t.mu.Lock()
			t.submitted = append(t.submitted, id)
			if t.rec != nil {
				t.exchanges = append(t.exchanges, exchange{catalog: catalog})
			}
			t.mu.Unlock()
		}
	case "webservice.status":
		var st struct{ State string }
		if json.Unmarshal(body, &st) == nil && st.State == "completed" {
			s.Done = true
		}
	case "webservice.result":
		t.mu.Lock()
		if n := len(t.exchanges); n > 0 {
			t.exchanges[n-1].result = body
		}
		t.mu.Unlock()
	}
	if t.rec != nil {
		t.rec.add(s)
	}
	return resp, nil
}

// serve answers one request: cutouts the fixture holds come from memory —
// fixed is then their length — and everything else from the testbed's
// router.
func (t *transport) serve(req *http.Request, name string) (resp *http.Response, fixed int, err error) {
	if name == "services.cutout" && t.fix != nil {
		if data, ok := t.fix.cutouts[req.URL.Query().Get("id")]; ok {
			if req.Body != nil {
				_ = req.Body.Close() // a GET carries no body worth reporting on
			}
			return &http.Response{
				Status:     http.StatusText(http.StatusOK),
				StatusCode: http.StatusOK,
				Proto:      "HTTP/1.1",
				ProtoMajor: 1,
				ProtoMinor: 1,
				Header:     http.Header{"Content-Type": {"application/fits"}},
				Body:       io.NopCloser(bytes.NewReader(data)),
				Request:    req,
			}, len(data), nil
		}
	}
	resp, err = t.next.RoundTrip(req)
	return resp, 0, err
}

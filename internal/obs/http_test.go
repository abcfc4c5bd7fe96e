package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testHandler(t *testing.T, pprofOn bool) http.Handler {
	t.Helper()
	r := NewRegistry()
	r.Counter("ops_total", "requests served").Add(5)
	status := func() any {
		return map[string]any{"mode": "coordinate", "done": 3, "total": 10}
	}
	return NewOpsHandler(r, status, pprofOn)
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestOpsEndpoints(t *testing.T) {
	h := testHandler(t, false)

	if rec := get(t, h, "/healthz", nil); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec := get(t, h, "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != TextContentType {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ops_total 5") {
		t.Errorf("/metrics missing counter:\n%s", rec.Body.String())
	}

	// pprof is absent unless enabled.
	if rec := get(t, h, "/debug/pprof/", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof = %d, want 404", rec.Code)
	}
	if rec := get(t, testHandler(t, true), "/debug/pprof/", nil); rec.Code != 200 {
		t.Errorf("/debug/pprof/ with -pprof = %d, want 200", rec.Code)
	}
}

// TestStatusJSONRoundTrip: the /status body is valid JSON whose fields
// survive a marshal→serve→parse round trip, whatever format the client
// asks for: there is no other rendering.
func TestStatusJSONRoundTrip(t *testing.T) {
	h := testHandler(t, false)
	for _, tc := range []struct {
		path string
		hdr  map[string]string
	}{
		{"/status", nil},
		{"/status?format=html", nil},
		{"/status", map[string]string{"Accept": "text/html"}},
	} {
		rec := get(t, h, tc.path, tc.hdr)
		if rec.Code != 200 {
			t.Fatalf("%s %v = %d", tc.path, tc.hdr, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %v content type = %q", tc.path, tc.hdr, ct)
		}
		var got map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s %v is not JSON: %v\n%s", tc.path, tc.hdr, err, rec.Body.String())
		}
		if got["mode"] != "coordinate" || got["done"] != float64(3) || got["total"] != float64(10) {
			t.Errorf("%s %v round trip = %v", tc.path, tc.hdr, got)
		}
	}
}

func TestStartOps(t *testing.T) {
	srv, err := StartOps("127.0.0.1:0", testHandler(t, false))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("healthz over TCP = %d %q", resp.StatusCode, body)
	}
}

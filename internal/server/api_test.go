package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/acis-lab/larpredictor/internal/engine"
)

// fetchEnvelope performs a request and decodes the unified error envelope,
// failing the test if the body is not one.
func fetchEnvelope(t *testing.T, method, url, body string) (*http.Response, ErrorEnvelope) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s %s: body is not an error envelope: %v\n%s", method, url, err, raw)
	}
	return resp, env
}

// TestErrorEnvelopeShapes table-tests every /v1 handler's error responses:
// each must carry the unified {"error":{"code","message"}} envelope with the
// right status and machine code.
func TestErrorEnvelopeShapes(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1},
		Config{MaxBodyBytes: 512, MaxBulkStreams: 3})
	// One known stream so history/forecast 404s are about the asked-for ID.
	postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "known", TS: 1, Value: 1})
	env.eng.Drain()

	big := strings.Repeat(`{"stream":"s","value":1},`, 40)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"ingest malformed json", "POST", "/v1/ingest", "{not json", 400, CodeBadRequest},
		{"ingest no samples", "POST", "/v1/ingest", "{}", 400, CodeNoSamples},
		{"ingest empty stream", "POST", "/v1/ingest",
			`{"samples":[{"stream":"","value":1}]}`, 400, CodeEmptyStream},
		{"ingest oversized body", "POST", "/v1/ingest",
			`{"samples":[` + big[:len(big)-1] + `]}`, 413, CodeBodyTooLarge},
		{"forecast unknown stream", "GET", "/v1/forecast/nope", "", 404, CodeUnknownStream},
		{"history unknown stream", "GET", "/v1/forecast/nope/history", "", 404, CodeUnknownStream},
		{"history bad from", "GET", "/v1/forecast/known/history?from=abc", "", 400, CodeBadRange},
		{"history bad to", "GET", "/v1/forecast/known/history?to=abc", "", 400, CodeBadRange},
		{"history inverted range", "GET", "/v1/forecast/known/history?from=9&to=3", "", 400, CodeBadRange},
		{"history bad step", "GET", "/v1/forecast/known/history?step=-2", "", 400, CodeBadRange},
		{"history bad limit", "GET", "/v1/forecast/known/history?limit=0", "", 400, CodeBadLimit},
		{"bulk empty stream element", "GET", "/v1/forecasts?streams=a,,b", "", 400, CodeEmptyStream},
		{"bulk too many streams", "GET", "/v1/forecasts?streams=a,b,c,d", "", 400, CodeTooManyStreams},
		{"bulk bad limit", "GET", "/v1/forecasts?limit=0", "", 400, CodeBadLimit},
		{"streams bad cursor", "GET", "/v1/streams?cursor=%ff", "", 400, CodeBadCursor},
		{"streams bad limit", "GET", "/v1/streams?limit=zero", "", 400, CodeBadLimit},
		{"streams deprecated bad offset", "GET", "/v1/streams?offset=-1", "", 400, CodeBadRequest},
		{"subscribe missing streams", "GET", "/v1/subscribe", "", 400, CodeBadRequest},
		{"subscribe too many streams", "GET", "/v1/subscribe?streams=a,b,c,d", "", 400, CodeTooManyStreams},
		{"subscribe bad resume id", "GET",
			"/v1/subscribe?streams=known&last_event_id=garbage", "", 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, got := fetchEnvelope(t, tc.method, env.ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if got.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", got.Error.Code, tc.wantCode)
			}
			if got.Error.Message == "" {
				t.Error("empty error message")
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
		})
	}

	t.Run("ingest while draining", func(t *testing.T) {
		env.srv.draining.Store(true)
		defer env.srv.draining.Store(false)
		resp, got := fetchEnvelope(t, "POST", env.ts.URL+"/v1/ingest",
			`{"stream":"s","value":1}`)
		if resp.StatusCode != 503 || got.Error.Code != CodeDraining {
			t.Errorf("draining ingest = %d code %q, want 503 %q",
				resp.StatusCode, got.Error.Code, CodeDraining)
		}
	})
}

// TestStreamsCursorPagination walks the cursor contract across /v1/streams.
func TestStreamsCursorPagination(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 3}, Config{})
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		if err := env.eng.Register(id, newOnline(t)); err != nil {
			t.Fatal(err)
		}
	}

	var seen []string
	cursor := ""
	for page := 0; ; page++ {
		if page > len(ids) {
			t.Fatal("cursor pagination did not terminate")
		}
		var sr StreamsResponse
		url := fmt.Sprintf("%s/v1/streams?limit=2&cursor=%s", env.ts.URL, cursor)
		resp := getJSON(t, url, &sr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("streams status = %d", resp.StatusCode)
		}
		if sr.Total != len(ids) {
			t.Fatalf("total = %d, want %d", sr.Total, len(ids))
		}
		for _, s := range sr.Streams {
			seen = append(seen, s.ID)
		}
		if sr.NextCursor == "" {
			break
		}
		cursor = sr.NextCursor
	}
	if strings.Join(seen, "") != "abcde" {
		t.Errorf("paginated IDs = %v, want sorted a..e exactly once", seen)
	}

}

// TestBulkForecastsNamed covers the dashboard fan-out: named streams with
// missing IDs reported, a strong ETag, a 304 on If-None-Match, and the tag
// changing once any requested stream processes a new sample.
func TestBulkForecastsNamed(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 2}, Config{})
	batch := IngestRequest{}
	for i := 1; i <= 30; i++ {
		batch.Samples = append(batch.Samples,
			IngestSample{Stream: "web/1", TS: int64(i), Value: signal(i)},
			IngestSample{Stream: "web/2", TS: int64(i), Value: signal(i + 3)},
		)
	}
	if resp, body := postJSON(t, env.ts.URL+"/v1/ingest", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	env.eng.Drain()

	url := env.ts.URL + "/v1/forecasts?streams=" + strings.ReplaceAll("web/1,web/2,ghost", "/", "%2F")
	var br BulkForecastsResponse
	resp := getJSON(t, url, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status = %d", resp.StatusCode)
	}
	if len(br.Streams) != 2 || br.Streams[0].Stream != "web/1" || br.Streams[1].Stream != "web/2" {
		t.Fatalf("bulk streams = %+v, want web/1 and web/2 in request order", br.Streams)
	}
	if len(br.Missing) != 1 || br.Missing[0] != "ghost" {
		t.Errorf("missing = %v, want [ghost]", br.Missing)
	}
	if br.Streams[0].Forecast == nil {
		t.Error("bulk document lacks the forecast")
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"f`) {
		t.Fatalf("ETag = %q, want a strong f-prefixed tag", etag)
	}

	// Conditional get: nothing changed, so 304 with an empty body.
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("If-None-Match", etag)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotModified || len(raw) != 0 {
		t.Fatalf("conditional get = %d with %d body bytes, want bare 304", cresp.StatusCode, len(raw))
	}

	// One new sample on a requested stream invalidates the tag.
	postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "web/2", TS: 31, Value: 5})
	env.eng.Drain()
	cresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Errorf("post-ingest conditional get = %d, want 200", cresp.StatusCode)
	}
	if fresh := cresp.Header.Get("ETag"); fresh == etag || fresh == "" {
		t.Errorf("ETag did not change after new sample: %q", fresh)
	}
}

// TestBulkForecastsCursor pages all streams through the bulk endpoint's
// cursor form.
func TestBulkForecastsCursor(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 2}, Config{})
	for _, id := range []string{"a", "b", "c"} {
		if err := env.eng.Register(id, newOnline(t)); err != nil {
			t.Fatal(err)
		}
	}
	var br BulkForecastsResponse
	if resp := getJSON(t, env.ts.URL+"/v1/forecasts?limit=2", &br); resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk page 1 = %d", resp.StatusCode)
	}
	if len(br.Streams) != 2 || br.NextCursor != "b" {
		t.Fatalf("page 1 = %d docs next %q, want 2 docs cursor b", len(br.Streams), br.NextCursor)
	}
	var br2 BulkForecastsResponse
	if resp := getJSON(t, env.ts.URL+"/v1/forecasts?limit=2&cursor="+br.NextCursor, &br2); resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk page 2 = %d", resp.StatusCode)
	}
	if len(br2.Streams) != 1 || br2.Streams[0].Stream != "c" || br2.NextCursor != "" {
		t.Errorf("page 2 = %+v, want just c and no cursor", br2)
	}
}

// TestHistoryEndpoint reads a stream's history over HTTP at raw and
// consolidated resolutions, with TS bounds.
func TestHistoryEndpoint(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{
		History: func() *HistoryStore {
			h, err := NewHistoryStore(HistoryConfig{RawRows: 32, Tiers: []HistoryTier{{Steps: 8, Rows: 16}}})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}(),
	})
	batch := IngestRequest{}
	for i := 1; i <= 40; i++ {
		batch.Samples = append(batch.Samples, IngestSample{Stream: "s", TS: int64(i), Value: signal(i)})
	}
	if resp, body := postJSON(t, env.ts.URL+"/v1/ingest", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	env.eng.Drain()

	var hr HistoryResponse
	if resp := getJSON(t, env.ts.URL+"/v1/forecast/s/history", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("history status = %d", resp.StatusCode)
	}
	if hr.Stream != "s" || hr.Seq != 40 || hr.Resolution != 1 {
		t.Fatalf("history doc = stream %q seq %d res %d, want s/40/1", hr.Stream, hr.Seq, hr.Resolution)
	}
	if len(hr.Entries) != 32 || hr.Entries[0].Seq != 9 || hr.Entries[31].Seq != 40 {
		t.Fatalf("raw entries = %d spanning %d..%d, want ring capacity 32 (seq 9..40)",
			len(hr.Entries), hr.Entries[0].Seq, hr.Entries[len(hr.Entries)-1].Seq)
	}
	// The predictor trains after 20 samples: late entries must be paired.
	last := hr.Entries[len(hr.Entries)-1]
	if !last.HasPred || last.Pred == 0 {
		t.Errorf("latest entry unpaired after training: %+v", last)
	}

	// TS-bounded raw read.
	var bounded HistoryResponse
	getJSON(t, env.ts.URL+"/v1/forecast/s/history?from=10&to=12", &bounded)
	if len(bounded.Entries) != 3 || bounded.Entries[0].TS != 10 {
		t.Errorf("bounded read = %+v, want TS 10..12", bounded.Entries)
	}

	// Consolidated read: 40 steps = 5 full rows of 8.
	var coarse HistoryResponse
	getJSON(t, env.ts.URL+"/v1/forecast/s/history?step=8", &coarse)
	if coarse.Resolution != 8 || len(coarse.Rows) != 5 {
		t.Fatalf("coarse read = res %d rows %d, want 8/5", coarse.Resolution, len(coarse.Rows))
	}
	r := coarse.Rows[4]
	if r.Count != 8 || r.EndSeq != 40 || r.ActualMin > r.ActualAvg || r.ActualAvg > r.ActualMax {
		t.Errorf("last row inconsistent: %+v", r)
	}
	if r.Predicted == 0 || r.AbsErrAvg <= 0 {
		t.Errorf("trained row has no forecast stats: %+v", r)
	}
}

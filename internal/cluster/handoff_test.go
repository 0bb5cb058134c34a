package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
)

// newHandoffNode builds one member's serving state and its Node, neither
// started nor listening: handoff tests serve a node's Handler themselves.
func newHandoffNode(t testing.TB, self string, members []Member, logw io.Writer) *testNode {
	t.Helper()
	tn := &testNode{id: self, cache: server.NewResultCache(), hist: newTestHistory(t), dedup: server.NewDedup()}
	var err error
	tn.eng, err = engine.New(engine.Config{
		Shards:    1,
		NewStream: quickOnline(t),
		OnResult:  func(r engine.Result) { tn.cache.Record(r); tn.hist.Record(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.eng.Close() })
	tn.node, err = New(Config{
		Self:        self,
		Members:     members,
		Replication: len(members), // every member holds every stream
		Engine:      tn.eng,
		Cache:       tn.cache,
		Dedup:       tn.dedup,
		History:     tn.hist,
		Registry:    obs.NewRegistry(),
		Logw:        logw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// handoffMembers is a two-member cluster whose source member n0 serves at
// addr; the puller n1 is never dialled.
func handoffMembers(addr string) []Member {
	return []Member{{ID: "n0", Addr: addr}, {ID: "n1", Addr: "127.0.0.1:1"}}
}

// servePeer serves h as member n0 and returns its address.
func servePeer(t testing.TB, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// fullStreamState is one trained predictor and history rings filled to the
// default capacity (512 raw steps, 360 rows in each tier), built by
// recording results into the history store directly rather than by
// stepping a predictor through them.
func fullStreamState(t testing.TB) server.StreamState {
	t.Helper()
	src := newHandoffNode(t, "n0", handoffMembers("127.0.0.1:1"), io.Discard)
	batch := make([]engine.Sample, 40)
	for i := range batch {
		batch[i] = engine.Sample{ID: "seed", TS: int64(i + 1), Value: 10 + 3*math.Sin(float64(i)/4)}
	}
	if _, err := src.eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	src.eng.Drain()
	st, err := server.CaptureStream(src.eng, src.cache, src.hist, "seed", new(bytes.Buffer), nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := newTestHistory(t)
	experts := []string{"AR(16)", "LAST", "SW_AVG(8)", "BM(12)"}
	const steps = 100_000 // more than the 512 + 16·360 + 256·360 steps the rings span
	for i := 1; i <= steps; i++ {
		v := 50 + 20*math.Sin(float64(i)/37) + 3*math.Cos(float64(i)/5)
		hist.Record(engine.Result{
			Sample: engine.Sample{ID: "seed", TS: 1_700_000_000 + int64(i), Value: v},
			Pred:   core.Prediction{Value: v + math.Sin(float64(i)), StdEstimate: 0.75, SelectedName: experts[i%len(experts)]},
		})
	}
	st.History, _ = hist.State("seed")
	if len(st.History.Raw) != 512 || len(st.History.Tiers) != 2 ||
		len(st.History.Tiers[0].Rows) != 360 || len(st.History.Tiers[1].Rows) != 360 {
		t.Fatalf("history rings not full: %d raw, tiers %+v", len(st.History.Raw), len(st.History.Tiers))
	}
	st.Cache.LastTS = 1_700_000_000 + steps
	return st
}

// reads serves GET path from a daemon holding tn's state: ETag and body.
func reads(t testing.TB, tn *testNode, path string) string {
	t.Helper()
	srv, err := server.New(server.Config{Engine: tn.eng, Cache: tn.cache, History: tn.hist, Applied: tn.dedup.Applied})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Header().Get("ETag") + " " + rec.Body.String()
}

// TestHandoffManyFullStreams: a handoff of 1,200 streams with full default
// history rings installs every stream, merges every stream's dedup
// coverage, and serves the source's forecast and history reads byte for
// byte. The response (about 120 MB) is read one stream at a time, so its
// total size bounds nothing; as one JSON document these streams come to
// about 400 MB, over the 256 MiB cap such a handoff needed.
func TestHandoffManyFullStreams(t *testing.T) {
	if testing.Short() || raceEnabled {
		// About 330 MB of peak RSS, and over 1 GB under -race; the cut and
		// parent-format tests cover the same path with a few streams.
		t.Skip("hands off 1,200 streams with full history rings")
	}
	// Collect often: both sides' live state is most of the heap.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	const streams = 1200
	seed := fullStreamState(t)
	src := newHandoffNode(t, "n0", handoffMembers("127.0.0.1:1"), io.Discard)
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("full/%04d", i)
		// Every stream differs in its serving snapshot, its history seq and
		// its dedup coverage, so a record installed under the wrong ID shows.
		st := seed
		st.Cache.LastTS += int64(i)
		st.Cache.LastValue += float64(i)
		st.History.Seq += uint64(i)
		if err := server.InstallStream(src.eng, src.cache, src.hist, ids[i], st); err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= uint64(i%7+1); seq++ {
			src.dedup.Apply(ids[i], "src", seq)
		}
	}

	var log bytes.Buffer
	dst := newHandoffNode(t, "n1", handoffMembers(servePeer(t, src.node.Handler())), &log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if got := dst.node.PullHandoff(ctx); got != streams {
		t.Fatalf("PullHandoff installed %d streams, want %d; log:\n%s", got, streams, log.String())
	}
	for i, id := range ids {
		if got, _ := dst.dedup.Applied(id); got != uint64(i%7+1) {
			t.Fatalf("%s: merged applied = %d, want %d", id, got, i%7+1)
		}
	}
	for i := 0; i < streams; i += 97 {
		esc := "/v1/forecast/" + url.PathEscape(ids[i])
		for _, p := range []string{esc, esc + "/history", esc + "/history?step=16", esc + "/history?step=256"} {
			if got, want := reads(t, dst, p), reads(t, src, p); got != want {
				t.Errorf("GET %s after handoff:\n got %.300s\nwant %.300s", p, got, want)
			}
		}
	}
}

// handoffBody is what n0 answers a handoff request from n1 with: the
// body, the offset at which its header ends and each of its records ends,
// and the records' stream IDs in order.
func handoffBody(t testing.TB, src *testNode) (body []byte, hdrEnd int, ends []int, order []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	src.node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/handoff?node=n1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("handoff: HTTP %d: %s", rec.Code, rec.Body)
	}
	body = rec.Body.Bytes()
	// The reader consumes a bytes.Reader message by message, so its
	// position after each value is where that value ends.
	r := bytes.NewReader(body)
	var streams int
	rr, err := durable.NewStreamReader[server.StreamRecord](r, &streams)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd = len(body) - r.Len()
	err = rr.ReadRecords(streams, func(rec *server.StreamRecord) error {
		ends = append(ends, len(body)-r.Len())
		order = append(order, rec.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, hdrEnd, ends, order
}

// trainedSource is member n0 holding three trained streams fed by keyed
// samples, so each carries dedup coverage.
func trainedSource(t testing.TB) (*testNode, []string) {
	t.Helper()
	src := newHandoffNode(t, "n0", handoffMembers("127.0.0.1:1"), io.Discard)
	ids := []string{"cut/a", "cut/b", "cut/c"}
	for i, id := range ids {
		batch := make([]engine.Sample, 0, 40)
		for seq := 1; seq <= 30+5*i; seq++ {
			src.dedup.Apply(id, "src", uint64(seq))
			batch = append(batch, engine.Sample{ID: id, TS: int64(seq), Value: 10 + float64(i) + 3*math.Sin(float64(seq)/4)})
		}
		if _, err := src.eng.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	src.eng.Drain()
	return src, ids
}

// TestHandoffCutMidRecord: a response cut anywhere installs exactly the
// records that arrived whole, with their dedup windows merged, logs the
// cut, and takes nothing of the partial record.
func TestHandoffCutMidRecord(t *testing.T) {
	src, ids := trainedSource(t)
	body, start, ends, order := handoffBody(t, src)
	if len(order) != len(ids) {
		t.Fatalf("handoff holds %d records, want %d", len(order), len(ids))
	}
	for k, end := range ends {
		// Between records, inside the record, and one byte short of it.
		for _, cut := range []int{start, start + (end-start)/2, end - 1} {
			t.Run(fmt.Sprintf("record %d at byte %d", k, cut), func(t *testing.T) {
				addr := servePeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Write(body[:cut])
				}))
				var log bytes.Buffer
				dst := newHandoffNode(t, "n1", handoffMembers(addr), &log)
				if got := dst.node.PullHandoff(context.Background()); got != k {
					t.Fatalf("PullHandoff installed %d streams, want the %d before the cut; log:\n%s", got, k, log.String())
				}
				if want := fmt.Sprintf("record %d of %d does not decode", k, len(ids)); !strings.Contains(log.String(), want) {
					t.Errorf("log %q does not report the cut (%q)", log.String(), want)
				}
				for i, id := range order {
					_, installed := dst.eng.Stats(id)
					_, cached := dst.cache.Latest(id)
					applied, merged := dst.dedup.Applied(id)
					if i < k {
						want, _ := src.dedup.Applied(id)
						if !installed || !cached || dst.hist.Seq(id) != src.hist.Seq(id) || applied != want {
							t.Errorf("%s, whole before the cut: installed %v, cached %v, history seq %d (want %d), applied %d (want %d)",
								id, installed, cached, dst.hist.Seq(id), src.hist.Seq(id), applied, want)
						}
						continue
					}
					if installed || cached || dst.hist.Seq(id) != 0 || merged {
						t.Errorf("%s, at or after the cut: installed %v, cached %v, history seq %d, windows merged %v (applied %d)",
							id, installed, cached, dst.hist.Seq(id), merged, applied)
					}
				}
			})
		}
		start = end
	}
}

// TestHandoffFreshestCopyWins: of the local copy and every peer's, the
// copy with the most applied samples is the one the puller serves, the
// stream counts once however many records it installed on the way there,
// and every peer's dedup windows merge even when the local copy wins.
func TestHandoffFreshestCopyWins(t *testing.T) {
	const stream = "fresh/a"
	// feed applies keyed samples 1..n of stream to tn.
	feed := func(tn *testNode, n int) {
		t.Helper()
		batch := make([]engine.Sample, 0, n)
		for seq := 1; seq <= n; seq++ {
			tn.dedup.Apply(stream, "src", uint64(seq))
			batch = append(batch, engine.Sample{ID: stream, TS: int64(seq), Value: 10 + 3*math.Sin(float64(seq)/4)})
		}
		if _, err := tn.eng.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		tn.eng.Drain()
	}
	members := func(n0, n1 string) []Member {
		return []Member{{ID: "n0", Addr: n0}, {ID: "n1", Addr: n1}, {ID: "n2", Addr: "127.0.0.1:1"}}
	}
	behind := newHandoffNode(t, "n0", members("127.0.0.1:1", "127.0.0.1:1"), io.Discard)
	feed(behind, 30)
	ahead := newHandoffNode(t, "n1", members("127.0.0.1:1", "127.0.0.1:1"), io.Discard)
	feed(ahead, 40)
	peers := members(servePeer(t, behind.node.Handler()), servePeer(t, ahead.node.Handler()))
	history := "/v1/forecast/" + url.PathEscape(stream) + "/history"
	// Peers are asked in map order, so each case runs several times to see
	// the behind peer answer first, which installs the stream twice.
	for _, local := range []int{0, 35, 50} {
		for try := 0; try < 8; try++ {
			t.Run(fmt.Sprintf("local copy applied %d", local), func(t *testing.T) {
				dst := newHandoffNode(t, "n2", peers, io.Discard)
				feed(dst, local)
				want, wantRestored := ahead, 1
				if local > 40 {
					want, wantRestored = dst, 0
				}
				wantHistory := reads(t, want, history)
				if got := dst.node.PullHandoff(context.Background()); got != wantRestored {
					t.Fatalf("PullHandoff installed %d streams, want %d", got, wantRestored)
				}
				if got := dst.node.handoffReceived.Value(); got != uint64(wantRestored) {
					t.Errorf("handoff streams received = %d, want %d", got, wantRestored)
				}
				if got := reads(t, dst, history); got != wantHistory {
					t.Errorf("history after handoff:\n got %.300s\nwant %.300s", got, wantHistory)
				}
				if got, _ := dst.dedup.Applied(stream); got != uint64(max(local, 40)) {
					t.Errorf("merged applied = %d, want %d", got, max(local, 40))
				}
			})
		}
	}
}

// TestHandoffParentFormatPeer: peers of the release that shipped the
// handoff as one JSON document are refused in both directions. Such a
// requester names itself in a JSON body and gets a 400; such a server
// refuses a request without that body, or answers with JSON, and the
// puller logs it and installs nothing.
func TestHandoffParentFormatPeer(t *testing.T) {
	src, ids := trainedSource(t)

	t.Run("JSON request", func(t *testing.T) {
		rec := httptest.NewRecorder()
		src.node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/handoff",
			strings.NewReader(`{"node":"n1"}`)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("JSON handoff request: HTTP %d, want 400: %s", rec.Code, rec.Body)
		}
		if got := src.node.handoffServed.Value(); got != 0 {
			t.Errorf("%d streams served to a JSON request", got)
		}
	})

	// The document a parent-format peer served: one JSON object holding
	// every stream's state and coverage.
	doc := map[string]any{"node": "n0"}
	streams := map[string]any{}
	for _, id := range ids {
		st, err := server.CaptureStream(src.eng, src.cache, src.hist, id, new(bytes.Buffer), nil)
		if err != nil {
			t.Fatal(err)
		}
		windows, applied, _ := src.dedup.StreamState(id)
		streams[id] = map[string]any{"online": st.Online, "cache": st.Cache, "history": st.History,
			"applied": applied, "windows": windows}
	}
	doc["streams"] = streams
	jsonDoc, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		status      int
		contentType string
		body        []byte
	}{
		{"bodiless request refused", http.StatusBadRequest, "text/plain; charset=utf-8", []byte("bad handoff request\n")},
		{"JSON response", http.StatusOK, "application/json", jsonDoc},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr := servePeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", c.contentType)
				w.WriteHeader(c.status)
				w.Write(c.body)
			}))
			var log bytes.Buffer
			dst := newHandoffNode(t, "n1", handoffMembers(addr), &log)
			if got := dst.node.PullHandoff(context.Background()); got != 0 {
				t.Fatalf("PullHandoff installed %d streams from a parent-format peer", got)
			}
			if !strings.Contains(log.String(), "handoff pull from n0") {
				t.Errorf("log %q does not name the refused peer", log.String())
			}
			if n := dst.eng.EngineStats().Streams; n != 0 {
				t.Errorf("%d streams installed from a parent-format peer", n)
			}
			if st := dst.dedup.State(); len(st.Streams) != 0 {
				t.Errorf("dedup windows merged from a parent-format peer: %+v", st)
			}
		})
	}
}

package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"silo/internal/telemetry"
)

// sseEvent is one parsed frame off an SSE stream.
type sseEvent struct {
	name string
	data string
}

// readSSE parses frames from an event stream until the callback returns
// false or the stream ends.
func readSSE(r io.Reader, visit func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				if !visit(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return sc.Err()
}

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: decoding: %v", url, err)
	}
	return resp, m
}

// getMetrics returns the server's /metrics body.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	return string(body)
}

// commitSeries returns run id's silo_commits sample from a /metrics body.
func commitSeries(metrics string, id int) (int64, bool) {
	prefix := fmt.Sprintf(`silo_commits{run="%d",`, id)
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			var n int64
			if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &n); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestServeEndToEndSimCrashRecover is the PR's acceptance loop: start a
// run over HTTP, watch live telemetry arrive over SSE (transaction
// lifecycle, WPQ depth, log-buffer occupancy), pull the plug through the
// API, see the crash and the recovery phases stream back, and find the
// finished run reflected in /metrics.
func TestServeEndToEndSimCrashRecover(t *testing.T) {
	ts := startServer(t)

	// Paced slow enough that the crash lands mid-run (the full run is
	// ~280 k cycles, so 30 k cycles/s keeps it alive ~9 s; the crash
	// fires as soon as the first batches arrive, well before that).
	resp, created := postJSON(t, ts.URL+"/api/runs",
		`{"preset":"silo-queue-bounded-crash","cycles_per_sec":30000}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %v", resp.StatusCode, created)
	}
	id := int(created["id"].(float64))

	sseResp, err := http.Get(fmt.Sprintf("%s/api/runs/%d/events", ts.URL, id))
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	kinds := map[string]int{}
	var finalState, firstBatchState string
	crashSent := false
	var seen, crashAt, recoveryAt int // stream positions, 1-based; 0 = not yet
	deadline := time.AfterFunc(30*time.Second, func() { sseResp.Body.Close() })
	defer deadline.Stop()
	err = readSSE(sseResp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "batch":
			var events []wireEvent
			if err := json.Unmarshal([]byte(ev.data), &events); err != nil {
				t.Fatalf("batch decode: %v", err)
			}
			if firstBatchState == "" {
				// The run is paced over seconds: its first batch must
				// stream while it is still running, not at its end.
				var info Info
				getJSON(t, fmt.Sprintf("%s/api/runs/%d", ts.URL, id), &info)
				firstBatchState = info.State
			}
			for _, e := range events {
				kinds[e.Kind]++
				seen++
				switch {
				case e.Kind == "crash" && crashAt == 0:
					crashAt = seen
				case strings.HasPrefix(e.Kind, "recovery-") && recoveryAt == 0:
					recoveryAt = seen
				}
			}
			// Once live telemetry proves the run is underway, pull the plug.
			if !crashSent && kinds["tx-commit"] > 0 && kinds["wpq-write"] > 0 && kinds["logbuf-occ"] > 0 {
				crashSent = true
				r, body := postJSON(t, fmt.Sprintf("%s/api/runs/%d/crash", ts.URL, id), `{}`)
				if r.StatusCode != http.StatusAccepted {
					t.Fatalf("crash: status %d: %v", r.StatusCode, body)
				}
			}
		case "done":
			var info Info
			if err := json.Unmarshal([]byte(ev.data), &info); err != nil {
				t.Fatalf("done decode: %v", err)
			}
			finalState = info.State
			if info.Recovery == nil {
				t.Error("done Info lacks recovery summary")
			}
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	if !crashSent {
		t.Fatal("never saw enough live telemetry to send the crash")
	}
	for _, kind := range []string{"tx-begin", "tx-commit", "wpq-write", "logbuf-occ", "crash", "recovery-apply"} {
		if kinds[kind] == 0 {
			t.Errorf("SSE stream carried no %q events (saw %v)", kind, kinds)
		}
	}
	if finalState != StateRecovered {
		t.Fatalf("final state = %q, want %q", finalState, StateRecovered)
	}
	if firstBatchState != StateRunning {
		t.Errorf("first batch frame arrived with the run %q, want %q", firstBatchState, StateRunning)
	}
	if crashAt == 0 || recoveryAt == 0 || crashAt > recoveryAt {
		t.Errorf("crash marker at stream position %d, first recovery event at %d; want the crash first", crashAt, recoveryAt)
	}

	// The finished run shows up in the Prometheus exposition, labeled.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(mresp.Body)
	metrics := string(body)
	wantLabel := fmt.Sprintf(`run="%d"`, id)
	for _, want := range []string{
		"silo_serve_runs_started 1",
		"# TYPE silo_commits counter",
		wantLabel,
		`state="recovered"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	// The commit series is the machine's commit count: the run record's.
	var info Info
	getJSON(t, fmt.Sprintf("%s/api/runs/%d", ts.URL, id), &info)
	if n, ok := commitSeries(metrics, id); !ok || info.Sim == nil || n != info.Sim.Transactions {
		t.Errorf("silo_commits for run %d = %d (found %v), run record %+v", id, n, ok, info.Sim)
	}
}

// The pacer publishes the sink's pending batch before it sleeps: a
// handful of events, fewer than one batch, reach a subscriber during the
// pause instead of waiting for the batch to fill or the run to end.
func TestPacerFlushesBeforeSleep(t *testing.T) {
	sink := telemetry.NewLiveSink(0)
	sub := sink.Subscribe()
	defer sub.Cancel()
	tick := pacer(sink, 1_000_000)
	for i := 0; i < 3; i++ {
		sink.Event(telemetry.Event{Kind: telemetry.KTxCommit, A: int64(i)})
	}
	out := make([]telemetry.Event, 8)
	if n, _, _ := sub.Poll(out); n != 0 {
		t.Fatalf("%d events visible before the pacer ran", n)
	}
	tick(10_000) // 10 ms of simulated time ahead of the host: the pacer sleeps
	if n, _, _ := sub.Poll(out); n != 3 {
		t.Fatalf("after the pacer's sleep a subscriber sees %d events, want 3", n)
	}
}

// TestServeClusterCrashFailover drives the cluster path: a replicated
// cluster run, a node crash through the API, failover, and a terminal
// recovered state with a measured outage window.
func TestServeClusterCrashFailover(t *testing.T) {
	ts := startServer(t)
	resp, created := postJSON(t, ts.URL+"/api/runs",
		`{"preset":"cluster-r3-sync","cycles_per_sec":400000}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %v", resp.StatusCode, created)
	}
	id := int(created["id"].(float64))
	time.Sleep(300 * time.Millisecond) // let the cluster take some traffic
	if r, body := postJSON(t, fmt.Sprintf("%s/api/runs/%d/crash", ts.URL, id), `{"node":1}`); r.StatusCode != http.StatusAccepted {
		t.Fatalf("crash: status %d: %v", r.StatusCode, body)
	}

	var info Info
	for wait := 0; ; wait++ {
		getJSON(t, fmt.Sprintf("%s/api/runs/%d", ts.URL, id), &info)
		if info.State != StateRunning {
			break
		}
		if wait > 300 {
			t.Fatalf("cluster run never finished: %+v", info)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if info.State != StateRecovered {
		t.Fatalf("state = %q, want %q (%+v)", info.State, StateRecovered, info)
	}
	cl := info.Cluster
	if cl == nil {
		t.Fatal("no cluster summary")
	}
	if cl.Crashes != 1 || cl.Promotions < 1 {
		t.Errorf("crashes = %d, promotions = %d; want 1, ≥1", cl.Crashes, cl.Promotions)
	}
	if len(cl.Windows) == 0 || cl.Windows[0].WidthCycles <= 0 {
		t.Errorf("no outage window measured: %+v", cl.Windows)
	}
	if len(cl.Divergences) != 0 {
		t.Errorf("replica divergences: %v", cl.Divergences)
	}
	// Cluster nodes keep their own machines; the run exports no commit
	// series.
	if metrics := getMetrics(t, ts.URL); strings.Contains(metrics, "silo_commit") || strings.Contains(metrics, "silo_tx_latency") {
		t.Errorf("cluster run rendered commit series:\n%s", metrics)
	}
}

// TestServeRunToCompletion: an unpaced run finishes on its own and the
// stream ends with a done state.
func TestServeRunToCompletion(t *testing.T) {
	ts := startServer(t)
	_, created := postJSON(t, ts.URL+"/api/runs", `{"preset":"silo-btree"}`)
	id := int(created["id"].(float64))
	var info Info
	for wait := 0; ; wait++ {
		getJSON(t, fmt.Sprintf("%s/api/runs/%d", ts.URL, id), &info)
		if info.State != StateRunning {
			break
		}
		if wait > 300 {
			t.Fatal("run never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if info.State != StateDone {
		t.Fatalf("state = %q, want %q", info.State, StateDone)
	}
	if info.Sim == nil || info.Sim.Transactions != 4000 {
		t.Fatalf("sim summary = %+v, want 4000 tx", info.Sim)
	}
	if n, ok := commitSeries(getMetrics(t, ts.URL), id); !ok || n != info.Sim.Transactions {
		t.Errorf("silo_commits for run %d = %d (found %v), want %d", id, n, ok, info.Sim.Transactions)
	}
	// Late subscriber still sees a done event immediately.
	sseResp, err := http.Get(fmt.Sprintf("%s/api/runs/%d/events", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sawDone := false
	_ = readSSE(sseResp.Body, func(ev sseEvent) bool {
		if ev.name == "done" {
			sawDone = true
			return false
		}
		return true
	})
	if !sawDone {
		t.Fatal("late subscriber never saw done")
	}
}

// /metrics exports a run's snapshot by its state: a running run is
// skipped even if it holds metrics, and a terminal run that never
// committed renders no series without counting as active.
func TestMetricsSkipsRunsByState(t *testing.T) {
	s := NewServer()
	add := func(state string, metrics []telemetry.MetricValue) {
		r := &Run{kind: "sim", params: Params{Kind: "sim", Design: "Silo", Workload: "Btree"},
			sink: telemetry.NewLiveSink(0), state: StateRunning}
		s.mgr.add(r)
		if state != StateRunning {
			r.finish(state, "", metrics)
		} else {
			r.metrics = metrics
		}
	}
	add(StateRunning, []telemetry.MetricValue{{Name: "commits", Kind: "counter", Value: 9}})
	add(StateStopped, nil)
	add(StateDone, []telemetry.MetricValue{{Name: "commits", Kind: "counter", Value: 5}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	metrics := getMetrics(t, ts.URL)
	if !strings.Contains(metrics, "silo_serve_runs_active 1\n") {
		t.Errorf("want one active run:\n%s", metrics)
	}
	for id, want := range map[int]int64{1: -1, 2: -1, 3: 5} {
		n, ok := commitSeries(metrics, id)
		if (want < 0) == ok || (ok && n != want) {
			t.Errorf("run %d: silo_commits %d (found %v), want %d (-1 = none):\n%s", id, n, ok, want, metrics)
		}
	}
}

func TestServeAPIErrors(t *testing.T) {
	ts := startServer(t)

	if r, body := postJSON(t, ts.URL+"/api/runs", `{"preset":"no-such"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown preset: status %d: %v", r.StatusCode, body)
	}
	if r, body := postJSON(t, ts.URL+"/api/runs", `{"bogus_field":1}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d: %v", r.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/api/runs/99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing run: status %d", resp.StatusCode)
	}

	// Crashing an already-finished run conflicts.
	_, created := postJSON(t, ts.URL+"/api/runs", `{"preset":"silo-btree","txns":200}`)
	id := int(created["id"].(float64))
	var info Info
	for wait := 0; ; wait++ {
		getJSON(t, fmt.Sprintf("%s/api/runs/%d", ts.URL, id), &info)
		if info.State != StateRunning {
			break
		}
		if wait > 200 {
			t.Fatal("short run never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if r, body := postJSON(t, fmt.Sprintf("%s/api/runs/%d/crash", ts.URL, id), `{}`); r.StatusCode != http.StatusConflict {
		t.Errorf("crash after terminal: status %d: %v", r.StatusCode, body)
	}
}

func TestServeHealthzPresetsAndIndex(t *testing.T) {
	ts := startServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, b)
	}

	var presets []PresetInfo
	getJSON(t, ts.URL+"/api/presets", &presets)
	if len(presets) < 5 {
		t.Errorf("presets = %d, want several", len(presets))
	}
	seen := map[string]bool{}
	for _, p := range presets {
		seen[p.Params.Kind] = true
	}
	if !seen["sim"] || !seen["cluster"] {
		t.Errorf("presets missing a kind: %v", seen)
	}

	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "silo-serve") {
		t.Errorf("dashboard HTML lacks the title")
	}
	if !strings.Contains(string(b), "EventSource") {
		t.Errorf("dashboard lacks the SSE client")
	}
}

package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"subgraphmr"
	"subgraphmr/internal/failpoint"
)

// TestQueryTimeout504 pins the per-query deadline: a query whose execution
// outlives Config.QueryTimeout is cancelled and answered 504, and the
// service keeps serving afterwards.
func TestQueryTimeout504(t *testing.T) {
	_, ts := testServer(t, Config{
		Graphs:       map[string]*subgraphmr.Graph{"big": subgraphmr.CompleteGraph(40)},
		QueryTimeout: 50 * time.Millisecond,
	})
	// Every 5-subset of K40 is a K5 instance — far more work than 50ms.
	resp, err := http.Get(ts.URL + "/query?graph=big&sample=k5&strategy=bucket&k=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var qe queryError
	if err := json.NewDecoder(resp.Body).Decode(&qe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qe.Error, "deadline") {
		t.Fatalf("504 body %q does not mention the deadline", qe.Error)
	}

	// The service is unharmed: /healthz still answers.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a timed-out query: %d", hz.StatusCode)
	}
}

// TestInjectedCacheFillIs500NotCached: an injected plan-cache fill failure
// answers 500 (infrastructure, not the client's query), and the failure is
// not cached — the next identical query plans cleanly.
func TestInjectedCacheFillIs500NotCached(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{})
	if err := failpoint.Enable(failpoint.ServeCacheFill, "error*1"); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket&k=64"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected fill: status %d, want 500", resp.StatusCode)
	}

	var ok queryResponse
	r2 := getJSON(t, url, &ok)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("retry after injected fill: status %d, want 200 (failure must not be cached)", r2.StatusCode)
	}
	if ok.Cache != "miss" {
		t.Fatalf("retry cache=%q, want miss — the failed fill must not have populated the cache", ok.Cache)
	}
}

// TestInjectedAdmission503: an injected admission failure is answered 503
// before any engine work starts.
func TestInjectedAdmission503(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, ts := testServer(t, Config{})
	if err := failpoint.Enable(failpoint.ServeAdmission, "error*1"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket&k=64")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := s.pool.Admitted(); got != 0 {
		t.Fatalf("admission failpoint fired after the pool admitted %d queries", got)
	}
}

// TestSpillENOSPCStructured500 is the serve half of the chaos contract: an
// injected disk-full during a spilling query surfaces as a structured 500
// whose body names the failing stage, and /healthz stays green — engine
// failures are per-query, not service-fatal.
func TestSpillENOSPCStructured500(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{})
	if err := failpoint.Enable(failpoint.SpillCreate, "enospc"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=cascade&mem-budget=2048")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var qe queryError
	if err := json.NewDecoder(resp.Body).Decode(&qe); err != nil {
		t.Fatal(err)
	}
	if qe.Stage != "spill" {
		t.Fatalf("500 body stage %q, want %q (body: %+v)", qe.Stage, "spill", qe)
	}
	if !strings.Contains(qe.Error, "no space left") && !strings.Contains(qe.Error, "injected") {
		t.Fatalf("500 body %q names neither ENOSPC nor the injection", qe.Error)
	}

	failpoint.Reset()
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after an engine failure: %d", hz.StatusCode)
	}
	// And the very next query (no injection) succeeds.
	var ok queryResponse
	r := getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&strategy=cascade&mem-budget=2048", &ok)
	if r.StatusCode != http.StatusOK || ok.Count == 0 {
		t.Fatalf("recovery query: status %d count %d", r.StatusCode, ok.Count)
	}
}

// TestStreamEngineErrorTerminalLine: mid-stream engine failures cannot
// change the already-sent 200, so the error arrives as the terminal NDJSON
// line carrying the stage — a client that sees no summary line must
// discard the partial stream.
func TestStreamEngineErrorTerminalLine(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{})
	if err := failpoint.Enable(failpoint.SpillMerge, "error"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=cascade&mem-budget=2048&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var last streamLine
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if last.Count != nil {
			sawSummary = true
		}
	}
	if sawSummary {
		t.Fatal("failed stream still delivered a summary line — silent partial result")
	}
	if last.Error == "" {
		t.Fatalf("terminal line %+v carries no error", last)
	}
	if last.Stage != "spill" {
		t.Fatalf("terminal line stage %q, want %q", last.Stage, "spill")
	}
}

package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"subgraphmr"
)

// TestFailpointsFlagInjectsEngineError pins the -failpoints flag on the
// one-shot path: an armed spill-create ENOSPC makes a budgeted cascade's
// run() return the typed engine error instead of printing a partial count.
func TestFailpointsFlagInjectsEngineError(t *testing.T) {
	t.Cleanup(subgraphmr.ResetFailpoints)
	var out strings.Builder
	args := append([]string{
		"-sample", "triangle", "-strategy", "cascade",
		"-mem-budget", "2048", "-spill-dir", t.TempDir(),
		"-failpoints", "mr.spill.create=enospc",
	}, graphArgs...)
	err := run(args, &out)
	if err == nil {
		t.Fatalf("injected ENOSPC run succeeded:\n%s", out.String())
	}
	var ee *subgraphmr.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("CLI error is not an EngineError: %v", err)
	}
	if ee.Stage != "spill" {
		t.Fatalf("stage %q, want spill (err: %v)", ee.Stage, err)
	}
	if foundRe.MatchString(out.String()) {
		t.Fatalf("failed run still printed an instance count:\n%s", out.String())
	}
}

// TestFailpointsFlagRejectsBadSpec: a malformed or unknown spec fails fast
// at flag handling, before any graph work.
func TestFailpointsFlagRejectsBadSpec(t *testing.T) {
	t.Cleanup(subgraphmr.ResetFailpoints)
	for _, spec := range []string{"bogus", "mr.spill.write=frobnicate", "nosuch.site=error"} {
		var out strings.Builder
		err := run(append([]string{"-failpoints", spec}, graphArgs...), &out)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestServeFailpointsAndQueryTimeoutFlags boots serve with both new flags:
// the armed admission failpoint answers 503, and after disarming, a heavy
// query trips -query-timeout into a 504 while /healthz stays green.
func TestServeFailpointsAndQueryTimeoutFlags(t *testing.T) {
	t.Cleanup(subgraphmr.ResetFailpoints)
	var out strings.Builder
	srv, ln, err := startServe([]string{
		"-listen", "127.0.0.1:0",
		"-load", "big=complete:40",
		"-query-timeout", "50ms",
		"-failpoints", "serve.admission=error*1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/query?graph=big&sample=triangle&strategy=bucket&k=64")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("armed admission failpoint: status %d, want 503", resp.StatusCode)
	}

	// Budget spent; now the K5 query on K40 outlives the 50ms deadline.
	resp, err = http.Get(base + "/query?graph=big&sample=k5&strategy=bucket&k=64")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("-query-timeout: status %d, want 504 (body: %+v)", resp.StatusCode, body)
	}
	if !strings.Contains(body.Error, "deadline") {
		t.Fatalf("504 body %q does not mention the deadline", body.Error)
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after injected+timed-out queries: %d", hz.StatusCode)
	}
}

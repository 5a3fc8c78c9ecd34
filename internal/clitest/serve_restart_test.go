package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveProc is one running fexserve binary plus the address it bound.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	kernel string // the head-kernel body its startup line reports
}

// startServe launches fexserve with the given extra flags on an
// ephemeral port and waits for the "listening" log line to learn which
// port the kernel assigned.
func startServe(t *testing.T, bin string, extra ...string) *serveProc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting fexserve: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// The bound address is logged as `msg=listening addr=127.0.0.1:PORT`
	// (slog text format), after the startup line that names the kernel
	// body. Scan until it appears, then keep draining the pipe in the
	// background so the server never blocks on logging.
	addrCh := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		kernel := ""
		for sc.Scan() {
			line := sc.Text()
			for _, f := range strings.Fields(line) {
				if k, ok := strings.CutPrefix(f, "kernel="); ok && strings.Contains(line, "msg=startup") {
					kernel = k
				}
				if a, ok := strings.CutPrefix(f, "addr="); ok && strings.Contains(line, "msg=listening") {
					addrCh <- [2]string{a, kernel}
				}
			}
			if strings.Contains(line, "msg=listening") {
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()

	select {
	case got := <-addrCh:
		p := &serveProc{cmd: cmd, base: "http://" + got[0], kernel: got[1]}
		waitReady(t, p.base)
		return p
	case <-time.After(20 * time.Second):
		t.Fatal("fexserve never logged its listening address")
		return nil
	}
}

// sigterm sends SIGTERM and waits for a clean (code 0) exit — the drain
// path under test: flush and fsync the WAL, checkpoint, close.
func (p *serveProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("fexserve exited uncleanly after SIGTERM: %v", err)
	}
	p.cmd.Process = nil
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("fexserve never became ready")
}

func serveJSON(t *testing.T, method, url string, payload, out any) int {
	t.Helper()
	var body io.Reader
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestServeRestartPersistence is the drain-gap regression test: start
// fexserve with -data-dir, mutate the catalog over HTTP, SIGTERM it,
// restart on the same directory, and verify the surviving process
// serves exactly the acknowledged mutations — the proof that the
// shutdown path checkpointed (or at least fsynced) the WAL before exit.
func TestServeRestartPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "fexserve")
	dataDir := dir + "/state"

	s1 := startServe(t, bin, "-dim", "4", "-data-dir", dataDir)
	for i, v := range [][]float64{{5, 0, 0, 0}, {0, 5, 0, 0}, {0, 0, 5, 0}} {
		var got struct {
			ID int `json:"id"`
		}
		if code := serveJSON(t, http.MethodPost, s1.base+"/v1/items",
			map[string]any{"vector": v}, &got); code != http.StatusCreated {
			t.Fatalf("add: status %d", code)
		}
		if got.ID != i {
			t.Fatalf("add assigned id %d, want %d", got.ID, i)
		}
	}
	if code := serveJSON(t, http.MethodDelete, s1.base+"/v1/items/1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	s1.sigterm(t)

	s2 := startServe(t, bin, "-dim", "4", "-data-dir", dataDir)
	var info struct {
		Items  int    `json:"items"`
		Kernel string `json:"kernel"`
	}
	if code := serveJSON(t, http.MethodGet, s2.base+"/v1/info", nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Items != 2 {
		t.Fatalf("restarted catalog has %d items, want 2 (3 adds - 1 delete)", info.Items)
	}
	if info.Kernel == "" || info.Kernel != s2.kernel {
		t.Fatalf("/v1/info reports kernel %q, the startup line %q", info.Kernel, s2.kernel)
	}

	var sr struct {
		Results []struct {
			ID int `json:"id"`
		} `json:"results"`
	}
	if code := serveJSON(t, http.MethodPost, s2.base+"/v1/search",
		map[string]any{"vector": []float64{1, 0, 0.5, 0}, "k": 3}, &sr); code != http.StatusOK {
		t.Fatalf("search: status %d", code)
	}
	if len(sr.Results) != 2 {
		t.Fatalf("search returned %d results, want 2 (deleted item must stay gone)", len(sr.Results))
	}
	if sr.Results[0].ID != 0 || sr.Results[1].ID != 2 {
		t.Fatalf("search ranking %v, want ids [0 2]", sr.Results)
	}

	// The restart loaded the SIGTERM checkpoint: load time is exposed and
	// nothing needed replaying.
	resp, err := http.Get(s2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	metrics := string(raw)
	if !metricPositive(metrics, "fexipro_snapshot_load_seconds") {
		t.Fatalf("metrics missing positive fexipro_snapshot_load_seconds:\n%s", metrics)
	}
	if got := metricSample(metrics, "fexipro_wal_replays_total"); got != "0" {
		t.Fatalf("fexipro_wal_replays_total = %q, want 0 after a checkpointing shutdown", got)
	}
	s2.sigterm(t)
}

// metricSample returns the value of the first sample of the named
// family ("" if absent).
func metricSample(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			return fields[len(fields)-1]
		}
	}
	return ""
}

func metricPositive(body, name string) bool {
	s := metricSample(body, name)
	if s == "" {
		return false
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return false
	}
	return v > 0
}

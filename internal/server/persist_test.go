package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/server"
	"fexipro/internal/snap"
	"fexipro/internal/vec"
)

// Persistence tests: the server-level counterpart of the core recovery
// property tests. Everything goes through the HTTP handlers, so the
// acknowledged-iff-durable contract is tested at the boundary clients
// actually see.

func persistItems(n, d int, rng *rand.Rand) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func newPersistServer(t *testing.T, initial *vec.Matrix, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.NewWithConfig(initial, core.Options{SVD: true, Int: true, Reduction: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func persistPost(t *testing.T, ts *httptest.Server, path string, payload any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func addItem(t *testing.T, ts *httptest.Server, v []float64) int {
	t.Helper()
	status, body := persistPost(t, ts, "/v1/items", map[string]any{"vector": v})
	if status != http.StatusCreated {
		t.Fatalf("add: status %d: %s", status, body)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func deleteItem(t *testing.T, ts *httptest.Server, id int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/items/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete %d: status %d", id, resp.StatusCode)
	}
}

func infoItems(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Items int `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Items
}

func searchIDs(t *testing.T, ts *httptest.Server, q []float64, k int) []resultPair {
	t.Helper()
	status, body := persistPost(t, ts, "/v1/search", map[string]any{"vector": q, "k": k})
	if status != http.StatusOK {
		t.Fatalf("search: status %d: %s", status, body)
	}
	var out struct {
		Results []resultPair `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Results
}

type resultPair struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// metricValue scrapes /metrics for the first sample of the named family
// (any labels) and reports whether it was present.
func persistMetric(t *testing.T, ts *httptest.Server, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family sharing the prefix
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestPersistRecoverAcrossRestart: acknowledged mutations survive a
// restart through the WAL alone — no checkpoint runs — and the restarted
// server answers queries bit-identically to the pre-restart one.
func TestPersistRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	initial := persistItems(10, 4, rand.New(rand.NewSource(1)))
	cfg := server.Config{DataDir: dir, Shards: 2}

	srv1, ts1 := newPersistServer(t, initial, cfg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		v := make([]float64, 4)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		addItem(t, ts1, v)
	}
	deleteItem(t, ts1, 3)
	deleteItem(t, ts1, 11)

	q := []float64{0.5, -1.0, 0.25, 2.0}
	want := searchIDs(t, ts1, q, 6)
	wantItems := infoItems(t, ts1)
	if v, ok := persistMetric(t, ts1, "fexipro_wal_records_total"); !ok || v != 7 {
		t.Fatalf("fexipro_wal_records_total = %v (present=%v), want 7", v, ok)
	}
	ts1.Close()
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newPersistServer(t, initial, cfg)
	if got := infoItems(t, ts2); got != wantItems {
		t.Fatalf("restarted item count %d, want %d", got, wantItems)
	}
	got := searchIDs(t, ts2, q, 6)
	if len(got) != len(want) {
		t.Fatalf("restarted search returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: restarted %+v, original %+v", i, got[i], want[i])
		}
	}
	if v, ok := persistMetric(t, ts2, "fexipro_wal_replays_total"); !ok || v != 7 {
		t.Fatalf("fexipro_wal_replays_total = %v (present=%v), want 7", v, ok)
	}
	if v, ok := persistMetric(t, ts2, "fexipro_snapshot_load_seconds"); !ok || v <= 0 {
		t.Fatalf("fexipro_snapshot_load_seconds = %v (present=%v), want > 0", v, ok)
	}
}

// TestPersistFreshDirInitializes: the first boot on an empty directory
// builds from the initial matrix and immediately checkpoints, so the
// files exist before any mutation and the next boot loads.
func TestPersistFreshDirInitializes(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newPersistServer(t, persistItems(8, 3, rand.New(rand.NewSource(7))), server.Config{DataDir: dir})
	for _, f := range []string{core.SnapshotFile, core.WALFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("first boot did not create %s: %v", f, err)
		}
	}
	if v, ok := persistMetric(t, ts, "fexipro_snapshot_save_seconds"); !ok || v <= 0 {
		t.Fatalf("fexipro_snapshot_save_seconds = %v (present=%v), want > 0 after init checkpoint", v, ok)
	}
	if v, ok := persistMetric(t, ts, "fexipro_snapshot_load_seconds"); !ok || v != 0 {
		t.Fatalf("fexipro_snapshot_load_seconds = %v (present=%v), want 0 on first boot", v, ok)
	}
	ts.Close()
	if err := srv.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistFreshDirRefusesStaleWAL: a data dir whose WAL holds
// records but which has no snapshot fails the boot typed
// (snap.ErrChecksum) instead of keeping those records for the next boot
// to replay onto the -items catalog.
func TestPersistFreshDirRefusesStaleWAL(t *testing.T) {
	dir := t.TempDir()
	w, _, err := snap.OpenWAL(filepath.Join(dir, core.WALFile), 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(snap.WALDelete, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = server.NewWithConfig(persistItems(8, 3, rand.New(rand.NewSource(7))), core.Options{}, server.Config{DataDir: dir})
	if !errors.Is(err, core.ErrStaleWAL) || !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("boot over a stale WAL: %v, want ErrStaleWAL", err)
	}
	if _, err := os.Stat(filepath.Join(dir, core.SnapshotFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused boot wrote a snapshot (stat: %v)", err)
	}
}

// TestPersistCheckpointEvery: the periodic checkpoint truncates the
// WAL, so a restart replays nothing yet sees every mutation.
func TestPersistCheckpointEvery(t *testing.T) {
	dir := t.TempDir()
	initial := persistItems(6, 3, rand.New(rand.NewSource(11)))
	cfg := server.Config{DataDir: dir, CheckpointEvery: 2}

	srv1, ts1 := newPersistServer(t, initial, cfg)
	for i := 0; i < 4; i++ {
		addItem(t, ts1, []float64{float64(i), 1, -1})
	}
	ts1.Close()
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newPersistServer(t, initial, cfg)
	if got := infoItems(t, ts2); got != 10 {
		t.Fatalf("restarted item count %d, want 10", got)
	}
	if v, ok := persistMetric(t, ts2, "fexipro_wal_replays_total"); !ok || v != 0 {
		t.Fatalf("fexipro_wal_replays_total = %v (present=%v), want 0 after periodic checkpoints", v, ok)
	}
}

// TestPersistDimMismatchRejected: pointing the server at a directory
// holding a different dimensionality is a startup error, never a
// silent rebuild over the persisted state.
func TestPersistDimMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newPersistServer(t, persistItems(5, 4, rand.New(rand.NewSource(3))), server.Config{DataDir: dir})
	ts.Close()
	if err := srv.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	_, err := server.NewWithConfig(persistItems(5, 6, rand.New(rand.NewSource(3))), core.Options{}, server.Config{DataDir: dir})
	if err == nil {
		t.Fatal("dimension mismatch against persisted index was accepted")
	}
}

// TestPersistWALFaultNotAcknowledged is the server-level torn-write
// property: when the WAL append fails (injected at faults.SiteWALWrite,
// leaving a torn half-record on disk), the HTTP response is a 500 — the
// mutation is NOT acknowledged — and a restart recovers exactly the
// acknowledged prefix, torn tail repaired.
func TestPersistWALFaultNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	initial := persistItems(6, 3, rand.New(rand.NewSource(5)))
	reg := faults.NewRegistry(99)
	reg.Enable(faults.SiteWALWrite, faults.Plan{FailEveryNCalls: 3})

	srv1, ts1 := newPersistServer(t, initial, server.Config{DataDir: dir, Faults: reg})
	acked := 0
	for i := 0; i < 3; i++ {
		status, _ := persistPost(t, ts1, "/v1/items", map[string]any{"vector": []float64{float64(i), 2, 3}})
		switch status {
		case http.StatusCreated:
			acked++
		case http.StatusInternalServerError:
			// Not acknowledged; the WAL is torn and refuses further writes.
		default:
			t.Fatalf("add %d: unexpected status %d", i, status)
		}
	}
	if acked != 2 {
		t.Fatalf("acked %d adds, want 2 (every 3rd WAL append fails)", acked)
	}
	ts1.Close()
	_ = srv1.ClosePersistence() // broken WAL: close is best-effort

	_, ts2 := newPersistServer(t, initial, server.Config{DataDir: dir})
	if got := infoItems(t, ts2); got != 6+acked {
		t.Fatalf("restarted item count %d, want %d (initial + acknowledged only)", got, 6+acked)
	}
}

// TestReloadZeroReadDowntime: searches keep answering while Reload
// builds and swaps a replacement catalog, and the swap is atomic — every
// response comes entirely from one epoch. With a data dir, the reload
// checkpoint makes the new epoch the persisted one.
func TestReloadZeroReadDowntime(t *testing.T) {
	dir := t.TempDir()
	old := persistItems(20, 4, rand.New(rand.NewSource(21)))
	srv, ts := newPersistServer(t, old, server.Config{DataDir: dir})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := []float64{1, 0, -1, 0.5}
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := searchIDs(t, ts, q, 3)
			if len(res) != 3 {
				t.Errorf("search during reload returned %d results", len(res))
				return
			}
		}
	}()

	replacement := persistItems(35, 4, rand.New(rand.NewSource(22)))
	if err := srv.Reload(replacement, core.Options{SVD: true}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if got := infoItems(t, ts); got != 35 {
		t.Fatalf("post-reload item count %d, want 35", got)
	}
	ts.Close()
	if err := srv.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// The reload epoch is what restarts see.
	_, ts2 := newPersistServer(t, replacement, server.Config{DataDir: dir})
	if got := infoItems(t, ts2); got != 35 {
		t.Fatalf("restarted post-reload item count %d, want 35", got)
	}

	// Dimension changes are rejected.
	if err := srv.Reload(persistItems(10, 5, rand.New(rand.NewSource(23))), core.Options{}); err == nil {
		t.Fatal("reload accepted a matrix with the wrong dimensionality")
	}
}

// TestPersistSnapshotBytesGauge: fexipro_snapshot_bytes is the size of
// current.snap — after the first boot's checkpoint, after a periodic
// one (two more items: larger), and after a restart that only read it —
// and a snapshot holds the catalog plus lists, never an index: a few
// hundred bytes over 8·d per item.
func TestPersistSnapshotBytesGauge(t *testing.T) {
	dir := t.TempDir()
	const n, d = 200, 6
	initial := persistItems(n, d, rand.New(rand.NewSource(13)))
	cfg := server.Config{DataDir: dir, CheckpointEvery: 2}
	fileSize := func() float64 {
		st, err := os.Stat(filepath.Join(dir, core.SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Size())
	}

	srv1, ts1 := newPersistServer(t, initial, cfg)
	first := fileSize()
	if v, ok := persistMetric(t, ts1, "fexipro_snapshot_bytes"); !ok || v != first {
		t.Fatalf("fexipro_snapshot_bytes = %v (present=%v) after the first boot, file has %v", v, ok, first)
	}
	if perItem := first / n; perItem < 8*d || perItem > 8*d+16 {
		t.Fatalf("snapshot has %.1f B/item; the catalog alone is %d", perItem, 8*d)
	}
	addItem(t, ts1, make([]float64, d))
	addItem(t, ts1, make([]float64, d))
	if v, _ := persistMetric(t, ts1, "fexipro_snapshot_bytes"); v != fileSize() || v <= first {
		t.Fatalf("fexipro_snapshot_bytes = %v after a checkpoint of two more items, file has %v (was %v)", v, fileSize(), first)
	}
	ts1.Close()
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newPersistServer(t, initial, cfg)
	if v, _ := persistMetric(t, ts2, "fexipro_snapshot_bytes"); v != fileSize() {
		t.Fatalf("fexipro_snapshot_bytes = %v after a restart, file has %v", v, fileSize())
	}
}

// parentDataDir is a data directory written by the commit before the
// query planner was removed, in that commit's layout: a 40×8 catalog
// (persistItems, seed 31) served at S = 2 with the planner on and
// checkpointed after 100 searches — which also wrote plan.snap, the
// planner's calibration — then two adds and the delete of item 7
// appended to dyn.wal. answers.json holds what that commit answered to 20
// queries (persistItems(1, 8, ·) from seed 32, k = 5): IDs and score bits.
const parentDataDir = "testdata/parent_datadir"

// TestPersistParentDataDirIgnoresPlanFile: the parent's data directory
// boots to the same catalog and answers, a checkpoint leaves its
// plan.snap in place byte for byte, and a plan.snap no reader could parse
// changes nothing either — the file is never read.
func TestPersistParentDataDirIgnoresPlanFile(t *testing.T) {
	js, err := os.ReadFile(filepath.Join(parentDataDir, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var answers []struct {
		IDs  []int
		Bits []uint64
	}
	if err := json.Unmarshal(js, &answers); err != nil || len(answers) != 20 {
		t.Fatalf("answers.json: %d answers, %v", len(answers), err)
	}
	for _, garbage := range []bool{false, true} {
		dir := t.TempDir()
		for _, f := range []string{core.SnapshotFile, core.WALFile, "plan.snap"} {
			raw, err := os.ReadFile(filepath.Join(parentDataDir, f))
			if err != nil {
				t.Fatal(err)
			}
			if garbage && f == "plan.snap" {
				raw = []byte("not a calibration")
			}
			if err := os.WriteFile(filepath.Join(dir, f), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		planPath := filepath.Join(dir, "plan.snap")
		planBytes, _ := os.ReadFile(planPath)
		before, err := os.Stat(planPath)
		if err != nil {
			t.Fatal(err)
		}
		var warnings bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&warnings, &slog.HandlerOptions{Level: slog.LevelWarn}))
		srv, ts := newPersistServer(t, nil, server.Config{DataDir: dir, Logger: logger})
		if n := infoItems(t, ts); n != 41 {
			t.Fatalf("garbage=%v: %d live items, the parent had 41", garbage, n)
		}
		rng := rand.New(rand.NewSource(32))
		for i, want := range answers {
			got := searchIDs(t, ts, persistItems(1, 8, rng).Data, 5)
			if len(got) != len(want.IDs) {
				t.Fatalf("garbage=%v query %d: %v, the parent answered %v", garbage, i, got, want.IDs)
			}
			for r := range got {
				if got[r].ID != want.IDs[r] || math.Float64bits(got[r].Score) != want.Bits[r] {
					t.Fatalf("garbage=%v query %d rank %d: %+v, the parent answered ID %d score bits %#x",
						garbage, i, r, got[r], want.IDs[r], want.Bits[r])
				}
			}
		}
		if err := srv.Checkpoint(); err != nil {
			t.Fatalf("garbage=%v: checkpoint: %v", garbage, err)
		}
		after, err := os.Stat(planPath)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(planPath)
		if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || !bytes.Equal(raw, planBytes) {
			t.Fatalf("garbage=%v: the checkpoint touched plan.snap", garbage)
		}
		if warnings.Len() > 0 {
			t.Fatalf("garbage=%v: the server warned: %s", garbage, warnings.String())
		}
	}
}

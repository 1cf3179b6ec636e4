package txn

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/faultinject"
	"repro/internal/fileformat"
	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Col("k", types.Primitive(types.Long)),
		types.Col("v", types.Primitive(types.String)),
	)
}

func newTestManager(t *testing.T) (*Manager, *dfs.FS) {
	t.Helper()
	fs := dfs.New()
	m := NewManager(fs)
	if err := m.RegisterTable(TableInfo{
		Name:   "t",
		Path:   "/warehouse/t",
		Schema: testSchema(),
		Format: fileformat.ORC,
	}); err != nil {
		t.Fatal(err)
	}
	return m, fs
}

// commitRows commits one transaction writing rows [lo, hi) and returns its id.
func commitRows(t *testing.T, m *Manager, lo, hi int) int64 {
	t.Helper()
	tx := m.Begin()
	for i := lo; i < hi; i++ {
		if err := tx.Write("t", types.Row{int64(i), fmt.Sprintf("row-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.ID()
}

// readKeys scans the view's files and returns all k values, sorted.
func readKeys(t *testing.T, m *Manager, v View) []int64 {
	t.Helper()
	var out []int64
	for _, f := range v.Files {
		r, err := fileformat.Open(m.fs, f, testSchema(), fileformat.ORC, fileformat.ScanOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", f, err)
		}
		for {
			row, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row[0].(int64))
		}
		r.Close()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func wantKeys(ranges ...[2]int) []int64 {
	var out []int64
	for _, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			out = append(out, int64(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqKeys(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCommitPublishesAbortDoesNot(t *testing.T) {
	m, fs := newTestManager(t)
	commitRows(t, m, 0, 10)

	ab := m.Begin()
	for i := 100; i < 110; i++ {
		if err := ab.Write("t", types.Row{int64(i), "doomed"}); err != nil {
			t.Fatal(err)
		}
	}
	ab.Abort()

	v, err := m.ResolveView("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 10})) {
		t.Fatalf("visible keys = %v, want 0..9", got)
	}
	// The aborted transaction's files are gone from disk, not just hidden.
	for _, fi := range fs.List("/warehouse/t") {
		if strings.Contains(fi.Name, fmt.Sprintf("delta_%d_%d", ab.ID(), ab.ID())) {
			t.Fatalf("aborted delta file %s still on disk", fi.Name)
		}
	}
	if got := m.Snapshot(); got.Committed != 1 || got.Aborted != 1 {
		t.Fatalf("stats = %+v, want 1 committed 1 aborted", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m, _ := newTestManager(t)
	commitRows(t, m, 0, 5)

	// A transaction open at acquisition stays invisible even after commit.
	inflight := m.Begin()
	if err := inflight.Write("t", types.Row{int64(50), "late"}); err != nil {
		t.Fatal(err)
	}
	snap := m.AcquireSnapshot()
	defer snap.Release()
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
	// A transaction begun after acquisition is above the high watermark.
	commitRows(t, m, 60, 65)

	v, err := m.ResolveView("t", snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 5})) {
		t.Fatalf("snapshot sees %v, want only 0..4", got)
	}
	// A fresh snapshot sees everything committed.
	now := m.AcquireSnapshot()
	defer now.Release()
	v2, err := m.ResolveView("t", now)
	if err != nil {
		t.Fatal(err)
	}
	want := append(wantKeys([2]int{0, 5}, [2]int{60, 65}), 50)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := readKeys(t, m, v2); !eqKeys(got, want) {
		t.Fatalf("fresh snapshot sees %v, want %v", got, want)
	}
	if snap.Fingerprint() == now.Fingerprint() {
		t.Fatal("distinct frontiers produced identical fingerprints")
	}
}

func TestViewFingerprintTracksFileSet(t *testing.T) {
	m, _ := newTestManager(t)
	commitRows(t, m, 0, 5)
	s1 := m.AcquireSnapshot()
	defer s1.Release()
	v1, _ := m.ResolveView("t", s1)

	commitRows(t, m, 5, 10)
	// Same snapshot, new manifest version: the old snapshot's file set is
	// unchanged, so its fingerprint must not move (build-cache stability).
	v1again, _ := m.ResolveView("t", s1)
	if v1.Fingerprint() != v1again.Fingerprint() {
		t.Fatalf("fingerprint moved for an unchanged file set: %s vs %s", v1.Fingerprint(), v1again.Fingerprint())
	}
	s2 := m.AcquireSnapshot()
	defer s2.Release()
	v2, _ := m.ResolveView("t", s2)
	if v1.Fingerprint() == v2.Fingerprint() {
		t.Fatal("fingerprint identical across different file sets")
	}
}

func TestMinorCompactionMergesAndPreservesRows(t *testing.T) {
	m, fs := newTestManager(t)
	for b := 0; b < 4; b++ {
		commitRows(t, m, b*10, (b+1)*10)
	}
	res, err := m.Compact("t", CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.InputDeltas != 4 || res.Rows != 40 {
		t.Fatalf("result = %+v, want 4 deltas, 40 rows compacted", res)
	}
	man, err := m.ManifestOf("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Deltas) != 1 || man.Deltas[0].TxnLo != 1 || man.Deltas[0].TxnHi != 4 {
		t.Fatalf("manifest deltas = %+v, want one merged [1,4]", man.Deltas)
	}
	v, _ := m.ResolveView("t", nil)
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 40})) {
		t.Fatalf("post-compaction keys = %v, want 0..39", got)
	}
	// Replaced inputs were removed (no snapshots were active).
	for _, fi := range fs.List("/warehouse/t") {
		for id := 1; id <= 4; id++ {
			if strings.Contains(fi.Name, fmt.Sprintf("delta_%d_%d/", id, id)) {
				t.Fatalf("replaced delta file %s still on disk", fi.Name)
			}
		}
	}
}

func TestMajorCompactionBuildsBase(t *testing.T) {
	m, _ := newTestManager(t)
	for b := 0; b < 3; b++ {
		commitRows(t, m, b*10, (b+1)*10)
	}
	res, err := m.Compact("t", CompactOptions{Major: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.Rows != 30 {
		t.Fatalf("result = %+v", res)
	}
	man, _ := m.ManifestOf("t")
	if len(man.Deltas) != 0 || man.BaseTxn != 3 || len(man.Base) != 1 {
		t.Fatalf("manifest = %+v, want pure base through txn 3", man)
	}
	// Deltas landing after the base stack on top of it.
	commitRows(t, m, 30, 35)
	res2, err := m.Compact("t", CompactOptions{Major: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Compacted {
		t.Fatalf("second major did not run: %+v", res2)
	}
	v, _ := m.ResolveView("t", nil)
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 35})) {
		t.Fatalf("keys = %v, want 0..34", got)
	}
}

func TestCompactionCeilingRespectsOpenTxnsAndSnapshots(t *testing.T) {
	m, _ := newTestManager(t)
	commitRows(t, m, 0, 10)  // txn 1
	commitRows(t, m, 10, 20) // txn 2
	hold := m.Begin()        // txn 3 stays open
	if err := hold.Write("t", types.Row{int64(99), "open"}); err != nil {
		t.Fatal(err)
	}
	commitRows(t, m, 20, 30) // txn 4

	if c := m.CompactionCeiling(); c != 2 {
		t.Fatalf("ceiling = %d, want 2 (txn 3 open)", c)
	}
	res, err := m.Compact("t", CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.InputDeltas != 2 {
		t.Fatalf("result = %+v, want deltas 1,2 merged only", res)
	}
	man, _ := m.ManifestOf("t")
	if len(man.Deltas) != 2 || man.Deltas[0].TxnHi != 2 || man.Deltas[1].TxnLo != 4 {
		t.Fatalf("manifest deltas = %+v, want merged [1,2] + single [4,4]", man.Deltas)
	}
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}

	// A held snapshot pins the ceiling the same way.
	snap := m.AcquireSnapshot()
	commitRows(t, m, 30, 40) // txn 5: above snap's high watermark
	if c := m.CompactionCeiling(); c != snap.HighWater() {
		t.Fatalf("ceiling = %d, want pinned at snapshot high %d", c, snap.HighWater())
	}
	snap.Release()
	if c := m.CompactionCeiling(); c != 5 {
		t.Fatalf("ceiling after release = %d, want 5", c)
	}
}

func TestDeferredCleanupWaitsForSnapshot(t *testing.T) {
	m, fs := newTestManager(t)
	for b := 0; b < 3; b++ {
		commitRows(t, m, b*10, (b+1)*10)
	}
	snap := m.AcquireSnapshot()
	v, _ := m.ResolveView("t", snap)

	res, err := m.Compact("t", CompactOptions{})
	if err != nil || !res.Compacted {
		t.Fatalf("compact: %+v, %v", res, err)
	}
	// The snapshot's resolved files must all still be readable.
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 30})) {
		t.Fatalf("in-flight reader lost files: %v", got)
	}
	if m.PendingCleanFiles() == 0 {
		t.Fatal("replaced files were not deferred while a snapshot was active")
	}
	snap.Release()
	if m.PendingCleanFiles() != 0 {
		t.Fatal("deferred files survived the last snapshot release")
	}
	for _, f := range v.Files {
		if fs.Exists(f) {
			t.Fatalf("replaced file %s still on disk after release", f)
		}
	}
}

// raceFaulter interposes at the crash-coin draw — which sits between input
// selection and publication — to run a competing compaction of the same
// inputs, forcing the enclosing attempt to lose the first-committer race.
type raceFaulter struct {
	m      *Manager
	second CompactResult
	err    error
	fired  bool
}

func (r *raceFaulter) TaskError(job string, task, attempt, node int) error {
	if task == 0 && !r.fired {
		r.fired = true
		r.second, r.err = r.m.Compact("t", CompactOptions{})
	}
	return nil
}

func TestFirstCommitterWins(t *testing.T) {
	m, fs := newTestManager(t)
	for b := 0; b < 3; b++ {
		commitRows(t, m, b*10, (b+1)*10)
	}
	// Hold a snapshot so the winner's replaced inputs are deferred, not
	// removed — the losing attempt is still reading them.
	snap := m.AcquireSnapshot()
	defer snap.Release()
	rf := &raceFaulter{m: m}
	first, err := m.Compact("t", CompactOptions{Faults: rf})
	if err != nil {
		t.Fatal(err)
	}
	if rf.err != nil {
		t.Fatal(rf.err)
	}
	second := rf.second
	if !second.Compacted {
		t.Fatalf("inner compaction should have won: %+v", second)
	}
	if first.Compacted || !first.LostRace {
		t.Fatalf("outer compaction should have lost the race: %+v", first)
	}
	// The loser's output was withdrawn; no _compact debris remains.
	for _, fi := range fs.List("/warehouse/t") {
		if strings.Contains(fi.Name, "_compact/") {
			t.Fatalf("loser left temp file %s", fi.Name)
		}
	}
	v, _ := m.ResolveView("t", nil)
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 30})) {
		t.Fatalf("keys = %v, want 0..29", got)
	}
}

func TestCompactionCrashRetriesAndRecovers(t *testing.T) {
	m, fs := newTestManager(t)
	for b := 0; b < 3; b++ {
		commitRows(t, m, b*10, (b+1)*10)
	}
	policy := faultinject.New(faultinject.Config{Seed: 7, TaskFailProb: 1.0, MaxFailuresPerTask: 2})
	res, err := m.Compact("t", CompactOptions{Faults: policy, MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("compaction never succeeded: %+v", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want crashes before success with TaskFailProb=1", res.Attempts)
	}
	if got := m.Snapshot().CompactionCrashes; got == 0 {
		t.Fatal("no crashes recorded")
	}
	// Retry swept its own debris.
	for _, fi := range fs.List("/warehouse/t") {
		if strings.Contains(fi.Name, "_compact/") {
			t.Fatalf("crash debris %s left after successful retry", fi.Name)
		}
	}
	v, _ := m.ResolveView("t", nil)
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 30})) {
		t.Fatalf("keys = %v, want 0..29", got)
	}
}

func TestRecoverRemovesOnlyDebris(t *testing.T) {
	m, fs := newTestManager(t)
	commitRows(t, m, 0, 10)
	// A live open transaction's files must survive recovery.
	live := m.Begin()
	if err := live.Write("t", types.Row{int64(77), "live"}); err != nil {
		t.Fatal(err)
	}
	// Fake crash debris: an unsealed delta file and a sealed compactor temp.
	if _, err := fs.Create("/warehouse/t/delta_99_99/part-00000"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/warehouse/t/_compact/5-0/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	removed, err := m.Recover("t")
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d files, want 2", removed)
	}
	if fs.Exists("/warehouse/t/delta_99_99/part-00000") || fs.Exists("/warehouse/t/_compact/5-0/part-00000") {
		t.Fatal("debris survived Recover")
	}
	if err := live.Commit(); err != nil {
		t.Fatalf("live transaction broken by Recover: %v", err)
	}
	v, _ := m.ResolveView("t", nil)
	got := readKeys(t, m, v)
	want := append(wantKeys([2]int{0, 10}), 77)
	if !eqKeys(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
}

func TestNewFileSplitsDeltaFiles(t *testing.T) {
	m, _ := newTestManager(t)
	tx := m.Begin()
	for i := 0; i < 10; i++ {
		if err := tx.Write("t", types.Row{int64(i), "x"}); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := tx.NewFile("t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	man, _ := m.ManifestOf("t")
	if len(man.Deltas) != 1 || len(man.Deltas[0].Files) != 2 {
		t.Fatalf("manifest = %+v, want one delta with two files", man.Deltas)
	}
	v, _ := m.ResolveView("t", nil)
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, 10})) {
		t.Fatalf("keys = %v", got)
	}
}

func TestManifestAdoptedAcrossManagers(t *testing.T) {
	// A second manager over the same DFS (simulated restart) adopts the
	// published manifest and keeps reading the same data.
	m, fs := newTestManager(t)
	commitRows(t, m, 0, 10)

	m2 := NewManager(fs)
	if err := m2.RegisterTable(TableInfo{Name: "t", Path: "/warehouse/t", Schema: testSchema(), Format: fileformat.ORC}); err != nil {
		t.Fatal(err)
	}
	v, err := m2.ResolveView("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := readKeys(t, m2, v); !eqKeys(got, wantKeys([2]int{0, 10})) {
		t.Fatalf("restarted manager sees %v, want 0..9", got)
	}
}

// TestTableLockOrder races commits and compaction publishes, which hold
// tableState.mu across dfs WriteAtomic, Rename and Remove, against List,
// TotalSize and Rename on the same table directory. A lock-order inversion
// deadlocks, so the race runs under a deadline; afterwards every committed
// row must be visible exactly once.
func TestTableLockOrder(t *testing.T) {
	m, fs := newTestManager(t)
	const writers, commits, rowsPer = 2, 40, 5
	errs := make(chan error, writers+2)
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for c := 0; c < commits; c++ {
				base := (w*commits + c) * rowsPer
				tx := m.Begin()
				for i := base; i < base+rowsPer; i++ {
					if err := tx.Write("t", types.Row{int64(i), "v"}); err != nil {
						errs <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var stop atomic.Bool
	var compacted atomic.Int64
	var others sync.WaitGroup
	others.Add(2)
	go func() { // compactor: minor and major publishes while commits land
		defer others.Done()
		for i := 0; !stop.Load() || compacted.Load() == 0; i++ {
			res, err := m.Compact("t", CompactOptions{Major: i%4 == 3})
			if err != nil {
				errs <- err
				return
			}
			if res.Compacted {
				compacted.Add(1)
			}
		}
	}()
	go func() { // walker: namespace scans and renames inside the table dir
		defer others.Done()
		for i := 0; !stop.Load(); i++ {
			fs.List("/warehouse/t")
			fs.TotalSize("/warehouse/t")
			name := fmt.Sprintf("/warehouse/t/_walk-%d", i)
			w, err := fs.Create(name + ".tmp")
			if err != nil {
				errs <- err
				return
			}
			w.Write([]byte("x"))
			w.Close()
			if err := fs.Rename(name+".tmp", name); err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		writing.Wait()
		stop.Store(true)
		others.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(20 * time.Second):
		t.Fatal("commits and compactions racing List/TotalSize/Rename did not finish: lock-order deadlock")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Logf("%d compactions published during the race", compacted.Load())
	v, err := m.ResolveView("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := readKeys(t, m, v); !eqKeys(got, wantKeys([2]int{0, writers * commits * rowsPer})) {
		t.Fatalf("after the race: %d keys visible, want %d", len(got), writers*commits*rowsPer)
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/types"
)

// newTestDriver loads a sales fact table and an items dimension.
func newTestDriver(t *testing.T, conf core.Config) *core.Driver {
	t.Helper()
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := core.NewDriver(fs, engine, conf)

	sales := types.NewSchema(
		types.Col("item_id", types.Primitive(types.Long)),
		types.Col("qty", types.Primitive(types.Long)),
		types.Col("price", types.Primitive(types.Double)),
	)
	loader, err := d.CreateTable("sales", sales, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if err := loader.Write(types.Row{int64(i % 10), int64(i % 5), float64(i%100) / 2}); err != nil {
			t.Fatal(err)
		}
		if i == 399 {
			loader.NextFile()
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}

	items := types.NewSchema(
		types.Col("id", types.Primitive(types.Long)),
		types.Col("name", types.Primitive(types.String)),
	)
	il, err := d.CreateTable("items", items, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := il.Write(types.Row{int64(i), fmt.Sprintf("item-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := il.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

func renderRows(res *core.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, fmt.Sprint(r))
	}
	sort.Strings(out)
	return out
}

var testQueries = []string{
	"SELECT item_id, SUM(qty) FROM sales GROUP BY item_id",
	"SELECT COUNT(*) FROM sales WHERE qty > 2",
	"SELECT name, SUM(s.qty) FROM sales s JOIN items i ON s.item_id = i.id GROUP BY name",
	"SELECT item_id, AVG(price) FROM sales WHERE item_id < 5 GROUP BY item_id",
}

// TestConcurrentSessionsMatchSerial runs every query serially for
// reference, then fires many sessions — spanning engines — at the server
// concurrently and requires byte-identical row sets.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	d := newTestDriver(t, core.Config{})
	defer d.Close()

	reference := make([][]string, len(testQueries))
	for i, q := range testQueries {
		res, err := d.Run(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		reference[i] = renderRows(res)
	}

	srv := New(d, ManagerConfig{Pools: []PoolConfig{{Name: "default", Slots: 8, QueueDepth: 64}}})
	defer srv.Close()

	engines := []core.EngineMode{core.ModeMapReduce, core.ModeTez, core.ModeLLAP}
	var wg sync.WaitGroup
	for c := 0; c < 9; c++ {
		sess, err := srv.OpenSession("")
		if err != nil {
			t.Fatal(err)
		}
		conf := sess.Config()
		conf.Engine = engines[c%len(engines)]
		sess.SetConfig(conf)
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			for i, q := range testQueries {
				res, err := sess.Run(context.Background(), q)
				if err != nil {
					t.Errorf("session %s %q: %v", sess.ID(), q, err)
					return
				}
				got := renderRows(res)
				if fmt.Sprint(got) != fmt.Sprint(reference[i]) {
					t.Errorf("session %s (engine %v) %q:\n got %v\nwant %v",
						sess.ID(), sess.Config().Engine, q, got, reference[i])
				}
			}
		}(sess)
	}
	wg.Wait()

	for _, st := range srv.Manager().Stats() {
		if st.Running != 0 || st.Queued != 0 {
			t.Fatalf("pool %s not drained: %+v", st.Name, st)
		}
		if st.Admitted != int64(9*len(testQueries)) {
			t.Fatalf("pool %s admitted %d, want %d", st.Name, st.Admitted, 9*len(testQueries))
		}
	}
}

// TestSessionLifecycle exercises open/list/switch-pool/close.
func TestSessionLifecycle(t *testing.T) {
	d := newTestDriver(t, core.Config{})
	defer d.Close()
	srv := New(d, ManagerConfig{Pools: []PoolConfig{
		{Name: "interactive", Interactive: true},
		{Name: "batch", Preemptable: true},
	}})
	defer srv.Close()

	s1, err := srv.OpenSession("")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Pool() != "interactive" {
		t.Fatalf("default pool = %q, want first configured (interactive)", s1.Pool())
	}
	if _, err := srv.OpenSession("nope"); !errors.Is(err, ErrNoPool) {
		t.Fatalf("open in unknown pool: got %v, want ErrNoPool", err)
	}
	s2, err := srv.OpenSession("batch")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Sessions()); got != 2 {
		t.Fatalf("%d sessions, want 2", got)
	}
	if err := s2.SetPool("nope"); !errors.Is(err, ErrNoPool) {
		t.Fatalf("SetPool unknown: got %v, want ErrNoPool", err)
	}
	if err := s2.SetPool("interactive"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(context.Background(), "SELECT COUNT(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	if s1.Queries() != 1 {
		t.Fatalf("s1 queries = %d, want 1", s1.Queries())
	}
	s1.Close()
	if _, err := s1.Run(context.Background(), "SELECT COUNT(*) FROM sales"); !errors.Is(err, ErrClosed) {
		t.Fatalf("run on closed session: got %v, want ErrClosed", err)
	}
	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("%d sessions after close, want 1", got)
	}
}

// blockPolicy is a dfs.ReadFaultPolicy that injects no faults but, while
// armed, parks any read of the sales table until released — holding a query
// provably in flight so the preemption path can be driven deterministically.
type blockPolicy struct {
	armed   atomic.Bool
	once    sync.Once
	blocked chan struct{} // closed when the first read parks
	release chan struct{}
}

func (p *blockPolicy) ReadFault(file string, block int64, node int) bool {
	if p.armed.Load() && strings.Contains(file, "sales") {
		p.once.Do(func() { close(p.blocked) })
		<-p.release
	}
	return false
}

// TestPreemptedQueryRequeuesAndCompletes: a long batch query is preempted
// by a starved interactive query, requeues through admission, and still
// returns the exact serial-reference result.
func TestPreemptedQueryRequeuesAndCompletes(t *testing.T) {
	d := newTestDriver(t, core.Config{})
	defer d.Close()

	batchQ := "SELECT item_id, SUM(qty) FROM sales GROUP BY item_id"
	interQ := "SELECT COUNT(*) FROM items"
	ref, err := d.Run(batchQ)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(ref)

	pol := &blockPolicy{blocked: make(chan struct{}), release: make(chan struct{})}
	pol.armed.Store(true)
	d.FS().SetFaultPolicy(pol)
	defer d.FS().SetFaultPolicy(nil)

	srv := New(d, ManagerConfig{
		TotalSlots: 1,
		Pools: []PoolConfig{
			{Name: "inter", Slots: 1, Interactive: true},
			{Name: "batch", Slots: 1, Preemptable: true},
		},
	})
	defer srv.Close()

	bs, err := srv.OpenSession("batch")
	if err != nil {
		t.Fatal(err)
	}
	is, err := srv.OpenSession("inter")
	if err != nil {
		t.Fatal(err)
	}

	batchDone := make(chan error, 1)
	var batchRows []string
	tr := obs.NewTracer()
	go func() {
		res, err := bs.Run(obs.WithTracer(context.Background(), tr), batchQ)
		if err == nil {
			batchRows = renderRows(res)
		}
		batchDone <- err
	}()

	// Wait until the batch query is inside a sales read, then starve the
	// interactive pool so the workload manager preempts it.
	select {
	case <-pol.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("batch query never reached a sales read")
	}
	interDone := make(chan error, 1)
	go func() {
		_, err := is.Run(context.Background(), interQ)
		interDone <- err
	}()

	// The preemption fires while the batch read is parked; once observed,
	// disarm and release so the cancelled attempt unwinds and the requeued
	// attempt runs unblocked.
	deadline := time.Now().Add(10 * time.Second)
	for {
		preempted := false
		for _, st := range srv.Manager().Stats() {
			if st.Name == "batch" && st.Preempted >= 1 {
				preempted = true
			}
		}
		if preempted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch query was never preempted")
		}
		time.Sleep(time.Millisecond)
	}
	pol.armed.Store(false)
	close(pol.release)

	if err := <-interDone; err != nil {
		t.Fatalf("interactive query: %v", err)
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("batch query after requeue: %v", err)
	}
	if fmt.Sprint(batchRows) != fmt.Sprint(want) {
		t.Fatalf("requeued batch result:\n got %v\nwant %v", batchRows, want)
	}
	if bs.Preemptions() != 1 {
		t.Fatalf("batch session preemptions = %d, want 1", bs.Preemptions())
	}
	// The client never saw ErrPreempted; the pool's counter records it.
	for _, st := range srv.Manager().Stats() {
		if st.Name == "batch" && st.Preempted != 1 {
			t.Fatalf("batch pool preempted = %d, want 1", st.Preempted)
		}
	}
	// Planned once: both attempts ran the plan prepared before admission.
	phases := map[string]int{}
	queries := 0
	for _, sp := range tr.Spans() {
		switch sp.Cat {
		case obs.CatPhase:
			phases[sp.Name]++
		case obs.CatQuery:
			queries++
		}
	}
	if queries != 2 {
		t.Fatalf("query spans = %d, want 2 (the preempted attempt and its requeue)", queries)
	}
	for _, name := range []string{"parse", "plan", "optimize", "compile"} {
		if phases[name] != 1 {
			t.Errorf("%s spans = %d across both attempts, want 1", name, phases[name])
		}
	}
	// Each attempt is still its own history record, and each record's
	// Total covers the shared front end, its queue wait and its run.
	var states []string
	for _, rec := range d.History().Records() {
		if rec.Session != bs.ID() {
			continue
		}
		states = append(states, rec.State)
		if rec.Total != rec.QueueWait+rec.Wall || rec.Wall <= 0 {
			t.Errorf("record %d: total %v, queue %v, wall %v", rec.ID, rec.Total, rec.QueueWait, rec.Wall)
		}
	}
	if fmt.Sprint(states) != "[preempted ok]" {
		t.Errorf("batch session records = %v, want [preempted ok]", states)
	}
}

// TestPreparedScanBytes pins the one scan-byte estimator (admission and
// slow-query pre-trace): each base table charged once at its largest scan,
// pruned scans at their selected partitions, replicated tables at their
// primary-replica bytes; a query that cannot plan has no estimate at all.
func TestPreparedScanBytes(t *testing.T) {
	d := newTestDriver(t, core.Config{DefaultFormat: fileformat.ORC, Opt: optimizer.Options{PartitionPruning: true}})
	defer d.Close()
	for _, ddl := range []string{
		"CREATE TABLE ev (ds string, v bigint) PARTITIONED BY (ds) STORED AS orc",
		"CREATE TABLE rep (k bigint, v bigint) REPLICATED BY (k, v) STORED AS orc",
	} {
		if _, err := d.Run(ddl); err != nil {
			t.Fatal(err)
		}
	}
	load := func(name string, row func(i int) types.Row) {
		l, err := d.Loader(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := l.Write(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	load("ev", func(i int) types.Row { return types.Row{fmt.Sprintf("d%d", i%4), int64(i)} })
	load("rep", func(i int) types.Row { return types.Row{int64(i % 7), int64(i)} })

	var evDay1, repPrimary int64
	for _, pi := range d.Metastore().Partitions("ev") {
		if pi.Key == "ds=d1" {
			evDay1 = pi.Bytes
		}
	}
	for _, pi := range d.Metastore().Partitions("rep") {
		repPrimary += pi.Bytes
	}
	repMeta, err := d.Metastore().Table("rep")
	if err != nil {
		t.Fatal(err)
	}
	if evDay1 <= 0 || repPrimary <= 0 || d.FS().TotalSize(repMeta.Path) <= repPrimary {
		t.Fatalf("layout fixture: ds=d1 %d bytes, rep primary %d of %d on disk", evDay1, repPrimary, d.FS().TotalSize(repMeta.Path))
	}
	scanBytes := func(q string) int64 {
		t.Helper()
		prep, err := d.Prepare(context.Background(), d.Config(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return prep.ScanBytes
	}
	sales := scanBytes("SELECT COUNT(*) FROM sales")
	items := scanBytes("SELECT COUNT(*) FROM items")
	if sales <= 0 || items <= 0 {
		t.Fatalf("table estimates sales=%d items=%d, want > 0", sales, items)
	}
	for _, c := range []struct {
		name, query string
		want        int64
	}{
		{"join", "SELECT name FROM sales s JOIN items i ON s.item_id = i.id", sales + items},
		{"self-join charges the max", "SELECT a.qty FROM sales a JOIN sales b ON a.item_id = b.item_id", sales},
		{"pruned scan", "SELECT v FROM ev WHERE ds = 'd1'", evDay1},
		{"replicated table counts the primary", "SELECT v FROM rep", repPrimary},
		{"sys table charges nothing", "SELECT COUNT(*) FROM sys.queries", 0},
	} {
		if got := scanBytes(c.query); got != c.want {
			t.Errorf("%s: ScanBytes = %d, want %d", c.name, got, c.want)
		}
	}
	for _, q := range []string{"SELECT v FROM nosuch", "SELECT * FROM nosuch", "not sql"} {
		if prep, err := d.Prepare(context.Background(), d.Config(), q); err == nil {
			t.Errorf("%q prepared (ScanBytes %d), want an error", q, prep.ScanBytes)
		}
	}
}

// TestUnplannableQueryNeverAdmitted: a query that fails to plan returns
// the planner's error without entering admission, and still leaves one
// failed history record labelled with its session.
func TestUnplannableQueryNeverAdmitted(t *testing.T) {
	d := newTestDriver(t, core.Config{})
	defer d.Close()
	srv := New(d, ManagerConfig{Pools: []PoolConfig{{Name: "p"}}})
	defer srv.Close()
	sess, err := srv.OpenSession("p")
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (admitted int64, queued int) {
		for _, st := range srv.Manager().Stats() {
			admitted += st.Admitted
			queued += st.Queued
		}
		return
	}
	// The dialect has no SELECT *, so the first query fails in the parser
	// and the second in the planner; neither may take a slot.
	for _, c := range []struct{ query, errWant string }{
		{"SELECT * FROM nosuch", "parse error"},
		{"SELECT v FROM nosuch", `"nosuch" does not exist`},
	} {
		admitted0, queued0 := counters()
		recs0 := d.History().Total()
		_, err := sess.Run(context.Background(), c.query)
		if err == nil || !strings.Contains(err.Error(), c.errWant) {
			t.Fatalf("%s: err = %v, want %q", c.query, err, c.errWant)
		}
		if admitted, queued := counters(); admitted != admitted0 || queued != queued0 {
			t.Fatalf("%s: admitted %d->%d, queued %d->%d: an unplannable query entered admission",
				c.query, admitted0, admitted, queued0, queued)
		}
		if n := d.History().Total() - recs0; n != 1 {
			t.Fatalf("%s: history records added = %d, want 1", c.query, n)
		}
		rec, _ := d.History().Last()
		if rec.State != "failed" || rec.Session != sess.ID() || rec.Query != c.query {
			t.Fatalf("%s: record = %+v, want one failed record for the session's query", c.query, rec)
		}
	}
}

// TestServerMetricsTeardown: per-pool metrics live under "wm." in the
// driver registry while the server is open and vanish on Close, so a new
// server over the same driver re-registers cleanly.
func TestServerMetricsTeardown(t *testing.T) {
	d := newTestDriver(t, core.Config{})
	defer d.Close()
	srv := New(d, ManagerConfig{Pools: []PoolConfig{{Name: "p"}}})
	snap := d.Registry().Snapshot()
	if _, ok := snap.Values["wm.p.Running"]; !ok {
		t.Fatal("wm.p.Running not registered")
	}
	srv.Close()
	snap = d.Registry().Snapshot()
	if _, ok := snap.Values["wm.p.Running"]; ok {
		t.Fatal("wm.p.Running still registered after Close")
	}
	srv2 := New(d, ManagerConfig{Pools: []PoolConfig{{Name: "p"}}})
	srv2.Close()
}

package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fileformat"
	"repro/internal/server"
	"repro/internal/sysdb"
	"repro/internal/types"
	"repro/internal/workload"
)

// eventsProbe is E15's snapshot probe: COUNT and SUM(id) over an ACID table
// whose ids are consecutive from 0.
const eventsProbe = "SELECT COUNT(*), SUM(id) FROM events"

func eventsSchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.Primitive(types.Long)),
		types.Col("grp", types.Primitive(types.Long)),
		types.Col("val", types.Primitive(types.Long)),
	)
}

func eventRow(id int64) types.Row { return types.Row{id, id % 32, id % 97} }

// serveState is the server side of serve-ingest and serve-read: the
// server, and for serve-ingest the writer session's stream into events.
type serveState struct {
	srv    *server.Server
	stream *server.Stream // nil without a writer

	batchMin, batchMax int
	nextID             int64 // writer-owned: next id to stream

	mu         sync.Mutex
	boundaries map[int64]bool // committed row totals, the only legal probe counts
}

// newServe builds the serving warehouse: lineitem, a PARTITIONED BY /
// CLUSTERED BY copy of cycle and an ACID events table behind a server with
// default auto-compaction, the reader tables well inside the chunk cache.
// The reader is one session; with ingest a second session streams into
// events.
func newServe(sz sizes, ingest bool) (*env, error) {
	sc := workload.DefaultScale()
	sc.Lineitem = sz.serveLineitem
	be, _, err := bench.NewEnv(envConfig(sc, true, sz.serveCache, 1<<30), pick(bench.TPCHTables(), "lineitem"))
	if err != nil {
		return nil, err
	}
	d := be.Driver
	fail := func(err error) (*env, error) {
		d.Close()
		return nil, err
	}
	spec := &core.PartitionSpec{PartitionBy: []string{"img"}, BucketBy: []string{"x"}, NumBuckets: serveBuckets}
	l, err := d.CreateTableSpec("cycle_p", workload.SSDBSchema(), fileformat.ORC, orcOptions(), spec)
	if err != nil {
		return fail(err)
	}
	if err := workload.GenSSDB(workload.Scale{SSDBGrid: sz.serveGrid, SSDBImages: serveImages}, l.Write); err != nil {
		return fail(err)
	}
	if err := l.Close(); err != nil {
		return fail(err)
	}
	if err := d.CreateACIDTable("events", eventsSchema(), orcOptions()); err != nil {
		return fail(err)
	}
	s := &serveState{srv: server.New(d, server.ManagerConfig{}), batchMin: sz.batchMin, batchMax: sz.batchMax,
		boundaries: map[int64]bool{0: true}}
	e := &env{d: d, conf: d.Config(), serve: s, read: map[string][]string{
		"lineitem": {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
		"cycle_p":  {"x", "y", "v1"},
	}, cacheBudget: sz.serveCache}
	e.close = func() {
		s.srv.Close()
		d.Close()
	}
	reader, err := s.srv.OpenSession("")
	if err != nil {
		e.close()
		return nil, err
	}
	e.client = sessionClient("reader", reader)
	// The base rows are streamed during set-up through a writer session, so
	// the probe starts from committed rows; serve-read then closes it.
	writer, err := s.srv.OpenSession("")
	if err == nil {
		s.stream, err = writer.OpenStream("events")
	}
	base := rand.New(rand.NewSource(1))
	for err == nil && s.nextID < int64(sz.baseEvents) {
		_, err = s.ingestBatch(base)
	}
	if err == nil && !ingest {
		err = s.stream.Close()
		s.stream = nil
		writer.Close()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func newServeIngest(sz sizes) (*env, error) { return newServe(sz, true) }
func newServeRead(sz sizes) (*env, error)   { return newServe(sz, false) }

// serveCycle fixes the class proportions of one reader cycle: SS-DB q1 on
// cycle_p at each difficulty, TPC-H q6 and the events probe.
// The probe is half of every cycle, so the median falls inside the probe
// class and p90 inside q6, the slowest.
var serveCycle = struct{ ssdb, q6, probe int }{ssdb: 1, q6: 3, probe: 6}

func serveMix(rng *rand.Rand, sz sizes) *deck {
	var ssdb []*query
	for lvl := 0; lvl < 3; lvl++ {
		ssdb = append(ssdb, ptr(ssdbQ1(rng, sz.serveGrid, lvl, "cycle_p")))
	}
	q6 := gen(6, func() query { return tpchQ6(rng) })
	probe := []*query{{class: "probe", sql: eventsProbe, probe: true}}
	return newDeck(rng, [][]*query{ssdb, q6, probe},
		[]int{2 * 3 * serveCycle.ssdb, 2 * serveCycle.q6, 2 * serveCycle.probe})
}

// ingestBatch streams one seeded-size batch of consecutive ids and commits
// it, recording the new committed total as a legal probe count.
func (s *serveState) ingestBatch(rng *rand.Rand) (int, error) {
	n := s.batchMin + rng.Intn(s.batchMax-s.batchMin+1)
	for i := 0; i < n; i++ {
		if err := s.stream.Write(eventRow(s.nextID + int64(i))); err != nil {
			return 0, err
		}
	}
	if err := s.stream.Commit(); err != nil {
		return 0, err
	}
	s.nextID += int64(n)
	s.mu.Lock()
	s.boundaries[s.nextID] = true
	s.mu.Unlock()
	return n, nil
}

// writerPause is the writer's think time after each commit, as a
// streaming sink waits for its next batch to accumulate. Without it the
// writer grows events by millions of rows in a window and the reader
// measures little but scans of an ever larger table.
const writerPause = 10 * time.Millisecond

// writerLoop streams batches until the reader stops: a closed loop with
// one batch in flight, each timed from its first row to its commit.
func (s *serveState) writerLoop(rng *rand.Rand, stop *atomic.Bool, wd *watchdog, w *window) {
	for ; !stop.Load(); time.Sleep(writerPause) {
		w.attempted++
		wd.begin("writer", "write+commit")
		t := time.Now()
		n, err := s.ingestBatch(rng)
		lat := time.Since(t)
		wd.end("writer")
		if err != nil {
			w.fail("writer: " + err.Error())
			continue
		}
		w.commits = append(w.commits, sample{"commit", ms(lat)})
		w.committedRows += int64(n)
	}
}

// offBoundary counts the probe counts that are not committed totals. It
// runs once the writer has stopped, since a probe can see a commit before
// the writer has recorded it.
func (s *serveState) offBoundary(c *client) (bad int, first int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range c.probed {
		if !s.boundaries[n] {
			if bad == 0 {
				first = n
			}
			bad++
		}
	}
	c.probed = c.probed[:0]
	return bad, first
}

// latestRecord finds the newest query-history record of a session ("" for
// queries run on the driver directly): the program's own account of the
// query that just returned, since each workload has one query client.
func latestRecord(d *core.Driver, session string) (sysdb.QueryRecord, bool) {
	for _, r := range d.History().Tail(16) { // newest first
		if r.Session == session {
			return r, true
		}
	}
	return sysdb.QueryRecord{}, false
}

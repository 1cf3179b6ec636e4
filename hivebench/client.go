package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// minSlice is the shortest slice of a timed window. Slices end on mix
// cycle boundaries, so every slice runs whole cycles of the mix and the
// per-query figures of a slice do not depend on which classes it caught.
const minSlice = time.Second

type runFunc func(ctx context.Context, sql string, profiled bool) (*core.Result, *obs.PlanProfile, error)

// client is one closed-loop caller: it sends its next query only after
// the previous reply, as BI and ETL callers do.
type client struct {
	id   string
	run  runFunc
	sess *server.Session // the session it runs through (server workloads)
	dk   *deck

	lastN  int64   // count seen by this client's previous events probe
	probed []int64 // every count its probes returned
}

// driverClient runs queries through core.Driver under the workload's
// configuration; with a profile requested it is the RunProfiled path.
func driverClient(d *core.Driver, conf core.Config) *client {
	return &client{id: "client", run: func(ctx context.Context, sql string, profiled bool) (*core.Result, *obs.PlanProfile, error) {
		if profiled {
			res, _, prof, err := d.RunProfiledWith(ctx, conf, sql)
			return res, prof, err
		}
		res, err := d.RunWith(ctx, conf, sql)
		return res, nil, err
	}}
}

// sessionClient runs queries through a server session: admission, the
// session's configuration and its history labels.
func sessionClient(id string, s *server.Session) *client {
	return &client{id: id, sess: s, run: func(ctx context.Context, sql string, profiled bool) (*core.Result, *obs.PlanProfile, error) {
		if profiled {
			res, _, prof, err := s.RunProfiled(ctx, sql)
			return res, prof, err
		}
		res, err := s.Run(ctx, sql)
		return res, nil, err
	}}
}

// do runs and checks one query, recording it in the window.
func (c *client) do(e *env, q *query, w *window, wd *watchdog, L *layers) {
	w.attempted++
	wd.begin(c.id, q.class)
	var (
		res *core.Result
		lat time.Duration
		err error
	)
	if L != nil {
		res, lat, err = L.tracedQuery(context.Background(), e, c, q)
	} else {
		t := time.Now()
		res, _, err = c.run(context.Background(), q.sql, false)
		lat = time.Since(t)
	}
	wd.end(c.id)
	if err == nil {
		if q.probe {
			err = c.checkProbe(res)
		} else if d := diffRows(q.want, res.Rows, q.ordered); d != "" {
			err = fmt.Errorf("wrong result: %s", d)
		}
	}
	if err != nil {
		w.fail(c.id + " " + q.class + ": " + err.Error())
		return
	}
	w.addQuery(q.class, lat, res.Stats)
}

// checkProbe applies E15's arithmetic to the events probe: n rows seen
// means ids 0..n-1, so SUM(id) = n(n-1)/2; and a client's later snapshot
// never sees fewer rows than its earlier one. Whether n is a committed
// total is checked once the writer has stopped (serveState.offBoundary).
func (c *client) checkProbe(res *core.Result) error {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		return fmt.Errorf("probe: got %d rows", len(res.Rows))
	}
	n, ok1 := res.Rows[0][0].(int64)
	sum, ok2 := res.Rows[0][1].(int64)
	if !ok1 || !ok2 {
		return fmt.Errorf("probe: unexpected types %T, %T", res.Rows[0][0], res.Rows[0][1])
	}
	if sum != n*(n-1)/2 {
		return fmt.Errorf("probe: SUM(id)=%d over %d rows, want %d", sum, n, n*(n-1)/2)
	}
	if n < c.lastN {
		return fmt.Errorf("probe: snapshot went back from %d to %d rows", c.lastN, n)
	}
	c.lastN = n
	c.probed = append(c.probed, n)
	return nil
}

// warm runs every distinct query once (checking it) and then one cycle of
// the mix, so the LLAP daemon, caches and build cache reach their steady
// state before timing; it is part of set-up time.
func warm(e *env, wd *watchdog) error {
	c, w := e.client, &window{}
	for _, q := range c.dk.pool {
		c.do(e, q, w, wd, nil)
	}
	for range c.dk.cards {
		c.do(e, c.dk.next(), w, wd, nil)
	}
	if w.failed > 0 {
		return fmt.Errorf("%d of %d queries failed: %s", w.failed, w.attempted, strings.Join(w.failures, "; "))
	}
	return nil
}

// measure runs one timed window: the query client in its closed loop
// and, for serve-ingest, the streaming writer beside it. The client runs
// whole cycles of its mix until the window length has passed.
func measure(e *env, length time.Duration, wd *watchdog, L *layers, writerRng *rand.Rand) *window {
	w := &window{}
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		writes window
	)
	w.begin()
	if e.serve != nil && e.serve.stream != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.serve.writerLoop(writerRng, &stop, wd, &writes)
		}()
	}
	c := e.client
	for {
		c.do(e, c.dk.next(), w, wd, L)
		if c.dk.pos != 0 {
			continue // mid-cycle
		}
		if now := time.Now(); now.Sub(w.start) >= length {
			break
		} else if now.Sub(w.marks[len(w.marks)-1].at) >= minSlice {
			w.mark()
		}
	}
	w.finish()
	stop.Store(true)
	wg.Wait()
	w.merge(&writes)
	if e.serve != nil {
		if bad, first := e.serve.offBoundary(c); bad > 0 {
			w.failed += bad
			w.failures = append(w.failures, fmt.Sprintf("probe: %d snapshot count(s) not on a commit boundary, first %d", bad, first))
		}
	}
	return w
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fileformat"
	"repro/internal/optimizer"
	"repro/internal/orc"
	"repro/internal/types"
	"repro/internal/workload"
)

// sizes fixes the data and cache sizes of every workload. fullSizes is the
// benchmark; tinySizes keeps the smoke test fast.
type sizes struct {
	lineitem    int   // scan-agg lineitem rows
	ssdbGrid    int   // scan-agg cycle is ssdbGrid^2 pixels
	scanCache   int64 // scan-agg chunk-cache budget
	rowsPerFile int   // scan-agg rows per DFS file (map tasks)

	dsScale float64 // star-join TPC-DS scale (x workload.DefaultScale)

	serveLineitem int   // serve-ingest lineitem rows
	serveGrid     int   // serve-ingest cycle_p grid (serveImages images)
	serveCache    int64 // serve-ingest chunk-cache budget
	baseEvents    int   // events rows ingested during set-up
	batchMin      int   // seeded streamed batch size range
	batchMax      int
}

var fullSizes = sizes{
	lineitem: 300_000, ssdbGrid: 400, scanCache: 3 << 20, rowsPerFile: 100_000,
	dsScale:       1,
	serveLineitem: 60_000, serveGrid: 120, serveCache: 64 << 20,
	baseEvents: 20_000, batchMin: 100, batchMax: 400,
}

var tinySizes = sizes{
	lineitem: 6_000, ssdbGrid: 40, scanCache: 64 << 10, rowsPerFile: 2_000,
	dsScale:       0.05,
	serveLineitem: 3_000, serveGrid: 30, serveCache: 16 << 20,
	baseEvents: 500, batchMin: 20, batchMax: 60,
}

const (
	serveImages  = 2
	serveBuckets = 4
	// launchOverhead is the accounted (never slept) per-job start-up cost,
	// benchrunner's default; it only shows in modelled_ms_per_query.
	launchOverhead = 250 * time.Millisecond
)

// query is one generated request with its reference answer.
type query struct {
	class   string
	sql     string
	ordered bool        // ORDER BY: compare in order, not as a multiset
	want    []types.Row // canonical reference answer; nil for the events probe
	probe   bool        // the events snapshot probe, checked arithmetically
}

// envConfig is the deployed configuration: ORC with the Snappy-like
// codec and every optimization on.
func envConfig(sc workload.Scale, llap bool, cache int64, rowsPerFile int) bench.EnvConfig {
	return bench.EnvConfig{
		Scale:          sc,
		Format:         fileformat.ORC,
		Compression:    compress.Snappy,
		RowsPerFile:    rowsPerFile,
		Opt:            optimizer.AllOn(),
		LaunchOverhead: launchOverhead,
		LLAP:           llap,
		LLAPCacheBytes: cache,
	}
}

func orcOptions() *fileformat.Options {
	return &fileformat.Options{Compression: compress.Snappy, ORCOptions: &orc.WriterOptions{
		RowIndexStride: 1024, StripeSize: 4 << 20, Compression: compress.Snappy,
	}}
}

// pick selects table specs by name from the exported dataset lists.
func pick(specs []bench.TableSpec, names ...string) []bench.TableSpec {
	var out []bench.TableSpec
	for _, n := range names {
		for _, s := range specs {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// subst replaces the single occurrence of old in a reference query text,
// so seeded parameters reuse the workload package's query templates.
func subst(text, old, new string) string {
	if strings.Count(text, old) != 1 {
		panic(fmt.Sprintf("hivebench: template literal %q occurs %d times", old, strings.Count(text, old)))
	}
	return strings.Replace(text, old, new, 1)
}

// TPC-H q6 parameters (spec §2.4.6.3): DATE is January 1st of 1993..1997,
// DISCOUNT 0.02..0.09, QUANTITY 24..25. Dates are epoch days.
var q6Years = []int{8401, 8766, 9131, 9496, 9862, 10227}

func tpchQ6(rng *rand.Rand) query {
	y := rng.Intn(5)
	disc := 2 + rng.Intn(8)
	q := workload.TPCHQ6()
	q = subst(q, "l_shipdate >= 8766", fmt.Sprintf("l_shipdate >= %d", q6Years[y]))
	q = subst(q, "l_shipdate < 9131", fmt.Sprintf("l_shipdate < %d", q6Years[y+1]))
	q = subst(q, "BETWEEN 0.05 AND 0.07", fmt.Sprintf("BETWEEN 0.%02d AND 0.%02d", disc-1, disc+1))
	q = subst(q, "l_quantity < 24", fmt.Sprintf("l_quantity < %d", 24+rng.Intn(2)))
	return query{class: "q6", sql: q}
}

func tpchQ1() query { return query{class: "q1", sql: workload.TPCHQ1(), ordered: true} }

// ssdbQ1 draws the paper's easy/medium/hard bound (grid/4, grid/2, grid)
// less a seeded jitter of up to grid/16.
func ssdbQ1(rng *rand.Rand, grid, level int, table string) query {
	bound := grid*[]int{1, 2, 4}[level]/4 - 1 - rng.Intn(grid/16+1)
	q := workload.SSDBQuery1(bound)
	if table != "cycle" {
		q = subst(q, "FROM cycle", "FROM "+table)
	}
	return query{class: "ssdb-" + []string{"easy", "medium", "hard"}[level], sql: q}
}

var (
	q27States = []string{"TN", "SD", "AL", "OH", "GA", "CA"}
	q27Educ   = []string{"Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown"}
	q27Marit  = []string{"S", "M", "D", "W", "U"}
	q95States = []string{"IL", "GA", "OH", "CA", "TX", "NY"}
)

// tpcdsQ27 draws a state list, year and demographics (spec §B.27).
func tpcdsQ27(rng *rand.Rand) query {
	st := rng.Perm(len(q27States))[:3]
	q := workload.TPCDSQ27()
	q = subst(q, "cd.cd_gender = 'M'", fmt.Sprintf("cd.cd_gender = '%s'", []string{"M", "F"}[rng.Intn(2)]))
	q = subst(q, "cd.cd_marital_status = 'S'", fmt.Sprintf("cd.cd_marital_status = '%s'", q27Marit[rng.Intn(len(q27Marit))]))
	q = subst(q, "cd.cd_education_status = 'College'", fmt.Sprintf("cd.cd_education_status = '%s'", q27Educ[rng.Intn(len(q27Educ))]))
	q = subst(q, "d.d_year = 2002", fmt.Sprintf("d.d_year = %d", 2001+rng.Intn(3)))
	q = subst(q, "('TN', 'SD', 'AL')", fmt.Sprintf("('%s', '%s', '%s')", q27States[st[0]], q27States[st[1]], q27States[st[2]]))
	return query{class: "q27", sql: q, ordered: true}
}

// tpcdsQ95 draws the ship-to state and year (spec §B.95).
func tpcdsQ95(rng *rand.Rand) query {
	q := workload.TPCDSQ95()
	q = subst(q, "d.d_year = 2002", fmt.Sprintf("d.d_year = %d", 2001+rng.Intn(3)))
	q = subst(q, "ca.ca_state = 'IL'", fmt.Sprintf("ca.ca_state = '%s'", q95States[rng.Intn(len(q95States))]))
	return query{class: "q95", sql: q}
}

// deck is one cycle of a closed-loop mix: every entry is drawn from a
// small pool of distinct queries (each checked against one reference
// answer), and the entries are reshuffled for every cycle.
type deck struct {
	pool  []*query
	cards []*query
	rng   *rand.Rand
	pos   int
}

func (d *deck) next() *query {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	q := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return q
}

// newDeck lays out counts[i] cards drawn from pools[i] (the same pool
// entry may repeat).
func newDeck(rng *rand.Rand, pools [][]*query, counts []int) *deck {
	d := &deck{rng: rng}
	for i, p := range pools {
		d.pool = append(d.pool, p...)
		for c := 0; c < counts[i]; c++ {
			d.cards = append(d.cards, p[c%len(p)])
		}
	}
	return d
}

func gen(n int, f func() query) []*query {
	out := make([]*query, n)
	for i := range out {
		q := f()
		out[i] = &q
	}
	return out
}

// references computes each pool query's answer on the unoptimized
// MapReduce/row reference configuration of the same warehouse.
func references(d *core.Driver, pool []*query) error {
	ref := d.Config()
	ref.Engine = core.ModeMapReduce
	ref.Opt = optimizer.Options{}
	for _, q := range pool {
		if q.probe || q.want != nil {
			continue
		}
		res, err := d.RunWith(context.Background(), ref, q.sql)
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.class, err)
		}
		q.want = canonical(res.Rows, q.ordered)
	}
	return nil
}

// newScanAgg builds scan-agg: TPC-H lineitem and SS-DB cycle on LLAP with a
// chunk cache about a third of the decompressed columns the mix reads.
func newScanAgg(sz sizes) (*env, error) {
	sc := workload.DefaultScale()
	sc.Lineitem = sz.lineitem
	sc.SSDBGrid = sz.ssdbGrid
	sc.SSDBImages = 1
	specs := append(pick(bench.TPCHTables(), "lineitem"), bench.SSDBTables()...)
	be, _, err := bench.NewEnv(envConfig(sc, true, sz.scanCache, sz.rowsPerFile), specs)
	if err != nil {
		return nil, err
	}
	d := be.Driver
	e := &env{d: d, conf: d.Config(), read: map[string][]string{
		"lineitem": {"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"},
		"cycle":    {"x", "y", "v1"},
	}, cacheBudget: sz.scanCache}
	e.client = driverClient(d, e.conf)
	e.close = d.Close
	return e, nil
}

// scanAggCycle fixes the class proportions of one scan-agg cycle. q1 is
// the slow class; the median falls inside the q6 class and p90 inside q1.
var scanAggCycle = struct{ q1, q6, ssdb int }{q1: 3, q6: 5, ssdb: 1}

func scanAggMix(rng *rand.Rand, sz sizes) *deck {
	q1 := []*query{ptr(tpchQ1())}
	q6 := gen(scanAggCycle.q6, func() query { return tpchQ6(rng) })
	pools, counts := [][]*query{q1, q6}, []int{scanAggCycle.q1, scanAggCycle.q6}
	for lvl := 0; lvl < 3; lvl++ {
		pools = append(pools, gen(scanAggCycle.ssdb, func() query { return ssdbQ1(rng, sz.ssdbGrid, lvl, "cycle") }))
		counts = append(counts, scanAggCycle.ssdb)
	}
	return newDeck(rng, pools, counts)
}

// newStarJoin builds star-join: the TPC-DS q27/q95 tables on MapReduce.
func newStarJoin(sz sizes) (*env, error) {
	sc := workload.DefaultScale()
	mul := func(n int) int { return max(1, int(float64(n)*sz.dsScale)) }
	sc.StoreSales, sc.WebSales, sc.WebReturns = mul(sc.StoreSales), mul(sc.WebSales), mul(sc.WebReturns)
	sc.Demographics, sc.Addresses, sc.Items = mul(sc.Demographics), mul(sc.Addresses), mul(sc.Items)
	be, _, err := bench.NewEnv(envConfig(sc, false, 0, 1<<30), bench.TPCDSTables())
	if err != nil {
		return nil, err
	}
	d := be.Driver
	e := &env{d: d, conf: d.Config(), read: map[string][]string{
		"store_sales":           {"ss_sold_date_sk", "ss_item_sk", "ss_cdemo_sk", "ss_store_sk", "ss_quantity", "ss_list_price", "ss_coupon_amt", "ss_sales_price"},
		"web_sales":             {"ws_order_number", "ws_ship_date_sk", "ws_ship_addr_sk", "ws_ext_ship_cost", "ws_net_profit"},
		"web_returns":           {"wr_order_number"},
		"customer_demographics": {"cd_demo_sk", "cd_gender", "cd_marital_status", "cd_education_status"},
		"date_dim":              {"d_date_sk", "d_year"},
		"store":                 {"s_store_sk", "s_state"},
		"item":                  {"i_item_sk", "i_item_id"},
		"customer_address":      {"ca_address_sk", "ca_state"},
	}}
	e.client = driverClient(d, e.conf)
	e.close = d.Close
	return e, nil
}

// starJoinCycle fixes the class proportions of one star-join cycle.
// q95 is the slow class; the median falls inside q27 and p90 inside q95.
var starJoinCycle = struct{ q27, q95 int }{q27: 2, q95: 1}

func starJoinMix(rng *rand.Rand, _ sizes) *deck {
	q27 := gen(6, func() query { return tpcdsQ27(rng) })
	q95 := gen(6, func() query { return tpcdsQ95(rng) })
	return newDeck(rng, [][]*query{q27, q95}, []int{6 * starJoinCycle.q27, 6 * starJoinCycle.q95})
}

func ptr(q query) *query { return &q }

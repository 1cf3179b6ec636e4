// systables.go gives the driver a `sys` database (S26): virtual tables
// over live driver state — query history, in-flight queries, the metrics
// registry, cache tiers, open transactions, and (registered by the server
// layer) pools and sessions. A sys table is a schema plus a snapshot
// function; the planner resolves it through a catalog wrapper and the
// executor turns the snapshot into an ordinary in-memory split, so every
// engine mode runs `SELECT ... FROM sys.queries WHERE wall_ms > 1000`
// through the same operator pipeline as a base table.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sysdb"
	"repro/internal/types"
)

// sysCatalog resolves sys.* names to their virtual schemas and everything
// else to the metastore; the front end (Driver.prepare) plans against it.
type sysCatalog struct{ d *Driver }

func (c sysCatalog) TableSchema(name string) (*types.Schema, error) {
	if sysdb.IsSysTable(name) {
		def, ok := c.d.sysTableDef(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown sys table %q", name)
		}
		return def.Schema, nil
	}
	return c.d.meta.TableSchema(name)
}

// RegisterSysTable installs (or replaces) a virtual table; subsystems
// above the driver register the state they own (the server adds
// sys.pools and sys.sessions).
func (d *Driver) RegisterSysTable(def sysdb.TableDef) {
	d.sysMu.Lock()
	defer d.sysMu.Unlock()
	if d.sysExtra == nil {
		d.sysExtra = map[string]sysdb.TableDef{}
	}
	d.sysExtra[def.Name] = def
}

// UnregisterSysTable removes a subsystem-registered virtual table (pool
// teardown removes sys.pools, mirroring its metrics prefix removal).
func (d *Driver) UnregisterSysTable(name string) {
	d.sysMu.Lock()
	defer d.sysMu.Unlock()
	delete(d.sysExtra, name)
}

// SysTables lists every queryable sys.* table, sorted (the REPL's \sys).
func (d *Driver) SysTables() []string {
	names := make([]string, 0, 8)
	for _, def := range d.builtinSysTables() {
		names = append(names, def.Name)
	}
	d.sysMu.Lock()
	for name := range d.sysExtra {
		names = append(names, name)
	}
	d.sysMu.Unlock()
	sort.Strings(names)
	return names
}

// SysTableSchema returns a registered sys table's schema (the REPL's \sys
// renders column lists from it).
func (d *Driver) SysTableSchema(name string) (*types.Schema, error) {
	def, ok := d.sysTableDef(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown sys table %q", name)
	}
	return def.Schema, nil
}

// sysTableDef resolves one sys table: subsystem registrations first (they
// may shadow a builtin), then the driver's builtins.
func (d *Driver) sysTableDef(name string) (sysdb.TableDef, bool) {
	d.sysMu.Lock()
	def, ok := d.sysExtra[name]
	d.sysMu.Unlock()
	if ok {
		return def, true
	}
	for _, def := range d.builtinSysTables() {
		if def.Name == name {
			return def, true
		}
	}
	return sysdb.TableDef{}, false
}

func (d *Driver) builtinSysTables() []sysdb.TableDef {
	h := d.History()
	return []sysdb.TableDef{
		h.QueriesTable(),
		h.LiveQueriesTable(),
		d.metricsTable(),
		d.cachesTable(),
		d.txnsTable(),
		d.partitionsTable(),
	}
}

// partitionsTable reports every registered partition of every layout-spec
// table: its directory, row/byte/file stats, and the table's bucket and
// replica-layout shape — the catalog view behind partition pruning.
func (d *Driver) partitionsTable() sysdb.TableDef {
	return sysdb.TableDef{
		Name: "sys.partitions",
		Schema: types.NewSchema(
			types.Col("table_name", str()),
			types.Col("partition", str()),
			types.Col("path", str()),
			types.Col("rows", long()),
			types.Col("bytes", long()),
			types.Col("files", long()),
			types.Col("num_buckets", long()),
			types.Col("num_replicas", long()),
		),
		Rows: func() []types.Row {
			var rows []types.Row
			for _, name := range d.meta.Names() {
				meta, err := d.meta.Table(name)
				if err != nil || meta.Partitioning == nil {
					continue
				}
				spec := meta.Partitioning
				for _, pi := range d.meta.Partitions(name) {
					rows = append(rows, types.Row{
						name, pi.Key, pi.Path, pi.Rows, pi.Bytes, int64(pi.Files),
						int64(spec.NumBuckets), int64(len(spec.ReplicaLayouts)),
					})
				}
			}
			return rows
		},
	}
}

// metricsTable renders the unified registry as rows: one per metric, with
// histogram mean and interpolated p50/p90/p99 columns (zero for counters
// and gauges).
func (d *Driver) metricsTable() sysdb.TableDef {
	return sysdb.TableDef{
		Name: "sys.metrics",
		Schema: types.NewSchema(
			types.Col("name", str()),
			types.Col("kind", str()),
			types.Col("value", long()),
			types.Col("count", long()),
			types.Col("sum", long()),
			types.Col("mean", long()),
			types.Col("p50", long()),
			types.Col("p90", long()),
			types.Col("p99", long()),
		),
		Rows: func() []types.Row {
			snap := d.Registry().Snapshot()
			names := make([]string, 0, len(snap.Values))
			for name := range snap.Values {
				names = append(names, name)
			}
			sort.Strings(names)
			rows := make([]types.Row, 0, len(names))
			for _, name := range names {
				v := snap.Values[name]
				switch v.Kind {
				case obs.KindHistogram:
					rows = append(rows, types.Row{
						name, "histogram", v.N, v.Hist.Count, v.Hist.Sum, v.Hist.Mean(),
						v.Hist.Quantile(0.5), v.Hist.Quantile(0.9), v.Hist.Quantile(0.99),
					})
				case obs.KindGauge:
					rows = append(rows, types.Row{name, "gauge", v.N, int64(0), int64(0), int64(0), int64(0), int64(0), int64(0)})
				default:
					rows = append(rows, types.Row{name, "counter", v.N, int64(0), int64(0), int64(0), int64(0), int64(0), int64(0)})
				}
			}
			return rows
		},
	}
}

// cachesTable reports the LLAP daemon's cache tiers; empty until a
// ModeLLAP query has started the daemon (starting it from a metadata
// query would be a side effect).
func (d *Driver) cachesTable() sysdb.TableDef {
	return sysdb.TableDef{
		Name: "sys.caches",
		Schema: types.NewSchema(
			types.Col("tier", str()),
			types.Col("entries", long()),
			types.Col("bytes", long()),
			types.Col("budget", long()),
			types.Col("hits", long()),
			types.Col("misses", long()),
			types.Col("inserts", long()),
			types.Col("evictions", long()),
		),
		Rows: func() []types.Row {
			d.llapMu.Lock()
			daemon := d.llapDaemon
			d.llapMu.Unlock()
			if daemon == nil {
				return nil
			}
			var rows []types.Row
			if cc := daemon.ChunkCache(); cc != nil {
				s := cc.Snapshot()
				rows = append(rows, types.Row{
					"chunk", s.Entries, s.BytesCached, cc.Budget(),
					s.Hits, s.Misses, s.Inserts, s.Evictions,
				})
			}
			if mc := daemon.MetaCache(); mc != nil {
				rows = append(rows, types.Row{
					"meta", int64(mc.Len()), int64(0), int64(0),
					mc.Hits(), mc.Misses(), int64(0), int64(0),
				})
			}
			if bc := daemon.Builds(); bc != nil {
				s := bc.Snapshot()
				rows = append(rows, types.Row{
					"build", int64(bc.Len()), int64(0), int64(0),
					s.Hits, s.Misses, s.Puts, s.Evictions,
				})
			}
			return rows
		},
	}
}

// txnsTable reports open transactions from the ACID manager; empty when
// the session never used ACID tables.
func (d *Driver) txnsTable() sysdb.TableDef {
	return sysdb.TableDef{
		Name: "sys.txns",
		Schema: types.NewSchema(
			types.Col("txn_id", long()),
			types.Col("state", str()),
			types.Col("rows", long()),
			types.Col("tables", str()),
		),
		Rows: func() []types.Row {
			mgr := d.txnManager()
			if mgr == nil {
				return nil
			}
			open := mgr.OpenTxns()
			rows := make([]types.Row, 0, len(open))
			for _, t := range open {
				tables := ""
				for i, name := range t.Tables {
					if i > 0 {
						tables += ","
					}
					tables += name
				}
				rows = append(rows, types.Row{t.ID, t.State, t.Rows, tables})
			}
			return rows
		},
	}
}

func long() *types.Type { return types.Primitive(types.Long) }
func str() *types.Type  { return types.Primitive(types.String) }

// planFingerprint hashes the optimized plan's rendering: queries whose
// optimized shapes agree share a hash, so a history scan groups repeated
// traffic by plan as well as by query fingerprint.
func planFingerprint(p *plan.Plan) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return h.Sum64()
}

// planEstRows extracts the optimizer's cardinality estimate at the result
// sink (walking up to the nearest estimated ancestor), or -1 when CBO
// produced none — sys.queries' est_rows vs actual_rows column pair.
func planEstRows(p *plan.Plan) int64 {
	for _, sink := range p.Sinks {
		if sink.Dest != "" {
			continue
		}
		n := plan.Node(sink)
		for n != nil {
			b := n.Base()
			if b.EstSet {
				return b.EstRows
			}
			if len(b.Parents) == 0 {
				break
			}
			n = b.Parents[0]
		}
	}
	return -1
}

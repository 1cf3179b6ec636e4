// manifest.go: the per-table manifest is the single source of truth for
// which files an ACID table consists of. Readers never list the table
// directory (a listing would see uncommitted deltas and compaction temps);
// they resolve a View through the manifest, filtered by their snapshot.
// Every mutation — delta publication at commit, compaction commit — is one
// dfs.WriteAtomic of the whole manifest, so concurrent readers observe
// either the old file set or the new one, never a mix.
package txn

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/dfs"
)

// Delta is one manifest entry: the files holding the rows of transactions
// [TxnLo, TxnHi]. A single-transaction delta (TxnLo == TxnHi) is visible
// only to snapshots that see its transaction; a merged delta (TxnLo < TxnHi,
// produced by minor compaction) is visible unconditionally, which is sound
// because compaction only merges transactions at or below the ceiling every
// live and future snapshot already sees (see CompactionCeiling).
type Delta struct {
	TxnLo int64    `json:"lo"`
	TxnHi int64    `json:"hi"`
	Files []string `json:"files"`
	Rows  int64    `json:"rows"`
}

func (d Delta) merged() bool { return d.TxnHi > d.TxnLo }

// Manifest is a table's published file-set state.
type Manifest struct {
	Table    string   `json:"table"`
	Version  int64    `json:"version"`
	BaseTxn  int64    `json:"baseTxn,omitempty"` // highest transaction folded into the base
	Base     []string `json:"base,omitempty"`    // base files (major compaction output)
	BaseRows int64    `json:"baseRows,omitempty"`
	Deltas   []Delta  `json:"deltas"` // sorted by TxnLo
}

func (man *Manifest) clone() *Manifest {
	nm := *man
	nm.Base = append([]string(nil), man.Base...)
	nm.Deltas = make([]Delta, len(man.Deltas))
	for i, d := range man.Deltas {
		nm.Deltas[i] = d
		nm.Deltas[i].Files = append([]string(nil), d.Files...)
	}
	return &nm
}

// ManifestPath returns where a table's manifest lives.
func ManifestPath(tablePath string) string { return tablePath + "/_manifest" }

// tableState serializes manifest mutations for one table. The cached
// *Manifest is treated as immutable once set: mutators clone, publish the
// clone to the DFS, then swap the cache.
//
// Lock order: a committing Txn.mu, then tableState.mu, then dfs.FS.mu,
// then a DFS file's mu. mu is held across the manifest's fs.WriteAtomic
// and, in a compaction publish, across fs.Rename and fs.Remove; those take
// FS.mu and then file locks, and the dfs never calls back into txn, so no
// holder of an FS or file lock waits on mu. TestTableLockOrder races
// commits and compactions against List, TotalSize and Rename under -race.
type tableState struct {
	info TableInfo
	mu   sync.Mutex
	man  *Manifest
}

// manifestLocked returns the current manifest, loading it from the DFS on
// first touch (adopting a pre-crash manifest) or publishing an empty
// version-1 manifest for a brand-new table. Caller holds st.mu.
func (st *tableState) manifestLocked(fs *dfs.FS) (*Manifest, error) {
	if st.man != nil {
		return st.man, nil
	}
	path := ManifestPath(st.info.Path)
	if fs.Exists(path) {
		man, err := readManifest(fs, path)
		if err != nil {
			return nil, err
		}
		st.man = man
		return st.man, nil
	}
	man := &Manifest{Table: st.info.Name, Version: 1}
	if err := st.publishLocked(fs, man); err != nil {
		return nil, err
	}
	return st.man, nil
}

func readManifest(fs *dfs.FS, path string) (*Manifest, error) {
	data, err := fs.ReadVerified(path)
	if err != nil {
		return nil, fmt.Errorf("txn: loading manifest %s: %w", path, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("txn: decoding manifest %s: %w", path, err)
	}
	return &man, nil
}

// publishLocked writes the manifest atomically and swaps the cache. Caller
// holds st.mu and has already set man.Version.
func (st *tableState) publishLocked(fs *dfs.FS, man *Manifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	if err := fs.WriteAtomic(ManifestPath(st.info.Path), data); err != nil {
		return err
	}
	st.man = man
	return nil
}

// appendDelta publishes a committed transaction's delta entry, keeping
// Deltas sorted by TxnLo. It returns the table's delta count afterwards
// (the auto-compaction trigger input).
func (st *tableState) appendDelta(fs *dfs.FS, d Delta) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	man, err := st.manifestLocked(fs)
	if err != nil {
		return 0, err
	}
	nm := man.clone()
	pos := len(nm.Deltas)
	for i, e := range nm.Deltas {
		if e.TxnLo > d.TxnLo {
			pos = i
			break
		}
	}
	nm.Deltas = append(nm.Deltas[:pos], append([]Delta{d}, nm.Deltas[pos:]...)...)
	nm.Version++
	if err := st.publishLocked(fs, nm); err != nil {
		return 0, err
	}
	return len(nm.Deltas), nil
}

// View is a snapshot-resolved file set: everything a reader scans for one
// table at one snapshot, in deterministic order (base files, then deltas by
// ascending TxnLo).
type View struct {
	Table   string
	Version int64 // manifest version the view was resolved from
	Files   []string
	Rows    int64 // committed rows visible in the view
}

// Fingerprint renders the view compactly for cache keys: two queries whose
// snapshots resolve the same file set share one fingerprint even across
// manifest versions (a commit to a different delta range republishes the
// manifest without changing an old snapshot's file set).
func (v View) Fingerprint() string {
	h := fnv.New64a()
	for _, f := range v.Files {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s@txn/%016x", v.Table, h.Sum64())
}

// ResolveView resolves the file set a snapshot reads for a table: the base
// (always fully visible — it only ever contains transactions below every
// snapshot's ceiling) plus each visible delta. snap == nil reads the latest
// committed state.
func (m *Manager) ResolveView(table string, snap *Snapshot) (View, error) {
	st, err := m.tableState(table)
	if err != nil {
		return View{}, err
	}
	st.mu.Lock()
	man, err := st.manifestLocked(m.fs)
	st.mu.Unlock()
	if err != nil {
		return View{}, err
	}
	// man is immutable once published; no lock needed past the load.
	v := View{Table: table, Version: man.Version}
	v.Files = append(v.Files, man.Base...)
	v.Rows = man.BaseRows
	for _, d := range man.Deltas {
		if d.merged() || snap.Visible(d.TxnLo) {
			v.Files = append(v.Files, d.Files...)
			v.Rows += d.Rows
		}
	}
	return v, nil
}

// ManifestOf returns a deep copy of the table's current manifest, for
// introspection (the shell's \txns display and tests).
func (m *Manager) ManifestOf(table string) (Manifest, error) {
	st, err := m.tableState(table)
	if err != nil {
		return Manifest{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	man, err := st.manifestLocked(m.fs)
	if err != nil {
		return Manifest{}, err
	}
	return *man.clone(), nil
}

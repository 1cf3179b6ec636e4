// Package dfs is an in-process stand-in for HDFS (paper §2). It provides a
// block-structured filesystem with configurable block size, simulated
// datanode placement, and global accounting of bytes read/written and
// local vs. remote block reads. The accounting is what the paper's Figure
// 10(b) reports ("amounts of data read from HDFS"), and block placement is
// what makes ORC's stripe/block alignment (§4.1) observable.
package dfs

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats aggregates I/O accounting across a filesystem. All counters are
// cumulative; use Snapshot/Diff to measure a single query.
type Stats struct {
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	ReadOps      atomic.Int64
	WriteOps     atomic.Int64
	LocalReads   atomic.Int64 // block reads served by the reader's node
	RemoteReads  atomic.Int64 // block reads that crossed nodes
	// Metadata reads (ORC postscripts, footers, row indexes — issued via
	// ReadAtMeta) as a sub-category of ReadOps/BytesRead: they are included
	// in the totals above and broken out here so cache experiments can
	// separate "planning" I/O from data-stream I/O.
	MetaReadOps   atomic.Int64
	MetaBytesRead atomic.Int64
	// IOTimeNanos is the simulated disk time for the bytes moved and the
	// seeks performed, at the configured bandwidth and seek latency.
	// Nothing sleeps; the driver adds this to reported elapsed times so
	// I/O volume shapes query latency the way real disks shaped the
	// paper's numbers.
	IOTimeNanos atomic.Int64
	// CorruptReads counts block reads that failed CRC32 verification (each
	// detection also fails over to the good replica, so the next read of
	// the block succeeds).
	CorruptReads atomic.Int64
	// InjectedReadFaults counts reads failed by the fault policy's
	// simulated datanode errors.
	InjectedReadFaults atomic.Int64
	// ReplicaRoutedHits counts scans routed to a divergent replica whose
	// sort/index layout matched the query predicate (HAIL-style routing);
	// ReplicaFallbacks counts scans that wanted a routed replica but read
	// another copy because the routed one was unavailable.
	ReplicaRoutedHits atomic.Int64
	ReplicaFallbacks  atomic.Int64
}

// statsScopeKey carries a per-query *Stats through a context.
type statsScopeKey struct{}

// WithStatsScope returns a context carrying a per-query Stats scope.
// Readers and writers whose context (SetContext) carries a scope mirror
// every counter they charge to the filesystem's global Stats into the
// scope as well, so a driver running concurrent queries can measure one
// query's I/O directly instead of diffing shared cumulative counters —
// which would attribute every simultaneous query's bytes to all of them.
func WithStatsScope(ctx context.Context, s *Stats) context.Context {
	return context.WithValue(ctx, statsScopeKey{}, s)
}

// StatsScopeFrom extracts the per-query Stats scope from a context, or nil.
func StatsScopeFrom(ctx context.Context) *Stats {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(statsScopeKey{}).(*Stats)
	return s
}

// Snapshot is an immutable copy of Stats counters.
type Snapshot struct {
	BytesRead          int64
	BytesWritten       int64
	ReadOps            int64
	WriteOps           int64
	LocalReads         int64
	RemoteReads        int64
	MetaReadOps        int64
	MetaBytesRead      int64
	IOTime             time.Duration
	CorruptReads       int64
	InjectedReadFaults int64
	ReplicaRoutedHits  int64
	ReplicaFallbacks   int64
}

// Snapshot copies the current counter values (obs.ReadStruct maps the
// IOTimeNanos counter onto the IOTime duration by the Nanos convention).
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	obs.ReadStruct(&out, s)
	return out
}

// Diff returns the delta from an earlier snapshot.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	return obs.DiffStruct(s, earlier)
}

// ReadFaultPolicy decides whether a read touching a block fails with a
// simulated datanode error (see internal/faultinject). Implementations
// must be safe for concurrent use.
type ReadFaultPolicy interface {
	ReadFault(file string, block int64, node int) bool
}

// ErrReadFault is the sentinel all injected datanode read errors wrap;
// callers retry on it the way Hadoop retries a failed block fetch.
var ErrReadFault = errors.New("dfs: datanode read error (injected)")

// ErrCorrupt is the sentinel all block-checksum failures wrap.
var ErrCorrupt = errors.New("dfs: block checksum mismatch")

// ReadFaultError is an injected datanode error naming the failing block.
type ReadFaultError struct {
	File     string
	Block    int64
	Datanode int
}

func (e *ReadFaultError) Error() string {
	return fmt.Sprintf("dfs: read %s block %d on datanode %d: %v", e.File, e.Block, e.Datanode, ErrReadFault)
}

// Unwrap makes errors.Is(err, ErrReadFault) hold.
func (e *ReadFaultError) Unwrap() error { return ErrReadFault }

// CorruptError reports a CRC32 verification failure, naming the file,
// block and hosting datanode. Detection also fails the bad replica over,
// so a retried read of the same block succeeds.
type CorruptError struct {
	File     string
	Block    int64
	Datanode int
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("dfs: read %s block %d on datanode %d: %v", e.File, e.Block, e.Datanode, ErrCorrupt)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// FS is the in-memory distributed filesystem. It is safe for concurrent use.
//
// Lock order: fs.mu before any file's f.mu. List, Rename and the other
// namespace walks hold fs.mu while they take f.mu; nothing that holds f.mu
// may take fs.mu. Block placement therefore advances nextNode atomically
// rather than under fs.mu.
type FS struct {
	mu        sync.RWMutex
	files     map[string]*file
	down      map[string]bool // unavailable files (simulated replica loss)
	blockSize int64
	numNodes  int
	nextNode  atomic.Uint64 // round-robin placement cursor
	bandwidth int64         // simulated bytes/second, 0 = free I/O
	seek      time.Duration
	stats     Stats
	faults    atomic.Value // ReadFaultPolicy
}

type file struct {
	mu     sync.RWMutex
	data   []byte
	blocks []int // datanode hosting each block, by block index
	closed bool
	// sums holds one CRC32 (IEEE) per block, computed when the file is
	// sealed; verified memoizes per-block verification (data is immutable
	// after Close, so one successful check per block is sound — any
	// corruption goes through the overlay below, which re-arms the check).
	sums     []uint32
	verified []atomic.Bool
	// corrupt simulates a bad replica: block index → absolute byte offset
	// whose stored value reads back XOR 0xFF. The pristine bytes are kept,
	// so failing over (dropping the overlay) restores a good copy.
	corrupt map[int64]int64
}

// Option configures a filesystem.
type Option func(*FS)

// WithBlockSize sets the DFS block size (default 128 MiB; the paper's
// evaluation uses 512 MB, the benchmarks scale it down).
func WithBlockSize(n int64) Option {
	return func(f *FS) {
		if n > 0 {
			f.blockSize = n
		}
	}
}

// WithNodes sets the number of simulated datanodes (default 10, the paper's
// slave-node count).
func WithNodes(n int) Option {
	return func(f *FS) {
		if n > 0 {
			f.numNodes = n
		}
	}
}

// WithSimulatedDisk charges IOTime for every byte moved (at bytesPerSec)
// and every read/write operation (seek). Nothing sleeps; the accounting
// flows into reported elapsed times so data volume shapes latency, as the
// hard disks of the paper's cluster did.
func WithSimulatedDisk(bytesPerSec int64, seek time.Duration) Option {
	return func(f *FS) {
		f.bandwidth = bytesPerSec
		f.seek = seek
	}
}

// New creates an empty filesystem.
func New(opts ...Option) *FS {
	f := &FS{
		files:     make(map[string]*file),
		down:      make(map[string]bool),
		blockSize: 128 << 20,
		numNodes:  10,
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// BlockSize returns the filesystem block size in bytes.
func (fs *FS) BlockSize() int64 { return fs.blockSize }

// NumNodes returns the number of simulated datanodes.
func (fs *FS) NumNodes() int { return fs.numNodes }

// Stats exposes the cumulative I/O counters.
func (fs *FS) Stats() *Stats { return &fs.stats }

// SetFaultPolicy installs (or, with nil, removes) the read fault injector.
func (fs *FS) SetFaultPolicy(p ReadFaultPolicy) {
	fs.faults.Store(&p)
}

func (fs *FS) faultPolicy() ReadFaultPolicy {
	if v := fs.faults.Load(); v != nil {
		return *v.(*ReadFaultPolicy)
	}
	return nil
}

// CorruptBlock simulates a corrupted replica of one block of a sealed
// file: subsequent reads touching the block fail CRC verification with a
// CorruptError until a read detects the corruption and fails over to the
// good replica.
func (fs *FS) CorruptBlock(name string, block int64) error {
	name = clean(name)
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return fmt.Errorf("dfs: corrupt %s: file does not exist", name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		return fmt.Errorf("dfs: corrupt %s: file is still being written", name)
	}
	if block < 0 || block >= int64(len(f.blocks)) {
		return fmt.Errorf("dfs: corrupt %s: block %d out of range [0,%d)", name, block, len(f.blocks))
	}
	if f.corrupt == nil {
		f.corrupt = map[int64]int64{}
	}
	f.corrupt[block] = block * fs.blockSize // flip the block's first byte
	f.verified[block].Store(false)
	return nil
}

func clean(name string) string {
	p := path.Clean("/" + name)
	return p
}

// Create opens a new file for writing, truncating any existing file at the
// path. Writes are sequential (HDFS semantics: append-only, no random
// writes).
func (fs *FS) Create(name string) (*FileWriter, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &file{}
	fs.files[name] = f
	return &FileWriter{fs: fs, f: f, name: name}, nil
}

// SetUnavailable marks a file unavailable (down=true) or restores it,
// simulating the loss of the datanode holding that replica. Open fails for
// unavailable files; the scan scheduler uses Unavailable to fall back to a
// different replica layout before ever issuing the read.
func (fs *FS) SetUnavailable(name string, down bool) {
	name = clean(name)
	fs.mu.Lock()
	if down {
		fs.down[name] = true
	} else {
		delete(fs.down, name)
	}
	fs.mu.Unlock()
}

// Unavailable reports whether the file has been marked lost.
func (fs *FS) Unavailable(name string) bool {
	name = clean(name)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.down[name]
}

// Open opens a file for random-access reads.
func (fs *FS) Open(name string) (*FileReader, error) {
	name = clean(name)
	fs.mu.RLock()
	f, ok := fs.files[name]
	downNow := fs.down[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: open %s: file does not exist", name)
	}
	if downNow {
		return nil, fmt.Errorf("dfs: open %s: replica unavailable", name)
	}
	f.mu.RLock()
	closed := f.closed
	f.mu.RUnlock()
	if !closed {
		return nil, fmt.Errorf("dfs: open %s: file is still being written", name)
	}
	return &FileReader{fs: fs, f: f, name: name}, nil
}

// Remove deletes a file.
func (fs *FS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("dfs: remove %s: file does not exist", name)
	}
	delete(fs.files, name)
	return nil
}

// RemoveAll deletes every file under the given directory prefix.
func (fs *FS) RemoveAll(dir string) {
	dir = clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name := range fs.files {
		if name == dir || strings.HasPrefix(name, dir+"/") {
			delete(fs.files, name)
		}
	}
}

// FileInfo describes a stored file.
type FileInfo struct {
	Name      string
	Size      int64
	NumBlocks int
}

// Stat returns metadata for a file.
func (fs *FS) Stat(name string) (FileInfo, error) {
	name = clean(name)
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return FileInfo{}, fmt.Errorf("dfs: stat %s: file does not exist", name)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return FileInfo{Name: name, Size: int64(len(f.data)), NumBlocks: len(f.blocks)}, nil
}

// List returns the files under a directory prefix, sorted by name.
func (fs *FS) List(dir string) []FileInfo {
	dir = clean(dir)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []FileInfo
	for name, f := range fs.files {
		if name == dir || strings.HasPrefix(name, dir+"/") {
			f.mu.RLock()
			out = append(out, FileInfo{Name: name, Size: int64(len(f.data)), NumBlocks: len(f.blocks)})
			f.mu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BlockLocations returns the datanode index hosting each block of the file.
func (fs *FS) BlockLocations(name string) ([]int, error) {
	name = clean(name)
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: %s: file does not exist", name)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]int(nil), f.blocks...), nil
}

// TotalSize sums the sizes of all files under a prefix; it backs the Table 2
// storage-efficiency experiment.
func (fs *FS) TotalSize(dir string) int64 {
	var total int64
	for _, fi := range fs.List(dir) {
		total += fi.Size
	}
	return total
}

// FileWriter writes a DFS file sequentially. Close must be called to make
// the file readable.
type FileWriter struct {
	fs    *FS
	f     *file
	name  string
	scope *Stats // per-query stats scope from SetContext; nil = global only
}

// SetContext adopts the context's per-query stats scope (WithStatsScope),
// mirroring this writer's accounting into it. Writers have no read path to
// cancel, so unlike the reader's SetContext only the scope is taken.
func (w *FileWriter) SetContext(ctx context.Context) { w.scope = StatsScopeFrom(ctx) }

// Write appends p to the file, allocating blocks round-robin across
// datanodes as block boundaries are crossed.
func (w *FileWriter) Write(p []byte) (int, error) {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	if w.f.closed {
		return 0, fmt.Errorf("dfs: write %s: file already closed", w.name)
	}
	w.f.data = append(w.f.data, p...)
	for int64(len(w.f.blocks))*w.fs.blockSize < int64(len(w.f.data)) {
		node := int((w.fs.nextNode.Add(1) - 1) % uint64(w.fs.numNodes))
		w.f.blocks = append(w.f.blocks, node)
	}
	w.fs.stats.BytesWritten.Add(int64(len(p)))
	w.fs.stats.WriteOps.Add(1)
	w.fs.chargeIO(int64(len(p)), w.scope)
	if w.scope != nil {
		w.scope.BytesWritten.Add(int64(len(p)))
		w.scope.WriteOps.Add(1)
	}
	return len(p), nil
}

// Pos returns the current file length, i.e. the offset at which the next
// Write will land. The ORC writer uses it for stripe position pointers and
// HDFS block alignment.
func (w *FileWriter) Pos() int64 {
	w.f.mu.RLock()
	defer w.f.mu.RUnlock()
	return int64(len(w.f.data))
}

// Close seals the file, computing the per-block CRC32 checksums reads
// verify against. After Close the file is readable.
func (w *FileWriter) Close() error {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	if w.f.closed {
		return fmt.Errorf("dfs: close %s: already closed", w.name)
	}
	w.f.closed = true
	bs := w.fs.blockSize
	w.f.sums = make([]uint32, len(w.f.blocks))
	w.f.verified = make([]atomic.Bool, len(w.f.blocks))
	for b := range w.f.blocks {
		start := int64(b) * bs
		end := start + bs
		if end > int64(len(w.f.data)) {
			end = int64(len(w.f.data))
		}
		w.f.sums[b] = crc32.ChecksumIEEE(w.f.data[start:end])
	}
	return nil
}

// FileReader reads a DFS file with ReadAt/sequential semantics. A reader is
// associated with a compute node (SetNode) so that block reads can be
// classified local vs. remote, modeling MapReduce's locality-aware
// scheduling.
type FileReader struct {
	fs    *FS
	f     *file
	name  string
	off   int64
	node  int
	ctx   context.Context
	tally *obs.IOTally
	scope *Stats // per-query stats scope from SetContext; nil = global only
}

// SetNode declares which simulated node the reader runs on.
func (r *FileReader) SetNode(n int) { r.node = n }

// SetTally attributes this reader's bytes to a per-operator I/O tally
// (EXPLAIN ANALYZE / span attribution) in addition to the global Stats.
// nil detaches; the disabled cost is one nil check per read.
func (r *FileReader) SetTally(t *obs.IOTally) { r.tally = t }

// SetContext attaches a cancellation context: once ctx is cancelled every
// subsequent read fails with ctx.Err(), so a cancelled or timed-out query
// stops scanning promptly instead of draining its files. The context's
// per-query stats scope (WithStatsScope), if any, is adopted too.
func (r *FileReader) SetContext(ctx context.Context) {
	r.ctx = ctx
	r.scope = StatsScopeFrom(ctx)
}

// Size returns the file length.
func (r *FileReader) Size() int64 {
	r.f.mu.RLock()
	defer r.f.mu.RUnlock()
	return int64(len(r.f.data))
}

// ReadAt implements io.ReaderAt with accounting, injected-fault checks and
// CRC32 verification of every block the read touches.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
	}
	r.f.mu.RLock()
	if off < 0 {
		r.f.mu.RUnlock()
		return 0, fmt.Errorf("dfs: read %s: negative offset", r.name)
	}
	if off >= int64(len(r.f.data)) {
		r.f.mu.RUnlock()
		return 0, io.EOF
	}
	n := copy(p, r.f.data[off:])
	first := off / r.fs.blockSize
	last := (off + int64(n) - 1) / r.fs.blockSize
	if pol := r.fs.faultPolicy(); pol != nil {
		for b := first; b <= last; b++ {
			if pol.ReadFault(r.name, b, r.node) {
				node := r.hostOf(b)
				r.f.mu.RUnlock()
				r.fs.stats.InjectedReadFaults.Add(1)
				if r.scope != nil {
					r.scope.InjectedReadFaults.Add(1)
				}
				return 0, &ReadFaultError{File: r.name, Block: b, Datanode: node}
			}
		}
	}
	bad := int64(-1)
	for b := first; b <= last && int(b) < len(r.f.verified); b++ {
		if r.f.verified[b].Load() {
			continue
		}
		if r.checkBlockLocked(b) {
			r.f.verified[b].Store(true)
			continue
		}
		bad = b
		break
	}
	if bad >= 0 {
		node := r.hostOf(bad)
		r.f.mu.RUnlock()
		r.failoverCorrupt(bad)
		return 0, &CorruptError{File: r.name, Block: bad, Datanode: node}
	}
	r.account(off, int64(n))
	r.f.mu.RUnlock()
	var err error
	if n < len(p) {
		err = io.EOF
	}
	return n, err
}

// hostOf returns the datanode hosting a block (caller holds f.mu).
func (r *FileReader) hostOf(b int64) int {
	if int(b) < len(r.f.blocks) {
		return r.f.blocks[b]
	}
	return r.node
}

// checkBlockLocked verifies one block's CRC32 with the bad-replica overlay
// applied (caller holds f.mu read lock).
func (r *FileReader) checkBlockLocked(b int64) bool {
	bs := r.fs.blockSize
	start := b * bs
	end := start + bs
	if end > int64(len(r.f.data)) {
		end = int64(len(r.f.data))
	}
	flip, corrupted := r.f.corrupt[b]
	if !corrupted {
		return crc32.ChecksumIEEE(r.f.data[start:end]) == r.f.sums[b]
	}
	sum := crc32.ChecksumIEEE(r.f.data[start:flip])
	sum = crc32.Update(sum, crc32.IEEETable, []byte{r.f.data[flip] ^ 0xFF})
	sum = crc32.Update(sum, crc32.IEEETable, r.f.data[flip+1:end])
	return sum == r.f.sums[b]
}

// failoverCorrupt drops the bad-replica overlay for a block after a
// detection, modeling HDFS switching to a healthy replica: the next read
// of the block verifies cleanly.
func (r *FileReader) failoverCorrupt(b int64) {
	r.f.mu.Lock()
	if _, ok := r.f.corrupt[b]; ok {
		delete(r.f.corrupt, b)
		r.fs.stats.CorruptReads.Add(1)
		if r.scope != nil {
			r.scope.CorruptReads.Add(1)
		}
	}
	if int(b) < len(r.f.verified) {
		r.f.verified[b].Store(false) // re-verify the healthy replica once
	}
	r.f.mu.Unlock()
}

// ReadAtMeta reads like ReadAt but additionally counts the read as a
// metadata read (MetaReadOps/MetaBytesRead). The ORC reader issues its
// postscript, footer and row-index reads through this path so experiments
// can distinguish metadata I/O from data-stream I/O.
func (r *FileReader) ReadAtMeta(p []byte, off int64) (int, error) {
	n, err := r.ReadAt(p, off)
	if n > 0 {
		r.fs.stats.MetaReadOps.Add(1)
		r.fs.stats.MetaBytesRead.Add(int64(n))
		if r.scope != nil {
			r.scope.MetaReadOps.Add(1)
			r.scope.MetaBytesRead.Add(int64(n))
		}
		r.tally.AddMeta(int64(n))
	}
	return n, err
}

// Read implements sequential io.Reader semantics.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// Seek implements io.Seeker for the sequential cursor.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.off
	case io.SeekEnd:
		base = r.Size()
	default:
		return 0, fmt.Errorf("dfs: seek %s: bad whence %d", r.name, whence)
	}
	n := base + offset
	if n < 0 {
		return 0, fmt.Errorf("dfs: seek %s: negative position", r.name)
	}
	r.off = n
	return n, nil
}

// Close releases the reader (no-op; present for io.Closer symmetry).
func (r *FileReader) Close() error { return nil }

func (fs *FS) chargeIO(n int64, scope *Stats) {
	var t int64
	if fs.bandwidth > 0 {
		t += n * int64(time.Second) / fs.bandwidth
	}
	t += int64(fs.seek)
	if t > 0 {
		fs.stats.IOTimeNanos.Add(t)
		if scope != nil {
			scope.IOTimeNanos.Add(t)
		}
	}
}

func (r *FileReader) account(off, n int64) {
	r.fs.stats.BytesRead.Add(n)
	r.fs.stats.ReadOps.Add(1)
	if r.scope != nil {
		r.scope.BytesRead.Add(n)
		r.scope.ReadOps.Add(1)
	}
	r.tally.AddDFS(n)
	r.fs.chargeIO(n, r.scope)
	first := off / r.fs.blockSize
	last := (off + n - 1) / r.fs.blockSize
	for b := first; b <= last; b++ {
		local := int(b) < len(r.f.blocks) && r.f.blocks[b] == r.node
		if local {
			r.fs.stats.LocalReads.Add(1)
		} else {
			r.fs.stats.RemoteReads.Add(1)
		}
		if r.scope != nil {
			if local {
				r.scope.LocalReads.Add(1)
			} else {
				r.scope.RemoteReads.Add(1)
			}
		}
	}
}

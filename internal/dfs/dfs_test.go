package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(WithBlockSize(16), WithNodes(3))
	w, err := fs.Create("/warehouse/t1/part-0")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello distributed filesystem world")
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/warehouse/t1/part-0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
}

func TestOpenUnclosedFileFails(t *testing.T) {
	fs := New()
	w, _ := fs.Create("/f")
	w.Write([]byte("x"))
	if _, err := fs.Open("/f"); err == nil {
		t.Fatal("Open succeeded on unclosed file")
	}
	w.Close()
	if _, err := fs.Open("/f"); err != nil {
		t.Fatalf("Open after close: %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	fs := New()
	if _, err := fs.Open("/nope"); err == nil {
		t.Fatal("Open succeeded on missing file")
	}
	if _, err := fs.Stat("/nope"); err == nil {
		t.Fatal("Stat succeeded on missing file")
	}
}

func TestBlockPlacementRoundRobin(t *testing.T) {
	fs := New(WithBlockSize(10), WithNodes(3))
	w, _ := fs.Create("/big")
	w.Write(make([]byte, 35)) // 4 blocks
	w.Close()
	locs, err := fs.BlockLocations("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("got %d blocks, want 4", len(locs))
	}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if locs[i] != want[i] {
			t.Fatalf("block locations = %v, want %v", locs, want)
		}
	}
}

func TestLocalRemoteAccounting(t *testing.T) {
	fs := New(WithBlockSize(10), WithNodes(2))
	w, _ := fs.Create("/f")
	w.Write(make([]byte, 20)) // block 0 on node 0, block 1 on node 1
	w.Close()
	r, _ := fs.Open("/f")
	r.SetNode(0)
	before := fs.Stats().Snapshot()
	buf := make([]byte, 10)
	r.ReadAt(buf, 0)  // local
	r.ReadAt(buf, 10) // remote
	d := fs.Stats().Snapshot().Diff(before)
	if d.LocalReads != 1 || d.RemoteReads != 1 {
		t.Fatalf("local/remote = %d/%d, want 1/1", d.LocalReads, d.RemoteReads)
	}
	if d.BytesRead != 20 {
		t.Fatalf("bytes read = %d, want 20", d.BytesRead)
	}
}

func TestReadCrossingBlockBoundary(t *testing.T) {
	fs := New(WithBlockSize(8), WithNodes(4))
	w, _ := fs.Create("/f")
	data := make([]byte, 24)
	for i := range data {
		data[i] = byte(i)
	}
	w.Write(data)
	w.Close()
	r, _ := fs.Open("/f")
	buf := make([]byte, 16)
	n, err := r.ReadAt(buf, 4) // spans blocks 0,1,2
	if err != nil || n != 16 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i := 0; i < 16; i++ {
		if buf[i] != byte(i+4) {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], i+4)
		}
	}
}

func TestSeekAndSequentialRead(t *testing.T) {
	fs := New()
	w, _ := fs.Create("/f")
	w.Write([]byte("0123456789"))
	w.Close()
	r, _ := fs.Open("/f")
	if _, err := r.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	r.Read(buf)
	if string(buf) != "456" {
		t.Fatalf("read %q after seek, want 456", buf)
	}
	if pos, _ := r.Seek(-2, io.SeekEnd); pos != 8 {
		t.Fatalf("SeekEnd pos = %d, want 8", pos)
	}
	r.Read(buf[:2])
	if string(buf[:2]) != "89" {
		t.Fatalf("read %q, want 89", buf[:2])
	}
}

func TestListAndTotalSize(t *testing.T) {
	fs := New()
	for _, name := range []string{"/wh/t/b", "/wh/t/a", "/wh/u/c"} {
		w, _ := fs.Create(name)
		w.Write([]byte("12345"))
		w.Close()
	}
	files := fs.List("/wh/t")
	if len(files) != 2 || files[0].Name != "/wh/t/a" || files[1].Name != "/wh/t/b" {
		t.Fatalf("List = %+v", files)
	}
	if got := fs.TotalSize("/wh/t"); got != 10 {
		t.Fatalf("TotalSize = %d, want 10", got)
	}
	fs.RemoveAll("/wh/t")
	if len(fs.List("/wh/t")) != 0 {
		t.Fatal("RemoveAll left files behind")
	}
	if len(fs.List("/wh/u")) != 1 {
		t.Fatal("RemoveAll removed unrelated files")
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	w, _ := fs.Create("/f")
	w.Close()
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err == nil {
		t.Fatal("second Remove succeeded")
	}
}

func TestWriterPos(t *testing.T) {
	fs := New()
	w, _ := fs.Create("/f")
	if w.Pos() != 0 {
		t.Fatal("fresh writer Pos != 0")
	}
	w.Write(make([]byte, 100))
	if w.Pos() != 100 {
		t.Fatalf("Pos = %d, want 100", w.Pos())
	}
	w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after Close succeeded")
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := New(WithBlockSize(7), WithNodes(3))
	i := 0
	f := func(data []byte) bool {
		i++
		name := "/prop/" + string(rune('a'+i%26)) + "x"
		w, _ := fs.Create(name)
		w.Write(data)
		w.Close()
		r, _ := fs.Open(name)
		got := make([]byte, len(data))
		if len(data) > 0 {
			if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
				return false
			}
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulatedDiskAccounting(t *testing.T) {
	fs := New(WithSimulatedDisk(1<<20 /* 1 MiB/s */, 10*time.Millisecond))
	w, _ := fs.Create("/f")
	w.Write(make([]byte, 1<<20))
	w.Close()
	afterWrite := fs.Stats().Snapshot()
	// One write op: 1 MiB at 1 MiB/s = 1s, plus one 10ms seek.
	if afterWrite.IOTime != time.Second+10*time.Millisecond {
		t.Fatalf("write IOTime = %v", afterWrite.IOTime)
	}
	r, _ := fs.Open("/f")
	buf := make([]byte, 1<<19)
	r.ReadAt(buf, 0)
	d := fs.Stats().Snapshot().Diff(afterWrite)
	if d.IOTime != 500*time.Millisecond+10*time.Millisecond {
		t.Fatalf("read IOTime = %v", d.IOTime)
	}
}

func TestSimulatedDiskDisabledByDefault(t *testing.T) {
	fs := New()
	w, _ := fs.Create("/f")
	w.Write(make([]byte, 1<<20))
	w.Close()
	if got := fs.Stats().Snapshot().IOTime; got != 0 {
		t.Fatalf("IOTime = %v without simulation", got)
	}
}

func TestMetaReadCounters(t *testing.T) {
	fs := New(WithBlockSize(16))
	w, _ := fs.Create("/f")
	w.Write(make([]byte, 100))
	w.Close()
	r, _ := fs.Open("/f")
	before := fs.Stats().Snapshot()
	buf := make([]byte, 10)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAtMeta(buf, 50); err != nil {
		t.Fatal(err)
	}
	d := fs.Stats().Snapshot().Diff(before)
	if d.ReadOps != 2 || d.BytesRead != 20 {
		t.Fatalf("totals: got %d ops / %d bytes, want 2 / 20", d.ReadOps, d.BytesRead)
	}
	if d.MetaReadOps != 1 || d.MetaBytesRead != 10 {
		t.Fatalf("meta: got %d ops / %d bytes, want 1 / 10", d.MetaReadOps, d.MetaBytesRead)
	}
}

// TestSnapshotDiffConcurrentReaders verifies the Snapshot/Diff counters stay
// exact when many readers issue data and metadata reads concurrently (run
// under -race to also check the counters themselves are race-free).
func TestSnapshotDiffConcurrentReaders(t *testing.T) {
	fs := New(WithBlockSize(64), WithNodes(4))
	w, _ := fs.Create("/f")
	w.Write(make([]byte, 4096))
	w.Close()

	const readers = 8
	const readsPer = 50
	const readSize = 16

	before := fs.Stats().Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r, err := fs.Open("/f")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, readSize)
			for j := 0; j < readsPer; j++ {
				off := int64((seed*readsPer + j) * 7 % (4096 - readSize))
				var err error
				if j%2 == 0 {
					_, err = r.ReadAt(buf, off)
				} else {
					_, err = r.ReadAtMeta(buf, off)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	d := fs.Stats().Snapshot().Diff(before)

	wantOps := int64(readers * readsPer)
	wantBytes := wantOps * readSize
	if d.ReadOps != wantOps || d.BytesRead != wantBytes {
		t.Fatalf("totals: got %d ops / %d bytes, want %d / %d", d.ReadOps, d.BytesRead, wantOps, wantBytes)
	}
	if d.MetaReadOps != wantOps/2 || d.MetaBytesRead != wantBytes/2 {
		t.Fatalf("meta: got %d ops / %d bytes, want %d / %d", d.MetaReadOps, d.MetaBytesRead, wantOps/2, wantBytes/2)
	}
	if d.LocalReads+d.RemoteReads < wantOps {
		t.Fatalf("local+remote block reads %d < %d ops", d.LocalReads+d.RemoteReads, wantOps)
	}
	if d.BytesWritten != 0 || d.WriteOps != 0 {
		t.Fatalf("unexpected write deltas: %+v", d)
	}
}

// writeFile creates and seals a file of n bytes with a deterministic
// pattern, returning the payload.
func writeFile(t *testing.T, fs *FS, name string, n int) []byte {
	t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestCorruptBlockDetected: flipping a byte of a stored block makes the
// next read touching it fail with a typed error naming file, block and
// datanode; detection fails over to the good replica so the retry reads
// the original bytes.
func TestCorruptBlockDetected(t *testing.T) {
	fs := New(WithBlockSize(16), WithNodes(3))
	payload := writeFile(t, fs, "/t/f", 64)
	if err := fs.CorruptBlock("/t/f", 2); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/t/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// Block 0 and 1 are fine.
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read of healthy block failed: %v", err)
	}
	// A read touching block 2 must fail typed.
	_, err = r.ReadAt(buf, 2*16)
	if err == nil {
		t.Fatal("read of corrupt block succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, not ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CorruptError", err)
	}
	locs, _ := fs.BlockLocations("/t/f")
	if ce.File != "/t/f" || ce.Block != 2 || ce.Datanode != locs[2] {
		t.Errorf("CorruptError = %+v, want file=/t/f block=2 datanode=%d", ce, locs[2])
	}
	if got := fs.Stats().Snapshot().CorruptReads; got != 1 {
		t.Errorf("CorruptReads = %d, want 1", got)
	}
	// Failover: the retry succeeds and reads pristine bytes.
	if _, err := r.ReadAt(buf, 2*16); err != nil {
		t.Fatalf("read after failover failed: %v", err)
	}
	if !bytes.Equal(buf, payload[32:40]) {
		t.Errorf("post-failover bytes %v != original %v", buf, payload[32:40])
	}
}

// TestCorruptBlockValidation: corruption of unknown files/blocks errors.
func TestCorruptBlockValidation(t *testing.T) {
	fs := New(WithBlockSize(16))
	writeFile(t, fs, "/t/f", 20)
	if err := fs.CorruptBlock("/nope", 0); err == nil {
		t.Error("corrupting missing file succeeded")
	}
	if err := fs.CorruptBlock("/t/f", 9); err == nil {
		t.Error("corrupting out-of-range block succeeded")
	}
	// Partial final block is corruptible too.
	if err := fs.CorruptBlock("/t/f", 1); err != nil {
		t.Errorf("corrupting final partial block: %v", err)
	}
}

type alwaysFault struct{ fired atomic.Int64 }

func (a *alwaysFault) ReadFault(file string, block int64, node int) bool {
	// Fail only the first read of block 0.
	if block == 0 && a.fired.Add(1) == 1 {
		return true
	}
	return false
}

// TestInjectedReadFault: the fault policy fails a read with a typed,
// retryable error; the retry succeeds.
func TestInjectedReadFault(t *testing.T) {
	fs := New(WithBlockSize(16))
	writeFile(t, fs, "/t/f", 32)
	fs.SetFaultPolicy(&alwaysFault{})
	r, err := fs.Open("/t/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_, err = r.ReadAt(buf, 0)
	if !errors.Is(err, ErrReadFault) {
		t.Fatalf("err = %v, not ErrReadFault", err)
	}
	var fe *ReadFaultError
	if !errors.As(err, &fe) || fe.File != "/t/f" || fe.Block != 0 {
		t.Fatalf("fault error = %v", err)
	}
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("retry after transient fault failed: %v", err)
	}
	if got := fs.Stats().Snapshot().InjectedReadFaults; got != 1 {
		t.Errorf("InjectedReadFaults = %d, want 1", got)
	}
}

// TestReaderContextCancellation: a cancelled context fails reads promptly.
func TestReaderContextCancellation(t *testing.T) {
	fs := New(WithBlockSize(16))
	writeFile(t, fs, "/t/f", 32)
	r, err := fs.Open("/t/f")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.SetContext(ctx)
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read with live context failed: %v", err)
	}
	cancel()
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: err = %v, want context.Canceled", err)
	}
	if _, err := r.Read(buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential read after cancel: err = %v", err)
	}
}

// TestChecksumsSurviveMultiBlockReads: reads spanning several blocks of an
// uncorrupted file verify and return correct data.
func TestChecksumsSurviveMultiBlockReads(t *testing.T) {
	fs := New(WithBlockSize(8))
	payload := writeFile(t, fs, "/t/big", 100)
	r, _ := fs.Open("/t/big")
	got, err := io.ReadAll(r)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-block read mismatch")
	}
}

// TestWriteListLockOrder races writers crossing block boundaries against
// the namespace walks that take fs.mu before a file's f.mu (List,
// TotalSize, Rename). Write must never take fs.mu while it holds f.mu;
// when it did, List and Write deadlocked and this test hit its deadline.
func TestWriteListLockOrder(t *testing.T) {
	fs := New(WithBlockSize(8), WithNodes(3))
	const rounds = 300
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 4)
	wg.Add(1)
	go func() { // writer: every small write crosses a block boundary
		defer wg.Done()
		chunk := bytes.Repeat([]byte{'w'}, 11)
		for i := 0; i < rounds; i++ {
			w, err := fs.Create(fmt.Sprintf("/d/w-%d", i))
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 4; j++ {
				if _, err := w.Write(chunk); err != nil {
					errs <- err
					return
				}
			}
			if err := w.Close(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // renamer: publishes sealed files inside the same directory
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("/d/r-%d", i)
			w, err := fs.Create(name + ".tmp")
			if err != nil {
				errs <- err
				return
			}
			w.Write([]byte("renamed payload"))
			w.Close()
			if err := fs.Rename(name+".tmp", name); err != nil {
				errs <- err
				return
			}
		}
	}()
	walkers := make(chan struct{})
	go func() { // walkers: List and TotalSize until the others finish
		defer close(walkers)
		for !stop.Load() {
			fs.List("/d")
			fs.TotalSize("/d")
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		stop.Store(true)
		<-walkers
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(20 * time.Second):
		t.Fatal("Write racing List/TotalSize/Rename did not finish: lock-order deadlock")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := len(fs.List("/d")); got != 2*rounds {
		t.Fatalf("listed %d files, want %d", got, 2*rounds)
	}
}

package llap

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/orc"
	"repro/internal/orc/stream"
)

func TestInvalidatePathDropsOnlyTableEntries(t *testing.T) {
	c := NewCache(1 << 20)
	mk := func(path string, stripe int) orc.ChunkKey {
		return orc.ChunkKey{Path: path, Stripe: stripe, Column: 1, Stream: stream.Data, Group: 0}
	}
	c.PutChunk(mk("/warehouse/t/part-00000", 0), []byte("aaaa"))
	c.PutChunk(mk("/warehouse/t/delta_1_1/part-00000", 0), []byte("bbbb"))
	c.PutChunk(mk("/warehouse/tt/part-00000", 0), []byte("cccc")) // prefix-sibling table

	if n := c.InvalidatePath("/warehouse/t"); n != 2 {
		t.Fatalf("invalidated %d chunks, want 2", n)
	}
	if _, ok := c.GetChunk(mk("/warehouse/t/part-00000", 0)); ok {
		t.Fatal("table chunk survived invalidation")
	}
	if _, ok := c.GetChunk(mk("/warehouse/tt/part-00000", 0)); !ok {
		t.Fatal("sibling table's chunk was wrongly invalidated")
	}
	if got := c.Snapshot().Invalidations; got != 2 {
		t.Fatalf("Invalidations = %d, want 2", got)
	}
}

func TestMetaCacheInvalidatePath(t *testing.T) {
	m := NewMetaCache(16)
	m.PutMeta("/warehouse/t/part-00000", 1)
	m.PutMeta("/warehouse/t/part-00000\x00stripe\x000", 2)
	m.PutMeta("/warehouse/tt/part-00000", 3)
	if n := m.InvalidatePath("/warehouse/t"); n != 2 {
		t.Fatalf("invalidated %d meta entries, want 2", n)
	}
	if _, ok := m.GetMeta("/warehouse/tt/part-00000"); !ok {
		t.Fatal("sibling table's metadata was wrongly invalidated")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
}

func TestDaemonInvalidateTableHitsAllTiers(t *testing.T) {
	d := NewDaemon(Config{Workers: 1})
	defer d.Close()
	key := orc.ChunkKey{Path: "/warehouse/t/part-00000", Column: 1, Stream: stream.Data}
	d.ChunkCache().PutChunk(key, []byte("data"))
	d.MetaCache().PutMeta("/warehouse/t/part-00000", 7)
	d.Builds().Put("t@v1|chain|keys=k", "t", "build")

	d.InvalidateTable("t", "/warehouse/t")

	if _, ok := d.ChunkCache().GetChunk(key); ok {
		t.Fatal("chunk survived InvalidateTable")
	}
	if _, ok := d.MetaCache().GetMeta("/warehouse/t/part-00000"); ok {
		t.Fatal("metadata survived InvalidateTable")
	}
	if _, ok := d.Builds().Get("t@v1|chain|keys=k"); ok {
		t.Fatal("build survived InvalidateTable")
	}
}

// TestInvalidateRacesCacheTiers races Daemon.InvalidateTable against
// lookups, inserts and pins on all three cache tiers. The tier locks are
// leaf locks (see InvalidateTable), so the run must finish; under -race it
// also checks the tiers' shared state is only touched under those locks.
func TestInvalidateRacesCacheTiers(t *testing.T) {
	d := NewDaemon(Config{Workers: 1, CacheBytes: 4 << 10, MetaEntries: 8, BuildEntries: 4})
	defer d.Close()
	const rounds = 2000
	paths := []string{"/warehouse/t/part-00000", "/warehouse/t/part-00001", "/warehouse/u/part-00000"}
	chunk := func(i int) orc.ChunkKey {
		return orc.ChunkKey{Path: paths[i%len(paths)], Stripe: i % 4, Column: 1, Stream: stream.Data}
	}
	var wg sync.WaitGroup
	workers := []func(i int){
		func(i int) { // chunk tier: insert, pin, read, unpin
			k := chunk(i)
			d.ChunkCache().PutChunk(k, make([]byte, 256))
			if d.ChunkCache().Pin(k) {
				d.ChunkCache().GetChunk(k)
				d.ChunkCache().Unpin(k)
			}
		},
		func(i int) { // build tier
			table := []string{"t", "u"}[i%2]
			key := fmt.Sprintf("%s@v%d|chain|keys=k", table, i%5)
			d.Builds().Put(key, table, i)
			d.Builds().Get(key)
		},
		func(i int) { // meta tier
			key := paths[i%len(paths)] + fmt.Sprintf("\x00stripe\x00%d", i%3)
			d.MetaCache().PutMeta(key, i)
			d.MetaCache().GetMeta(key)
		},
		func(int) { d.InvalidateTable("t", "/warehouse/t") },
	}
	for _, work := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				work(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("InvalidateTable racing the cache tiers did not finish: lock-order deadlock")
	}
	// A final invalidation leaves nothing of table t in any tier.
	d.InvalidateTable("t", "/warehouse/t")
	for i := 0; i < 12; i++ {
		if k := chunk(i); k.Path != paths[2] {
			if _, ok := d.ChunkCache().GetChunk(k); ok {
				t.Fatalf("chunk %v of t survived invalidation", k)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := d.Builds().Get(fmt.Sprintf("t@v%d|chain|keys=k", i)); ok {
			t.Fatalf("build %d of t survived invalidation", i)
		}
	}
	if _, ok := d.MetaCache().GetMeta(paths[0] + "\x00stripe\x000"); ok {
		t.Fatal("metadata of t survived invalidation")
	}
}

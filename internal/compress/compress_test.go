package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, k Kind, src []byte) []byte {
	t.Helper()
	c, err := ForKind(k)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := c.Compress(nil, src)
	if err != nil {
		t.Fatalf("%s Compress: %v", k, err)
	}
	got, err := c.Decompress(nil, comp, len(src))
	if err != nil {
		t.Fatalf("%s Decompress: %v", k, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s round trip mismatch: got %d bytes, want %d", k, len(got), len(src))
	}
	return comp
}

func TestRoundTripBothCodecs(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abc"),
		[]byte("hello hello hello hello hello hello"),
		bytes.Repeat([]byte{0}, 10000),
		[]byte(strings.Repeat("the quick brown fox ", 500)),
	}
	for _, k := range []Kind{Zlib, Snappy} {
		for _, in := range inputs {
			roundTrip(t, k, in)
		}
	}
}

func TestCompressionRatioOrdering(t *testing.T) {
	// Low-entropy but match-poor data: LZ finds few long matches, while
	// zlib's Huffman stage compresses the skewed symbol distribution —
	// the ratio ordering (none > snappy > zlib on size) DESIGN.md promises.
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = "abcd"[rng.Intn(4)]
	}
	zc := roundTrip(t, Zlib, src)
	sc := roundTrip(t, Snappy, src)
	if len(sc) >= len(src) {
		t.Errorf("snappy did not compress low-entropy data: %d >= %d", len(sc), len(src))
	}
	if len(zc) >= len(sc) {
		t.Errorf("zlib (%d) not smaller than snappy (%d) on low-entropy data", len(zc), len(sc))
	}
}

func TestIncompressibleData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 1<<16)
	rng.Read(src)
	for _, k := range []Kind{Zlib, Snappy} {
		comp := roundTrip(t, k, src)
		// Random bytes should not blow up by more than a small factor.
		if len(comp) > len(src)+len(src)/4 {
			t.Errorf("%s expanded random data %d -> %d", k, len(src), len(comp))
		}
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	c, _ := ForKind(Snappy)
	comp, _ := c.Compress(nil, []byte("tail"))
	out, err := c.Decompress([]byte("head-"), comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "head-tail" {
		t.Fatalf("got %q", out)
	}
}

func TestLzRejectsCorruptBlocks(t *testing.T) {
	c, _ := ForKind(Snappy)
	comp, _ := c.Compress(nil, []byte("hello hello hello hello"))
	// Wrong declared length.
	if _, err := c.Decompress(nil, comp, 5); err == nil {
		t.Error("Decompress accepted wrong originalLen")
	}
	// Truncated block.
	if _, err := c.Decompress(nil, comp[:len(comp)/2], 23); err == nil {
		t.Error("Decompress accepted truncated block")
	}
	// Empty input.
	if _, err := c.Decompress(nil, nil, 1); err == nil {
		t.Error("Decompress accepted empty block")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{None, Zlib, Snappy} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("LZO"); err == nil {
		t.Error("ParseKind accepted unsupported codec")
	}
	if k, err := ParseKind(""); err != nil || k != None {
		t.Error("ParseKind(\"\") should be None")
	}
}

func TestForKindNone(t *testing.T) {
	c, err := ForKind(None)
	if err != nil || c != nil {
		t.Errorf("ForKind(None) = %v, %v; want nil codec", c, err)
	}
	if _, err := ForKind(Kind(99)); err == nil {
		t.Error("ForKind accepted bogus kind")
	}
}

func TestRoundTripProperty(t *testing.T) {
	lz, _ := ForKind(Snappy)
	f := func(data []byte) bool {
		comp, err := lz.Compress(nil, data)
		if err != nil {
			return false
		}
		got, err := lz.Decompress(nil, comp, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOverlappingCopy(t *testing.T) {
	// A run of a two-byte pattern forces overlapping LZ copies.
	src := bytes.Repeat([]byte{0xAB, 0xCD}, 5000)
	comp := roundTrip(t, Snappy, src)
	if len(comp) > 200 {
		t.Errorf("run-length pattern compressed to %d bytes; expected far smaller", len(comp))
	}
}

func TestLzRejectsZeroDistanceCopy(t *testing.T) {
	c, _ := ForKind(Snappy)
	// Literal "abcd", then a copy of 4 bytes from distance 0.
	block := []byte{8, 6, 'a', 'b', 'c', 'd', 1, 0}
	if _, err := c.Decompress(nil, block, 8); err == nil {
		t.Error("Decompress accepted a copy with distance 0")
	}
	// A copy longer than the declared length is corrupt too.
	block = []byte{8, 6, 'a', 'b', 'c', 'd', 1 | 10<<1, 4}
	if _, err := c.Decompress(nil, block, 8); err == nil {
		t.Error("Decompress accepted a copy past the declared length")
	}
}

func TestLzHugeDeclaredLength(t *testing.T) {
	c, _ := ForKind(Snappy)
	// Headers declaring 1 TiB and 2^62 bytes over a four-byte literal: the
	// decoder must report the short block, not size its output from the
	// header.
	for _, declared := range []uint64{1 << 40, 1 << 62} {
		block := append(binary.AppendUvarint(nil, declared), 6, 'a', 'b', 'c', 'd')
		if _, err := c.Decompress(nil, block, int(declared)); err == nil {
			t.Errorf("Decompress accepted a 4-byte block declaring %d bytes", declared)
		}
	}
}

// lzOpsLen sums the bytes a block's ops would write, stopping at the first
// malformed op or once the sum passes limit.
func lzOpsLen(block []byte, limit uint64) uint64 {
	_, n := binary.Uvarint(block)
	if n <= 0 {
		return 0
	}
	block = block[n:]
	var total uint64
	for len(block) > 0 && total <= limit {
		op, n := binary.Uvarint(block)
		if n <= 0 {
			break
		}
		block = block[n:]
		if op&1 == 0 {
			lit := op>>1 + 1
			if lit > uint64(len(block)) {
				break
			}
			total += lit
			block = block[lit:]
			continue
		}
		if _, n = binary.Uvarint(block); n <= 0 {
			break
		}
		block = block[n:]
		total += op>>1 + lzMinMatch
	}
	return total
}

// FuzzLZDecompress feeds arbitrary blocks to the decoder, which must
// return an error rather than panic whatever length the header declares,
// and round-trips the input through
// Compress, which must decode byte for byte.
func FuzzLZDecompress(f *testing.F) {
	lz, _ := ForKind(Snappy)
	for _, in := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello hello hello hello"),
		bytes.Repeat([]byte{0xAB, 0xCD}, 300),
		[]byte(strings.Repeat("the quick brown fox ", 40)),
	} {
		comp, _ := lz.Compress(nil, in)
		f.Add(comp)
		f.Add(in)
	}
	f.Add([]byte{8, 6, 'a', 'b', 'c', 'd', 1, 0})
	f.Add([]byte{8, 6, 'a', 'b', 'c', 'd', 1, 4})
	f.Add([]byte{8, 6, 'a', 'b', 'c', 'd', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 4})
	f.Add([]byte{0xff, 0xff, 0x03, 1, 1})
	f.Add(append(binary.AppendUvarint(nil, 1<<40), 6, 'a', 'b', 'c', 'd'))
	f.Add(append(binary.AppendUvarint(nil, 1<<62), 6, 'a', 'b', 'c', 'd', 1|8<<1, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Only a block whose ops really write more than 1 MiB is skipped:
		// decoding it needs the memory it declares.
		if declared, n := binary.Uvarint(data); n > 0 && lzOpsLen(data, 1<<20) <= 1<<20 {
			out, err := lz.Decompress([]byte("prefix"), data, int(declared))
			if err == nil && len(out) != len("prefix")+int(declared) {
				t.Fatalf("decoded %d bytes, header declares %d", len(out)-len("prefix"), declared)
			}
		}
		comp, err := lz.Compress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lz.Decompress(nil, comp, len(data))
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
		}
	})
}

// BenchmarkLZDecompress decodes a 256 KiB block shaped like ORC column
// streams: varint-encoded small integers and repetitive 8-byte doubles.
func BenchmarkLZDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var src []byte
	for len(src) < 256<<10 {
		src = binary.AppendUvarint(src, uint64(rng.Intn(2500)))
		src = binary.LittleEndian.AppendUint64(src, math.Float64bits(float64(rng.Intn(5000))/100))
	}
	lz, _ := ForKind(Snappy)
	comp, err := lz.Compress(nil, src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lz.Decompress(nil, comp, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}

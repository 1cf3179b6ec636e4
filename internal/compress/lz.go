package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// lzCodec is a byte-oriented LZ77 block codec playing the role of Snappy in
// the paper: a fast, greedy, hash-table matcher with no entropy coding.
//
// Wire format (little-endian):
//
//	uvarint  decompressed length
//	sequence of ops:
//	  literal:  0x00 | (n-1)<<1 as uvarint, then n literal bytes
//	  copy:     0x01 | (len-minMatch)<<1 as uvarint, then uvarint distance
//
// Distances are at most 64 KiB, matching Snappy's effective window.
type lzCodec struct{}

const (
	lzMinMatch  = 4
	lzMaxDist   = 1 << 16
	lzHashBits  = 14
	lzHashShift = 32 - lzHashBits

	// Decompress sizes its output up front from the declared length, but
	// only up to lzGrowFloor plus lzGrowRatio bytes per compressed byte, so
	// a corrupt header cannot force a huge allocation; a block that
	// expands further grows as it decodes.
	lzGrowFloor = 256 << 10
	lzGrowRatio = 32
)

func (lzCodec) Kind() Kind { return Snappy }

func lzHash(u uint32) uint32 {
	return (u * 0x9E3779B1) >> lzHashShift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// Compress appends the compressed encoding of src to dst.
func (lzCodec) Compress(dst, src []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) < lzMinMatch {
		return appendLiteral(dst, src), nil
	}
	var table [1 << lzHashBits]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	limit := len(src) - lzMinMatch
	for i <= limit {
		h := lzHash(load32(src, i))
		cand := int(table[h])
		table[h] = int32(i)
		if cand >= 0 && i-cand <= lzMaxDist && load32(src, cand) == load32(src, i) {
			// Extend the match forward.
			matchLen := lzMinMatch
			for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			dst = appendLiteral(dst, src[litStart:i])
			dst = binary.AppendUvarint(dst, 1|uint64(matchLen-lzMinMatch)<<1)
			dst = binary.AppendUvarint(dst, uint64(i-cand))
			i += matchLen
			litStart = i
			continue
		}
		i++
	}
	return appendLiteral(dst, src[litStart:]), nil
}

func appendLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(lit)-1)<<1)
	return append(dst, lit...)
}

// Decompress appends the decoded bytes to dst. originalLen is checked
// against the length recorded in the block header. dst grows once to hold
// the whole block (within the lzGrowFloor/lzGrowRatio limit); ops that
// would write past originalLen, or copy from before the block start or
// from distance 0, are rejected as corrupt.
func (lzCodec) Decompress(dst, src []byte, originalLen int) ([]byte, error) {
	declared, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("compress: lz block missing length header")
	}
	if originalLen < 0 || declared != uint64(originalLen) {
		return nil, fmt.Errorf("compress: lz block declares %d bytes, caller expects %d", declared, originalLen)
	}
	src = src[n:]
	start := len(dst)
	dst = slices.Grow(dst, min(originalLen, lzGrowFloor+lzGrowRatio*len(src)))
	for len(src) > 0 {
		op, n := uint64(src[0]), 1
		if op >= 0x80 {
			if op, n = binary.Uvarint(src); n <= 0 {
				return nil, fmt.Errorf("compress: truncated lz op")
			}
		}
		src = src[n:]
		if op&1 == 0 { // literal
			litLen := op>>1 + 1
			if litLen > uint64(len(src)) {
				return nil, fmt.Errorf("compress: literal overruns block (%d > %d)", litLen, len(src))
			}
			if litLen > uint64(originalLen-(len(dst)-start)) {
				return nil, fmt.Errorf("compress: lz literal overruns declared length %d", originalLen)
			}
			dst = append(dst, src[:litLen]...)
			src = src[litLen:]
		} else { // copy
			if len(src) == 0 {
				return nil, fmt.Errorf("compress: truncated lz copy distance")
			}
			dist, n := uint64(src[0]), 1
			if dist >= 0x80 {
				if dist, n = binary.Uvarint(src); n <= 0 {
					return nil, fmt.Errorf("compress: truncated lz copy distance")
				}
			}
			src = src[n:]
			if dist == 0 {
				return nil, fmt.Errorf("compress: lz copy with distance 0")
			}
			if dist > uint64(len(dst)-start) {
				return nil, fmt.Errorf("compress: lz copy reaches before block start")
			}
			if left := originalLen - (len(dst) - start); left < lzMinMatch || op>>1 > uint64(left-lzMinMatch) {
				return nil, fmt.Errorf("compress: lz copy overruns declared length %d", originalLen)
			}
			matchLen := int(op>>1) + lzMinMatch
			pos := len(dst) - int(dist)
			if int(dist) >= matchLen {
				dst = append(dst, dst[pos:pos+matchLen]...)
				continue
			}
			// Overlapping copies are the core of RLE-via-LZ: each byte
			// may read one this copy just wrote.
			for k := 0; k < matchLen; k++ {
				dst = append(dst, dst[pos+k])
			}
		}
	}
	if len(dst)-start != originalLen {
		return nil, fmt.Errorf("compress: lz block decoded %d bytes, want %d", len(dst)-start, originalLen)
	}
	return dst, nil
}

// Package exec implements the row-mode (one-row-at-a-time) push-based
// execution engine of Hive (paper §2, §6's baseline): runtime operators
// interpret the plan IR, processing a single row per call, exactly the
// model whose interpretation overhead the vectorized engine removes.
//
// codec.go implements the shuffle wire formats: an order-preserving key
// encoding (so the engine's byte-wise sort realizes ORDER BY and group
// ordering) and a kind-tagged row value codec.
package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/plan"
	"repro/internal/types"
)

// BucketFor maps a row's bucketing-column values to a bucket in [0, n).
// It hashes the order-preserving key encoding with FNV-1a, so the writer,
// the optimizer's bucket pruning, and bucket-restricted scans all agree on
// which bucket any key lands in.
func BucketFor(vals []any, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("exec: bucket count %d must be positive", n)
	}
	key, err := EncodeKey(vals, nil)
	if err != nil {
		return 0, err
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n)), nil
}

// EncodeKey renders key values into bytes whose lexicographic order matches
// SQL order. NULLs sort first (ascending). desc may be nil (all ascending)
// or hold one flag per key; descending parts are bitwise-inverted.
func EncodeKey(vals []any, desc []bool) ([]byte, error) {
	var out []byte
	for i, v := range vals {
		start := len(out)
		switch x := v.(type) {
		case nil:
			out = AppendKeyNull(out)
		case int64:
			out = AppendKeyLong(out, x)
		case float64:
			out = AppendKeyDouble(out, x)
		case bool:
			out = AppendKeyBool(out, x)
		case string:
			out = AppendKeyString(out, x)
		default:
			return nil, fmt.Errorf("exec: cannot encode key value of type %T", v)
		}
		if desc != nil && desc[i] {
			for j := start; j < len(out); j++ {
				out[j] = ^out[j]
			}
		}
	}
	return out, nil
}

// The AppendKey* functions append one ascending key part in EncodeKey's
// format: 0x00 for NULL, else 0x01 and an order-preserving encoding of the
// value. Typed callers (the vectorized group-by) build keys byte-identical
// to EncodeKey's without boxing values.

// AppendKeyNull appends a NULL key part.
func AppendKeyNull(out []byte) []byte { return append(out, 0x00) }

// AppendKeyLong appends an integer key part: big-endian with the sign bit
// flipped.
func AppendKeyLong(out []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(out, 0x01), uint64(x)^(1<<63))
}

// AppendKeyDouble appends a floating key part: negative values have every
// bit inverted, others only the sign bit set.
func AppendKeyDouble(out []byte, x float64) []byte {
	bits := math.Float64bits(x)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(append(out, 0x01), bits)
}

// AppendKeyBool appends a boolean key part.
func AppendKeyBool(out []byte, x bool) []byte {
	if x {
		return append(out, 0x01, 1)
	}
	return append(out, 0x01, 0)
}

// AppendKeyString appends a string key part: 0x00 bytes are escaped as
// 0x00 0xFF and the part ends with 0x00 0x00, so a prefix sorts first.
func AppendKeyString[S string | []byte](out []byte, s S) []byte {
	out = append(out, 0x01)
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			out = append(out, 0x00, 0xFF)
		} else {
			out = append(out, s[i])
		}
	}
	return append(out, 0x00, 0x00)
}

// Row value codec: per column, a null byte then a kind-specific encoding.
// Only primitive kinds cross the shuffle; the planner never ships complex
// columns through a ReduceSink.

// EncodeRow serializes a row for the shuffle using the schema's kinds.
func EncodeRow(schema *plan.Schema, row types.Row) ([]byte, error) {
	if len(row) != schema.Width() {
		return nil, fmt.Errorf("exec: row width %d != schema width %d", len(row), schema.Width())
	}
	var out []byte
	for i, v := range row {
		if v == nil {
			out = append(out, 0)
			continue
		}
		out = append(out, 1)
		switch schema.Cols[i].Kind {
		case types.Boolean:
			if v.(bool) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case types.Byte, types.Short, types.Int, types.Long, types.Timestamp:
			out = binary.AppendVarint(out, v.(int64))
		case types.Float, types.Double:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.(float64)))
		case types.String:
			s := v.(string)
			out = binary.AppendUvarint(out, uint64(len(s)))
			out = append(out, s...)
		case types.Binary:
			b := v.([]byte)
			out = binary.AppendUvarint(out, uint64(len(b)))
			out = append(out, b...)
		default:
			return nil, fmt.Errorf("exec: cannot ship %s column through the shuffle", schema.Cols[i].Kind)
		}
	}
	return out, nil
}

// DecodeRow parses a shuffle value back into a row.
func DecodeRow(schema *plan.Schema, buf []byte) (types.Row, error) {
	row := make(types.Row, schema.Width())
	pos := 0
	for i := range row {
		if pos >= len(buf) {
			return nil, fmt.Errorf("exec: truncated shuffle row at column %d", i)
		}
		present := buf[pos]
		pos++
		if present == 0 {
			continue
		}
		switch schema.Cols[i].Kind {
		case types.Boolean:
			if pos >= len(buf) {
				return nil, fmt.Errorf("exec: truncated boolean at column %d", i)
			}
			row[i] = buf[pos] != 0
			pos++
		case types.Byte, types.Short, types.Int, types.Long, types.Timestamp:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("exec: bad varint at column %d", i)
			}
			row[i] = v
			pos += n
		case types.Float, types.Double:
			if pos+8 > len(buf) {
				return nil, fmt.Errorf("exec: truncated double at column %d", i)
			}
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		case types.String, types.Binary:
			n, m := binary.Uvarint(buf[pos:])
			if m <= 0 || pos+m+int(n) > len(buf) {
				return nil, fmt.Errorf("exec: truncated string at column %d", i)
			}
			if schema.Cols[i].Kind == types.String {
				row[i] = string(buf[pos+m : pos+m+int(n)])
			} else {
				b := make([]byte, n)
				copy(b, buf[pos+m:])
				row[i] = b
			}
			pos += m + int(n)
		default:
			return nil, fmt.Errorf("exec: cannot decode %s column", schema.Cols[i].Kind)
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("exec: %d trailing bytes in shuffle row", len(buf)-pos)
	}
	return row, nil
}

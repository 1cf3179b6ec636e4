// shuffle.go is the map side of the shuffle: the one ReduceSink encoder
// both engines use. The row engine's reduceSinkOp and the vectorized
// engine's fragment-boundary emitters hand it a borrowed row; it encodes
// the key and value straight into a per-attempt byte arena and ships them
// as capped subslices of it, so a record costs no allocation of its own.
package exec

import (
	"repro/internal/plan"
	"repro/internal/types"
)

// Arena block sizes: the first block is small so a task that ships a few
// partial-aggregate rows stays cheap, and each later block doubles up to
// the cap.
const (
	arenaFirstBlock = 32
	arenaMaxBlock   = 64 << 10
)

// shuffleArena is one task attempt's ReduceSink output memory. Blocks are
// append-only: bytes handed out are never written again, so the records
// stay valid for as long as the shuffle holds them, and a failed or losing
// attempt's blocks die with its uncommitted records.
type shuffleArena struct {
	block []byte // current block; len is the bytes handed out so far
	last  int    // length of the previous record
}

// grow starts a new block, twice the current one's size within the
// bounds and at least need bytes.
func (a *shuffleArena) grow(need int) {
	size := min(max(2*cap(a.block), arenaFirstBlock), arenaMaxBlock)
	a.block = make([]byte, 0, max(size, need))
}

// EmitReduceSink encodes row's shuffle key (rs.Keys, ordered by
// rs.SortDesc) and value (rs.Out) into the attempt's arena and passes the
// record to EmitShuffle. row is only read during the call.
func (c *Context) EmitReduceSink(rs *plan.ReduceSink, row types.Row) error {
	a := &c.shuffle
	if a.block == nil || cap(a.block)-len(a.block) < a.last {
		// Start the next block before a record like the previous one
		// overflows this one, so append never copies a block.
		a.grow(a.last)
	}
	start := len(a.block)
	buf, keyEnd, err := appendRecord(a.block, rs, row)
	if err != nil {
		return err
	}
	if cap(buf) != cap(a.block) {
		// A longer record overflowed anyway and append moved the whole
		// block: encode it again at the start of a fresh one.
		a.grow(len(buf) - start)
		start = 0
		if buf, keyEnd, err = appendRecord(a.block, rs, row); err != nil {
			return err
		}
	}
	a.block, a.last = buf, len(buf)-start
	return c.EmitShuffle(rs, buf[start:keyEnd:keyEnd], rs.Tag, buf[keyEnd:len(buf):len(buf)])
}

// appendRecord appends rs's key and value encodings of row to out and
// returns it with the offset where the value starts.
func appendRecord(out []byte, rs *plan.ReduceSink, row types.Row) ([]byte, int, error) {
	var err error
	for i, k := range rs.Keys {
		if out, err = appendKeyPart(out, k.Eval(row), rs.SortDesc != nil && rs.SortDesc[i]); err != nil {
			return nil, 0, err
		}
	}
	keyEnd := len(out)
	out, err = appendRow(out, rs.Out, row)
	return out, keyEnd, err
}

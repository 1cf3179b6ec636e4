// build.go instantiates runtime operator trees from plan subgraphs. The
// same builder serves map chains (everything between a TableScan and its
// ReduceSinks/FileSinks) and reduce trees (everything below the shuffle).
package exec

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/plan"
)

// Builder memoizes runtime instances so plan nodes shared by several
// parents (joins, demux targets) get exactly one runtime operator.
type Builder struct {
	built map[plan.Node]Operator
	prof  *obs.PlanProfile
}

// NewBuilder creates a builder.
func NewBuilder() *Builder { return &Builder{built: map[plan.Node]Operator{}} }

// SetProfile makes subsequent builds insert per-edge profiling taps that
// record into p (see tap.go). A nil profile builds untapped trees.
func (b *Builder) SetProfile(p *obs.PlanProfile) { b.prof = p }

// Build returns the runtime operator for a plan node, constructing it and
// its downstream subtree on first use.
func (b *Builder) Build(n plan.Node) (Operator, error) {
	if op, ok := b.built[n]; ok {
		return op, nil
	}
	op, err := b.construct(n)
	if err != nil {
		return nil, err
	}
	b.built[n] = op
	// Wire children (except for ops that terminate a fragment).
	if withKids, ok := op.(interface{ kids() *base }); ok {
		for _, childNode := range n.Base().Children {
			childOp, err := b.Build(childNode)
			if err != nil {
				return nil, err
			}
			withKids.kids().addChild(childRef{
				op:  b.tap(childNode, childOp),
				tag: parentIndex(childNode, n),
			})
		}
	}
	return op, nil
}

// parentIndex finds n's position among child's plan parents; this is the
// edge tag children receive (Mux translates it via ParentTags).
func parentIndex(child, n plan.Node) int {
	for i, p := range child.Base().Parents {
		if p == n {
			return i
		}
	}
	return 0
}

func (b *base) kids() *base { return b }

func (b *Builder) construct(n plan.Node) (Operator, error) {
	switch t := n.(type) {
	case *plan.Filter:
		return &filterOp{node: t}, nil
	case *plan.Select:
		return &selectOp{node: t}, nil
	case *plan.Limit:
		return &limitOp{node: t}, nil
	case *plan.FileSink:
		return &fileSinkOp{node: t}, nil
	case *plan.ReduceSink:
		return &reduceSinkOp{node: t}, nil
	case *plan.GroupBy:
		return &groupByOp{node: t}, nil
	case *plan.Join:
		return &joinOp{node: t}, nil
	case *plan.Mux:
		return &muxOp{node: t, numParents: len(t.Parents)}, nil
	case *plan.MapJoin:
		op := &mapJoinOp{node: t}
		for i, p := range t.Parents {
			if i == t.BigIdx {
				op.smallSources = append(op.smallSources, nil)
			} else {
				op.smallSources = append(op.smallSources, p)
			}
		}
		return op, nil
	case *plan.Demux:
		return &demuxOp{node: t}, nil
	case *plan.TableScan:
		return nil, fmt.Errorf("exec: TableScan %s must be driven by the task runner, not built", t.Label())
	}
	return nil, fmt.Errorf("exec: no runtime for operator %T", n)
}

// BuildMapChain builds the runtime consumers of a TableScan: one operator
// per scan child, each row pushed to all of them.
func (b *Builder) BuildMapChain(scan *plan.TableScan) ([]Operator, error) {
	var out []Operator
	for _, c := range scan.Base().Children {
		op, err := b.Build(c)
		if err != nil {
			return nil, err
		}
		out = append(out, b.tap(c, op))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exec: scan %s has no consumers", scan.Label())
	}
	return out, nil
}

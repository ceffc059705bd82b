package plan

import "fmt"

// OpKind is the exported identity of a physical operator, for generic
// evaluators built with EvalWith. It mirrors the program's internal op enum
// one-to-one.
type OpKind int

const (
	// OpVar loads a bound input.
	OpVar OpKind = iota
	// OpMul is distributed matrix multiplication.
	OpMul
	// OpAdd is element-wise addition.
	OpAdd
	// OpSub is element-wise subtraction.
	OpSub
	// OpHadamard is the element-wise product.
	OpHadamard
	// OpDivElem is guarded element-wise division (Scalar carries epsilon).
	OpDivElem
	// OpTranspose is matrix transposition.
	OpTranspose
	// OpScale is scalar multiplication (Scalar carries the factor).
	OpScale
)

// String names the operator like Program.Explain does.
func (k OpKind) String() string {
	switch k {
	case OpVar:
		return "load"
	case OpMul:
		return "multiply"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpHadamard:
		return "hadamard"
	case OpDivElem:
		return "divelem"
	case OpTranspose:
		return "transpose"
	case OpScale:
		return "scale"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// NodeInfo describes one program node to a generic evaluator.
type NodeInfo struct {
	// Kind is the operator; Unary reports whether only the first operand is
	// meaningful (OpTranspose, OpScale).
	Kind OpKind
	// Scalar is the OpScale factor or the OpDivElem epsilon.
	Scalar float64
	// Index is the node's position in the program's topological order,
	// stable across evaluations — useful for labeling spans.
	Index int
}

// Unary reports whether the node takes a single operand.
func (n NodeInfo) Unary() bool { return n.Kind == OpTranspose || n.Kind == OpScale }

// EvalWith executes a compiled program bottom-up over an arbitrary value
// type T — driver-resident matrices for the engine, handles naming
// worker-resident data for a session. Each DAG node evaluates exactly once,
// and a result is dropped as soon as its last consumer has run, bounding
// driver memory like Spark unpersists cached RDDs.
//
// binds supplies the OpVar values; apply runs every non-var node (b is the
// zero T for unary operators); release, when non-nil, is called exactly once
// for each intermediate result whose last consumer has run — never for bound
// inputs and never for the root, which the caller owns. On an apply error,
// every still-live intermediate is released before the error returns, so an
// evaluator that allocates remote state does not leak it.
func EvalWith[T any](p *Program, binds map[string]T, apply func(n NodeInfo, a, b T) (T, error), release func(T)) (T, error) {
	var zero T
	results := make([]T, len(p.nodes))
	live := make([]bool, len(p.nodes))     // holds an unreleased intermediate
	isVar := make([]bool, len(p.nodes))    // bound input: caller-owned
	remaining := make([]int, len(p.nodes)) // consumers left to run
	for i := range p.nodes {
		remaining[i] = p.nodes[i].uses
	}
	releaseAll := func() {
		if release == nil {
			return
		}
		for i := range results {
			if live[i] && !isVar[i] {
				release(results[i])
				live[i] = false
			}
		}
	}
	done := func(j int) {
		remaining[j]--
		if remaining[j] == 0 && j != p.root && !isVar[j] && live[j] {
			if release != nil {
				release(results[j])
			}
			live[j] = false
			results[j] = zero
		}
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.op == opVar {
			v, ok := binds[n.name]
			if !ok {
				return zero, fmt.Errorf("plan: input %q not bound", n.name)
			}
			results[i] = v
			isVar[i], live[i] = true, true
			continue
		}
		info := NodeInfo{Kind: OpKind(n.op), Scalar: n.scalar, Index: i}
		var b T
		unary := n.op == opTranspose || n.op == opScale
		if !unary {
			b = results[n.r]
		}
		out, err := apply(info, results[n.l], b)
		if err != nil {
			releaseAll()
			return zero, fmt.Errorf("plan: node %%%d (%s): %w", i, n.describe(), err)
		}
		results[i] = out
		live[i] = true
		done(n.l)
		if !unary {
			done(n.r)
		}
	}
	return results[p.root], nil
}

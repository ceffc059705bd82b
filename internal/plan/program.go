package plan

import "fmt"

// op identifies a physical operator.
type op int

const (
	opVar op = iota
	opMul
	opAdd
	opSub
	opHadamard
	opDivElem
	opTranspose
	opScale
)

// node is one physical-plan DAG node; inputs refer to earlier nodes, so the
// slice is a valid topological order.
type node struct {
	op     op
	name   string  // opVar
	l, r   int     // input node indices (r unused by unary ops)
	scalar float64 // opScale factor / opDivElem epsilon
	key    string
	uses   int // consumer count, for memo eviction
}

func (n *node) describe() string {
	switch n.op {
	case opVar:
		return fmt.Sprintf("load %s", n.name)
	case opMul:
		return fmt.Sprintf("multiply %%%d %%%d", n.l, n.r)
	case opAdd:
		return fmt.Sprintf("add %%%d %%%d", n.l, n.r)
	case opSub:
		return fmt.Sprintf("sub %%%d %%%d", n.l, n.r)
	case opHadamard:
		return fmt.Sprintf("hadamard %%%d %%%d", n.l, n.r)
	case opDivElem:
		return fmt.Sprintf("divelem %%%d %%%d eps=%g", n.l, n.r, n.scalar)
	case opTranspose:
		return fmt.Sprintf("transpose %%%d", n.l)
	case opScale:
		return fmt.Sprintf("scale %g %%%d", n.scalar, n.l)
	default:
		return "?"
	}
}

// Program is a compiled, optimized physical plan: a DAG in topological
// order with common subexpressions hash-consed into single nodes.
type Program struct {
	nodes  []node
	root   int
	shared int // how many node reuses CSE found
	vars   []string
}

// Compile rewrites the expression (transpose pushing, scalar folding) and
// hash-conses it into a DAG program.
func Compile(e Expr) (*Program, error) {
	if e == nil {
		return nil, fmt.Errorf("plan: nil expression")
	}
	p := &Program{}
	index := make(map[string]int)
	var build func(e Expr) int
	build = func(e Expr) int {
		k := e.key()
		if i, ok := index[k]; ok {
			p.shared++
			p.nodes[i].uses++
			return i
		}
		var n node
		n.key = k
		n.uses = 1
		switch v := e.(type) {
		case *Var:
			n.op, n.name = opVar, v.Name
		case *MatMul:
			n.op = opMul
			n.l, n.r = build(v.L), build(v.R)
		case *Add:
			n.op = opAdd
			n.l, n.r = build(v.L), build(v.R)
		case *Sub:
			n.op = opSub
			n.l, n.r = build(v.L), build(v.R)
		case *Hadamard:
			n.op = opHadamard
			n.l, n.r = build(v.L), build(v.R)
		case *DivElem:
			n.op = opDivElem
			n.l, n.r = build(v.L), build(v.R)
			n.scalar = v.Eps
		case *Transpose:
			n.op = opTranspose
			n.l = build(v.X)
		case *Scale:
			n.op = opScale
			n.l = build(v.X)
			n.scalar = v.S
		default:
			panic(fmt.Sprintf("plan: unknown expression %T", e))
		}
		i := len(p.nodes)
		p.nodes = append(p.nodes, n)
		index[k] = i
		if n.op == opVar {
			p.vars = append(p.vars, n.name)
		}
		return i
	}
	p.root = build(rewrite(e))
	return p, nil
}

// Vars lists the input names the program needs bound, in first-use order.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// NumNodes returns the physical operator count after CSE.
func (p *Program) NumNodes() int { return len(p.nodes) }

// SharedNodes returns how many subexpression reuses CSE captured.
func (p *Program) SharedNodes() int { return p.shared }

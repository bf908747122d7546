package lang

import (
	"errors"
	"fmt"
	"sort"
)

// Interp is a reference interpreter for MC ASTs: a second, independent
// implementation of the language semantics used to differentially test the
// compiler + VM pipeline. It models the same flat word memory and the same
// global/string layout as internal/compile (globals allocated from address
// 8 in declaration order; string literals interned in deterministic source
// order), so even address-dependent programs agree with compiled execution.
type Interp struct {
	mem     []int64
	memInit []int64
	globals map[string]gslot
	strings map[string]int64
	funcs   map[string]*FuncDecl
	order   []string // function compile order (main first, then sorted)
}

type gslot struct {
	addr  int64
	array bool
}

// Interpreter limits mirroring vm.Config defaults.
const (
	interpMemWords = 1 << 20
	interpMaxSteps = 1 << 34
)

// Interp trap errors, mirroring the VM's.
var (
	ErrInterpDivZero  = errors.New("interp: division by zero")
	ErrInterpMem      = errors.New("interp: memory access out of range")
	ErrInterpSteps    = errors.New("interp: step limit exceeded")
	ErrInterpNoMain   = errors.New("interp: no main function")
	ErrInterpBadCall  = errors.New("interp: bad call")
	ErrInterpUndef    = errors.New("interp: undefined variable")
	ErrInterpBadIndex = errors.New("interp: switch/index misuse")
)

// NewInterp builds an interpreter over the parsed files (one shared global
// namespace, like compile.Compile).
func NewInterp(files ...*File) (*Interp, error) {
	ip := &Interp{
		globals: map[string]gslot{},
		strings: map[string]int64{},
		funcs:   map[string]*FuncDecl{},
	}
	next := int64(8) // compile.globalBase
	var init []int64
	grow := func(end int64) {
		for int64(len(init)) < end {
			init = append(init, 0)
		}
	}
	for _, f := range files {
		for _, g := range f.Globals {
			if _, dup := ip.globals[g.Name]; dup {
				return nil, fmt.Errorf("interp: global %s redeclared", g.Name)
			}
			ip.globals[g.Name] = gslot{addr: next, array: g.Size > 1}
			grow(next + g.Size)
			copy(init[next:], g.Init)
			next += g.Size
		}
		for _, fn := range f.Funcs {
			if _, dup := ip.funcs[fn.Name]; dup {
				return nil, fmt.Errorf("interp: function %s redeclared", fn.Name)
			}
			ip.funcs[fn.Name] = fn
		}
	}
	if _, ok := ip.funcs["main"]; !ok {
		return nil, ErrInterpNoMain
	}
	names := make([]string, 0, len(ip.funcs))
	for n := range ip.funcs {
		if n != "main" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	ip.order = append([]string{"main"}, names...)

	// Intern string literals in the compiler's order.
	for _, n := range ip.order {
		VisitExprs(ip.funcs[n].Body, func(e Expr) {
			s, ok := e.(*StrLit)
			if !ok {
				return
			}
			if _, have := ip.strings[s.Val]; have {
				return
			}
			addr := next
			grow(next + int64(len(s.Val)) + 1)
			for i := 0; i < len(s.Val); i++ {
				init[addr+int64(i)] = int64(s.Val[i])
			}
			ip.strings[s.Val] = addr
			next += int64(len(s.Val)) + 1
		})
	}
	ip.memInit = init
	return ip, nil
}

// run-time state of one execution.
type interpState struct {
	ip    *Interp
	mem   []int64
	in    []byte
	inAt  int
	out   []byte
	steps int64
	max   int64
}

type frame struct {
	vars map[string]*int64
}

// control-flow signals.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// Run executes the program on input, returning its output. maxSteps 0
// means the default limit.
func (ip *Interp) Run(input []byte, maxSteps int64) ([]byte, error) {
	if maxSteps == 0 {
		maxSteps = interpMaxSteps
	}
	st := &interpState{ip: ip, mem: make([]int64, interpMemWords), in: input, max: maxSteps}
	copy(st.mem, ip.memInit)
	_, err := st.call("main", nil)
	return st.out, err
}

func (st *interpState) tick() error {
	st.steps++
	if st.steps > st.max {
		return ErrInterpSteps
	}
	return nil
}

func (st *interpState) call(name string, args []int64) (int64, error) {
	fn, ok := st.ip.funcs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrInterpBadCall, name)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("%w: %s arity", ErrInterpBadCall, name)
	}
	fr := &frame{vars: map[string]*int64{}}
	for i, p := range fn.Params {
		v := args[i]
		fr.vars[p] = &v
	}
	// MC locals are function-scoped: predeclare them all as zero.
	var declare func(s Stmt)
	declare = func(s Stmt) { VisitLocals(s, func(d *LocalDecl) { z := int64(0); fr.vars[d.Name] = &z }) }
	declare(fn.Body)
	ret, _, err := st.execBlock(fn.Body, fr)
	if err != nil {
		return 0, err
	}
	return ret, nil
}

func (st *interpState) execBlock(b *Block, fr *frame) (int64, ctrl, error) {
	for _, s := range b.Stmts {
		ret, c, err := st.exec(s, fr)
		if err != nil || c != ctrlNone {
			return ret, c, err
		}
	}
	return 0, ctrlNone, nil
}

func (st *interpState) exec(s Stmt, fr *frame) (int64, ctrl, error) {
	if err := st.tick(); err != nil {
		return 0, ctrlNone, err
	}
	switch x := s.(type) {
	case nil:
		return 0, ctrlNone, nil
	case *Block:
		for _, inner := range x.Stmts {
			ret, c, err := st.exec(inner, fr)
			if err != nil || c != ctrlNone {
				return ret, c, err
			}
		}
		return 0, ctrlNone, nil

	case *LocalDecl:
		if x.Init != nil {
			v, err := st.eval(x.Init, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			*fr.vars[x.Name] = v
		}
		return 0, ctrlNone, nil

	case *AssignStmt:
		return 0, ctrlNone, st.assign(x, fr)

	case *ExprStmt:
		_, err := st.eval(x.X, fr)
		return 0, ctrlNone, err

	case *IfStmt:
		c, err := st.eval(x.Cond, fr)
		if err != nil {
			return 0, ctrlNone, err
		}
		if c != 0 {
			return st.exec(x.Then, fr)
		}
		if x.Else != nil {
			return st.exec(x.Else, fr)
		}
		return 0, ctrlNone, nil

	case *WhileStmt:
		for {
			c, err := st.eval(x.Cond, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			if c == 0 {
				return 0, ctrlNone, nil
			}
			ret, sig, err := st.exec(x.Body, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return 0, ctrlNone, nil
			case ctrlReturn:
				return ret, ctrlReturn, nil
			}
			if err := st.tick(); err != nil {
				return 0, ctrlNone, err
			}
		}

	case *DoWhileStmt:
		for {
			ret, sig, err := st.exec(x.Body, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return 0, ctrlNone, nil
			case ctrlReturn:
				return ret, ctrlReturn, nil
			}
			c, err := st.eval(x.Cond, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			if c == 0 {
				return 0, ctrlNone, nil
			}
			if err := st.tick(); err != nil {
				return 0, ctrlNone, err
			}
		}

	case *ForStmt:
		if x.Init != nil {
			if ret, sig, err := st.exec(x.Init, fr); err != nil || sig != ctrlNone {
				return ret, sig, err
			}
		}
		for {
			if x.Cond != nil {
				c, err := st.eval(x.Cond, fr)
				if err != nil {
					return 0, ctrlNone, err
				}
				if c == 0 {
					return 0, ctrlNone, nil
				}
			}
			ret, sig, err := st.exec(x.Body, fr)
			if err != nil {
				return 0, ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return 0, ctrlNone, nil
			case ctrlReturn:
				return ret, ctrlReturn, nil
			}
			if x.Post != nil {
				if ret, sig, err := st.exec(x.Post, fr); err != nil || sig != ctrlNone {
					return ret, sig, err
				}
			}
			if err := st.tick(); err != nil {
				return 0, ctrlNone, err
			}
		}

	case *SwitchStmt:
		tag, err := st.eval(x.Tag, fr)
		if err != nil {
			return 0, ctrlNone, err
		}
		start := -1
		deflt := -1
		for i, cs := range x.Cases {
			if cs.IsDefault {
				deflt = i
			}
			for _, v := range cs.Values {
				if v == tag {
					start = i
				}
			}
			if start == i {
				break
			}
		}
		if start == -1 {
			start = deflt
		}
		if start == -1 {
			return 0, ctrlNone, nil
		}
		// Fallthrough: execute case bodies from start until break/end.
		for i := start; i < len(x.Cases); i++ {
			for _, inner := range x.Cases[i].Body {
				ret, sig, err := st.exec(inner, fr)
				if err != nil {
					return 0, ctrlNone, err
				}
				switch sig {
				case ctrlBreak:
					return 0, ctrlNone, nil
				case ctrlReturn:
					return ret, ctrlReturn, nil
				case ctrlContinue:
					return ret, ctrlContinue, nil
				}
			}
		}
		return 0, ctrlNone, nil

	case *BreakStmt:
		return 0, ctrlBreak, nil
	case *ContinueStmt:
		return 0, ctrlContinue, nil

	case *ReturnStmt:
		if x.X == nil {
			return 0, ctrlReturn, nil
		}
		v, err := st.eval(x.X, fr)
		return v, ctrlReturn, err
	}
	return 0, ctrlNone, fmt.Errorf("interp: unhandled statement %T", s)
}

func (st *interpState) assign(x *AssignStmt, fr *frame) error {
	apply := func(old int64, rhs int64) (int64, error) {
		switch x.Op {
		case ASSIGN:
			return rhs, nil
		case ADDA:
			return old + rhs, nil
		case SUBA:
			return old - rhs, nil
		case MULA:
			return old * rhs, nil
		case DIVA:
			if rhs == 0 {
				return 0, ErrInterpDivZero
			}
			return old / rhs, nil
		case MODA:
			if rhs == 0 {
				return 0, ErrInterpDivZero
			}
			return old % rhs, nil
		case ANDA:
			return old & rhs, nil
		case ORA:
			return old | rhs, nil
		case XORA:
			return old ^ rhs, nil
		}
		return 0, fmt.Errorf("interp: bad assignment op %v", x.Op)
	}

	switch lhs := x.LHS.(type) {
	case *Ident:
		if p, ok := fr.vars[lhs.Name]; ok {
			// Compound assignments read before evaluating the RHS, like
			// the compiled code.
			old := *p
			rhs, err := st.eval(x.RHS, fr)
			if err != nil {
				return err
			}
			v, err := apply(old, rhs)
			if err != nil {
				return err
			}
			*p = v
			return nil
		}
		g, ok := st.ip.globals[lhs.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrInterpUndef, lhs.Name)
		}
		if g.array {
			return fmt.Errorf("interp: cannot assign to array %s", lhs.Name)
		}
		old := st.mem[g.addr]
		rhs, err := st.eval(x.RHS, fr)
		if err != nil {
			return err
		}
		v, err := apply(old, rhs)
		if err != nil {
			return err
		}
		st.mem[g.addr] = v
		return nil

	case *IndexExpr:
		base, err := st.eval(lhs.Base, fr)
		if err != nil {
			return err
		}
		idx, err := st.eval(lhs.Index, fr)
		if err != nil {
			return err
		}
		addr := base + idx
		if addr < 0 || addr >= int64(len(st.mem)) {
			return ErrInterpMem
		}
		old := st.mem[addr]
		rhs, err := st.eval(x.RHS, fr)
		if err != nil {
			return err
		}
		v, err := apply(old, rhs)
		if err != nil {
			return err
		}
		st.mem[addr] = v
		return nil
	}
	return fmt.Errorf("interp: bad assignment target %T", x.LHS)
}

func (st *interpState) eval(e Expr, fr *frame) (int64, error) {
	if err := st.tick(); err != nil {
		return 0, err
	}
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil

	case *StrLit:
		return st.ip.strings[x.Val], nil

	case *Ident:
		if p, ok := fr.vars[x.Name]; ok {
			return *p, nil
		}
		if g, ok := st.ip.globals[x.Name]; ok {
			if g.array {
				return g.addr, nil
			}
			return st.mem[g.addr], nil
		}
		return 0, fmt.Errorf("%w: %s", ErrInterpUndef, x.Name)

	case *IndexExpr:
		base, err := st.eval(x.Base, fr)
		if err != nil {
			return 0, err
		}
		idx, err := st.eval(x.Index, fr)
		if err != nil {
			return 0, err
		}
		addr := base + idx
		if addr < 0 || addr >= int64(len(st.mem)) {
			return 0, ErrInterpMem
		}
		return st.mem[addr], nil

	case *CallExpr:
		switch x.Name {
		case "getc":
			if st.inAt < len(st.in) {
				v := int64(st.in[st.inAt])
				st.inAt++
				return v, nil
			}
			return -1, nil
		case "putc":
			if len(x.Args) != 1 {
				return 0, fmt.Errorf("%w: putc arity", ErrInterpBadCall)
			}
			v, err := st.eval(x.Args[0], fr)
			if err != nil {
				return 0, err
			}
			st.out = append(st.out, byte(v))
			return v, nil
		}
		args := make([]int64, len(x.Args))
		for i, a := range x.Args {
			v, err := st.eval(a, fr)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return st.call(x.Name, args)

	case *UnaryExpr:
		v, err := st.eval(x.X, fr)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case NOT:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case MINUS:
			return -v, nil
		case TILDE:
			return ^v, nil
		}
		return 0, fmt.Errorf("interp: bad unary %v", x.Op)

	case *BinaryExpr:
		if x.Op == ANDAND || x.Op == OROR {
			a, err := st.eval(x.X, fr)
			if err != nil {
				return 0, err
			}
			if x.Op == ANDAND && a == 0 {
				return 0, nil
			}
			if x.Op == OROR && a != 0 {
				return 1, nil
			}
			b, err := st.eval(x.Y, fr)
			if err != nil {
				return 0, err
			}
			if b != 0 {
				return 1, nil
			}
			return 0, nil
		}
		a, err := st.eval(x.X, fr)
		if err != nil {
			return 0, err
		}
		b, err := st.eval(x.Y, fr)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case PLUS:
			return a + b, nil
		case MINUS:
			return a - b, nil
		case STAR:
			return a * b, nil
		case SLASH:
			if b == 0 {
				return 0, ErrInterpDivZero
			}
			return a / b, nil
		case PERCENT:
			if b == 0 {
				return 0, ErrInterpDivZero
			}
			return a % b, nil
		case AND:
			return a & b, nil
		case OR:
			return a | b, nil
		case XOR:
			return a ^ b, nil
		case SHL:
			return a << (uint64(b) & 63), nil
		case SHR:
			return a >> (uint64(b) & 63), nil
		case EQ:
			return b2i(a == b), nil
		case NE:
			return b2i(a != b), nil
		case LT:
			return b2i(a < b), nil
		case LE:
			return b2i(a <= b), nil
		case GT:
			return b2i(a > b), nil
		case GE:
			return b2i(a >= b), nil
		}
		return 0, fmt.Errorf("interp: bad binary %v", x.Op)
	}
	return 0, fmt.Errorf("interp: unhandled expression %T", e)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// VisitLocals calls f for every local declaration in the statement tree.
func VisitLocals(s Stmt, f func(*LocalDecl)) {
	switch st := s.(type) {
	case *Block:
		for _, x := range st.Stmts {
			VisitLocals(x, f)
		}
	case *LocalDecl:
		f(st)
	case *IfStmt:
		VisitLocals(st.Then, f)
		VisitLocals(st.Else, f)
	case *WhileStmt:
		VisitLocals(st.Body, f)
	case *DoWhileStmt:
		VisitLocals(st.Body, f)
	case *ForStmt:
		VisitLocals(st.Init, f)
		VisitLocals(st.Post, f)
		VisitLocals(st.Body, f)
	case *SwitchStmt:
		for _, c := range st.Cases {
			for _, x := range c.Body {
				VisitLocals(x, f)
			}
		}
	}
}

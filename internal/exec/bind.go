package exec

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// boundExpr is a pre-compiled expression evaluator produced by Bind:
// the per-row work left after name resolution and tree dispatch have
// been paid once per query instead of once per row.
type boundExpr func(row *Row) (result, error)

// boundValue is a bound expression narrowed to a relational value
// (BindValue): what projections, sort/join/group keys and aggregate
// arguments consume.
type boundValue func(row *Row) (model.Value, error)

// boundPred is the boolean specialization produced by BindPred: filters
// only need SQL truth, and threading a bare bool through the conjunct
// closures avoids materializing (and copying) a full result struct per
// sub-expression per row — the dominant cost of a bound multi-predicate
// filter.
type boundPred func(row *Row) (bool, error)

// Bind pre-compiles an expression against the evaluator's schema — the
// only way expressions run; every operator binds its predicates, keys
// and arguments once in Open. Column references resolve their ordinal,
// literals become constants, $ references lower-case their qualifier,
// summary methods and scalar functions resolve by name, and the
// boolean / comparison / arithmetic structure is lowered to closures
// over applyBinary and negValue. Binding never fails: whatever cannot
// be resolved (an unknown column, function or method, a wrong arity)
// yields a closure that returns the error per row, so a predicate that
// short-circuits past it never reports it.
func (ev *Evaluator) Bind(e sql.Expr) boundExpr {
	switch n := e.(type) {
	case *sql.Literal:
		r := valueResult(n.Value)
		return func(*Row) (result, error) { return r, nil }

	case *sql.ColumnRef:
		i, err := ev.Schema.ColIndex(n.Qualifier, n.Name)
		if err != nil {
			return func(*Row) (result, error) { return result{}, err }
		}
		return func(row *Row) (result, error) {
			return valueResult(row.Tuple.Values[i]), nil
		}

	case *sql.Not:
		inner := ev.BindPred(n.Expr)
		return func(row *Row) (result, error) {
			b, err := inner(row)
			if err != nil {
				return result{}, err
			}
			return valueResult(model.NewBool(!b)), nil
		}

	case *sql.DollarRef:
		qualifier := strings.ToLower(n.Qualifier)
		return func(row *Row) (result, error) {
			return result{set: row.SetFor(qualifier), kind: 1}, nil
		}

	case *sql.MethodCall:
		return ev.bindMethod(n)

	case *sql.FuncCall:
		return ev.bindFunc(n)

	case *sql.Neg:
		inner := ev.BindValue(n.Expr)
		return func(row *Row) (result, error) {
			v, err := inner(row)
			if err != nil {
				return result{}, err
			}
			return negValue(v)
		}

	case *sql.Binary:
		switch n.Op {
		case sql.OpAnd, sql.OpOr:
			p := ev.BindPred(n)
			return func(row *Row) (result, error) {
				b, err := p(row)
				if err != nil {
					return result{}, err
				}
				return valueResult(model.NewBool(b)), nil
			}
		default:
			lb, rb := ev.BindValue(n.L), ev.BindValue(n.R)
			op := n.Op
			return func(row *Row) (result, error) {
				l, err := lb(row)
				if err != nil {
					return result{}, err
				}
				r, err := rb(row)
				if err != nil {
					return result{}, err
				}
				return applyBinary(op, l, r)
			}
		}

	default:
		err := fmt.Errorf("exec: unsupported expression %T", e)
		return func(*Row) (result, error) { return result{}, err }
	}
}

// BindValue binds e and narrows its result to a relational value; a
// summary-valued expression fails per row with resolveValue's error.
func (ev *Evaluator) BindValue(e sql.Expr) boundValue {
	if ref := ev.bindValueRef(e); ref != nil {
		return func(row *Row) (model.Value, error) { return *ref(row), nil }
	}
	be := ev.Bind(e)
	return func(row *Row) (model.Value, error) {
		r, err := be(row)
		if err != nil {
			return model.Value{}, err
		}
		return resolveValue(e, r)
	}
}

// bindValues binds a list of expressions as values.
func (ev *Evaluator) bindValues(exprs []sql.Expr) []boundValue {
	out := make([]boundValue, len(exprs))
	for i, e := range exprs {
		out[i] = ev.BindValue(e)
	}
	return out
}

// evalValues evaluates bound argument lists left to right.
func evalValues(args []boundValue, row *Row) ([]model.Value, error) {
	out := make([]model.Value, len(args))
	for i, a := range args {
		v, err := a(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// bindMethod lowers a Section 3.1 manipulation function: the receiver
// and arguments are bound and the method is looked up by lower-cased
// name once. What stays per row is what depends on the receiver's
// runtime kind — a method chain over a missing summary object
// propagates NULL before anything else is checked, then an unknown
// function, then the arity, then the arguments.
func (ev *Evaluator) bindMethod(m *sql.MethodCall) boundExpr {
	recv := ev.Bind(m.Recv)
	name := strings.ToLower(m.Name)
	onSet, isSet := setMethods[name]
	onObject, isObject := objectMethods[name]
	args := ev.bindValues(m.Args)
	return func(row *Row) (result, error) {
		r, err := recv(row)
		if err != nil {
			return result{}, err
		}
		var fn summaryMethod
		switch {
		case r.kind == 3:
			return r, nil
		case r.kind == 1 && isSet:
			fn = onSet
		case r.kind == 1:
			return result{}, fmt.Errorf("exec: unknown summary-set function %q", m.Name)
		case r.kind == 2 && isObject:
			fn = onObject
		case r.kind == 2:
			return result{}, fmt.Errorf("exec: unknown summary-object function %q", m.Name)
		default:
			return result{}, fmt.Errorf("exec: %s is not callable on a plain value", m.Name)
		}
		switch {
		case fn.nargs == 0:
			return fn.call(ev, r, nil), nil
		case fn.nargs > 0 && len(args) != fn.nargs:
			return result{}, fmt.Errorf("exec: %s expects %d arguments, got %d", m.Name, fn.nargs, len(args))
		case len(args) == 0:
			return result{}, fmt.Errorf("exec: %s needs at least one keyword", m.Name)
		}
		vals, err := evalValues(args, row)
		if err != nil {
			return result{}, err
		}
		if fn.nargs < 0 {
			for _, v := range vals {
				if v.Kind != model.KindText {
					return result{}, fmt.Errorf("exec: %s keywords must be text", m.Name)
				}
			}
		}
		return fn.call(ev, r, vals), nil
	}
}

// bindFunc lowers a non-aggregate function call; the function resolves
// by name once, its arguments evaluate first per row (so an argument's
// error wins over an unknown function's, as it always has).
func (ev *Evaluator) bindFunc(f *sql.FuncCall) boundExpr {
	if f.IsAggregate() {
		err := fmt.Errorf("exec: aggregate %s outside GROUP BY context", f.Name)
		return func(*Row) (result, error) { return result{}, err }
	}
	fn := scalarFuncs[strings.ToLower(f.Name)]
	args := ev.bindValues(f.Args)
	return func(row *Row) (result, error) {
		vals, err := evalValues(args, row)
		if err != nil {
			return result{}, err
		}
		if fn == nil {
			return result{}, fmt.Errorf("exec: unknown function %q", f.Name)
		}
		return fn(vals)
	}
}

// BindPred pre-compiles an expression as a predicate: the closure
// chain passes SQL truth (NULL is false) directly instead of boxing
// every sub-result in a value struct. AND/OR short-circuit left to
// right, NOT takes the complement of its operand's
// truth, and comparisons between column references and literals lower
// to direct compares against the pre-resolved ordinal and constant.
// Everything else evaluates through BindValue and takes Truth of the
// result.
func (ev *Evaluator) BindPred(e sql.Expr) boundPred {
	switch n := e.(type) {
	case *sql.Not:
		inner := ev.BindPred(n.Expr)
		return func(row *Row) (bool, error) {
			b, err := inner(row)
			if err != nil {
				return false, err
			}
			return !b, nil
		}

	case *sql.Binary:
		switch n.Op {
		case sql.OpAnd:
			lp, rp := ev.BindPred(n.L), ev.BindPred(n.R)
			return func(row *Row) (bool, error) {
				ok, err := lp(row)
				if err != nil || !ok {
					return false, err
				}
				return rp(row)
			}
		case sql.OpOr:
			lp, rp := ev.BindPred(n.L), ev.BindPred(n.R)
			return func(row *Row) (bool, error) {
				ok, err := lp(row)
				if err != nil || ok {
					return ok, err
				}
				return rp(row)
			}
		default:
			if n.Op.IsComparison() && n.Op != sql.OpLike {
				if p := ev.bindComparePred(n); p != nil {
					return p
				}
			}
		}
	}
	bv := ev.BindValue(e)
	return func(row *Row) (bool, error) {
		v, err := bv(row)
		if err != nil {
			return false, err
		}
		return v.Truth(), nil
	}
}

// bindComparePred lowers a comparison whose operands are both column
// references or literals to a direct compare: no result structs, no
// value copies, and an inline int64 compare for the overwhelmingly
// common integer-column-vs-integer-constant conjunct. Returns nil when
// an operand is any other shape (caller falls back to the generic
// bound path). Semantics mirror applyBinary exactly: either side NULL
// is false, mixed-kind comparisons report the same model.Value.Compare
// error.
func (ev *Evaluator) bindComparePred(n *sql.Binary) boundPred {
	lg := ev.bindValueRef(n.L)
	rg := ev.bindValueRef(n.R)
	if lg == nil || rg == nil {
		return nil
	}
	op := n.Op
	return func(row *Row) (bool, error) {
		l, r := lg(row), rg(row)
		if l.Kind == model.KindNull || r.Kind == model.KindNull {
			return false, nil
		}
		var c int
		switch {
		case l.Kind == model.KindInt && r.Kind == model.KindInt:
			switch {
			case l.Int < r.Int:
				c = -1
			case l.Int > r.Int:
				c = 1
			}
		case l.Kind == model.KindText && r.Kind == model.KindText:
			c = strings.Compare(l.Text, r.Text)
		default:
			var err error
			c, err = l.Compare(*r)
			if err != nil {
				return false, err
			}
		}
		switch op {
		case sql.OpEq:
			return c == 0, nil
		case sql.OpNe:
			return c != 0, nil
		case sql.OpLt:
			return c < 0, nil
		case sql.OpLe:
			return c <= 0, nil
		case sql.OpGt:
			return c > 0, nil
		default: // sql.OpGe — the only comparison left
			return c >= 0, nil
		}
	}
}

// bindValueRef resolves a simple operand — column reference or literal
// — to a pointer-returning accessor, so the comparison reads values in
// place instead of copying them through closure returns. Any other
// shape (or an unresolvable column, which must keep its per-row error)
// returns nil.
func (ev *Evaluator) bindValueRef(e sql.Expr) func(*Row) *model.Value {
	switch n := e.(type) {
	case *sql.Literal:
		v := n.Value
		return func(*Row) *model.Value { return &v }
	case *sql.ColumnRef:
		i, err := ev.Schema.ColIndex(n.Qualifier, n.Name)
		if err != nil {
			return nil
		}
		return func(row *Row) *model.Value { return &row.Tuple.Values[i] }
	}
	return nil
}

// FilterBatch evaluates a bound predicate over every live row of b and
// compacts the batch's selection vector in place to the qualifying
// rows. Rows are neither copied nor moved: a filter costs one int32
// write per surviving row. The in-place compaction is safe because the
// write position never passes the read position.
func FilterBatch(pred boundPred, b *Batch) error {
	if b.sel == nil {
		sel := b.selStorage(len(b.rows))
		for i, row := range b.rows {
			ok, err := pred(row)
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, int32(i))
			}
		}
		b.sel = sel
		return nil
	}
	out := b.sel[:0]
	for _, phys := range b.sel {
		ok, err := pred(b.rows[phys])
		if err != nil {
			return err
		}
		if ok {
			out = append(out, phys)
		}
	}
	b.sel = out
	return nil
}

package plan

import (
	"strings"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sql"
)

// Conjuncts splits an expression on top-level ANDs.
func Conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// AndAll re-joins conjuncts with AND; nil for an empty list.
func AndAll(es []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &sql.Binary{Op: sql.OpAnd, L: out, R: e}
		}
	}
	return out
}

// AliasResolver maps unqualified column names to their owning alias.
type AliasResolver struct {
	// Schemas maps lower-case alias -> that table's schema.
	Schemas map[string]*model.Schema
}

// OwnerOf returns the alias owning an unqualified column ("" if unknown
// or ambiguous).
func (r *AliasResolver) OwnerOf(col string) string {
	owner := ""
	for alias, s := range r.Schemas {
		if _, err := s.ColIndex("", col); err == nil {
			if owner != "" {
				return "" // ambiguous
			}
			owner = alias
		}
	}
	return owner
}

// ExprInfo summarizes what an expression touches.
type ExprInfo struct {
	// Aliases references (lower-case) table aliases.
	Aliases map[string]bool
	// Instances lists summary-instance names passed as literal first
	// arguments to getSummaryObject.
	Instances []string
	// BareDollar is true when the expression reads an unqualified $.
	BareDollar bool
	// UsesData is true when the expression reads any data column.
	UsesData bool
	// HasAggregate is true when an aggregate call appears.
	HasAggregate bool
}

// Analyze inspects an expression tree.
func Analyze(e sql.Expr, r *AliasResolver) *ExprInfo {
	info := &ExprInfo{Aliases: map[string]bool{}}
	seen := map[string]bool{}
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch n := e.(type) {
		case *sql.Literal:
		case *sql.ColumnRef:
			info.UsesData = true
			alias := strings.ToLower(n.Qualifier)
			if alias == "" && r != nil {
				alias = r.OwnerOf(n.Name)
			}
			if alias != "" {
				info.Aliases[alias] = true
			}
		case *sql.DollarRef:
			info.BareDollar = info.BareDollar || n.Qualifier == ""
			alias := strings.ToLower(n.Qualifier)
			if alias != "" {
				info.Aliases[alias] = true
			} else if r != nil && len(r.Schemas) == 1 {
				for a := range r.Schemas {
					info.Aliases[a] = true
				}
			}
		case *sql.MethodCall:
			if strings.EqualFold(n.Name, "getSummaryObject") && len(n.Args) == 1 {
				if lit, ok := n.Args[0].(*sql.Literal); ok && lit.Value.Kind == model.KindText {
					key := strings.ToLower(lit.Value.Text)
					if !seen[key] {
						seen[key] = true
						info.Instances = append(info.Instances, lit.Value.Text)
					}
				}
			}
			walk(n.Recv)
			for _, a := range n.Args {
				walk(a)
			}
		case *sql.Not:
			walk(n.Expr)
		case *sql.Neg:
			walk(n.Expr)
		case *sql.Binary:
			walk(n.L)
			walk(n.R)
		case *sql.FuncCall:
			if n.IsAggregate() {
				info.HasAggregate = true
			}
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return info
}

// ReadsSummaries reports whether any of the expressions reads a $
// variable: a Select is S, and a Join is J, exactly when its predicate
// does. It allocates nothing.
func ReadsSummaries(exprs ...sql.Expr) bool {
	for _, e := range exprs {
		if readsSummaries(e) {
			return true
		}
	}
	return false
}

func readsSummaries(e sql.Expr) bool {
	switch n := e.(type) {
	case *sql.DollarRef:
		return true
	case *sql.MethodCall:
		return readsSummaries(n.Recv) || ReadsSummaries(n.Args...)
	case *sql.Binary:
		return readsSummaries(n.L) || readsSummaries(n.R)
	case *sql.Not:
		return readsSummaries(n.Expr)
	case *sql.Neg:
		return readsSummaries(n.Expr)
	case *sql.FuncCall:
		return ReadsSummaries(n.Args...)
	}
	return false
}

// ClassifierPredicate is the indexable predicate shape
// "$.getSummaryObject(I).getLabelValue(L) <op> constant".
type ClassifierPredicate struct {
	Alias    string
	Instance string
	Label    string
	Op       index.CmpOp
	Constant int
}

// MatchClassifierPredicate recognizes the Summary-BTree's target query
// shape (Section 4.1), accepting the constant on either side.
func MatchClassifierPredicate(e sql.Expr) (*ClassifierPredicate, bool) {
	b, ok := e.(*sql.Binary)
	if !ok || !b.Op.IsComparison() || b.Op == sql.OpLike || b.Op == sql.OpNe {
		return nil, false
	}
	// Normalize: method chain on the left, constant on the right.
	l, r, op := b.L, b.R, b.Op
	if _, isLit := intConstant(l); isLit {
		l, r = r, l
		op = flipCmp(op)
	}
	constant, ok := intConstant(r)
	if !ok {
		return nil, false
	}
	alias, instance, label, ok := matchLabelChain(l)
	if !ok {
		return nil, false
	}
	var iop index.CmpOp
	switch op {
	case sql.OpEq:
		iop = index.OpEq
	case sql.OpLt:
		iop = index.OpLt
	case sql.OpLe:
		iop = index.OpLe
	case sql.OpGt:
		iop = index.OpGt
	case sql.OpGe:
		iop = index.OpGe
	default:
		return nil, false
	}
	return &ClassifierPredicate{Alias: alias, Instance: instance, Label: label,
		Op: iop, Constant: constant}, true
}

// intConstant folds an integer literal, possibly under arithmetic
// negation (the parser represents "-10" as Neg(Literal 10)), so
// predicates over shifted label domains match the index shape.
func intConstant(e sql.Expr) (int, bool) {
	switch v := e.(type) {
	case *sql.Literal:
		if v.Value.Kind != model.KindInt {
			return 0, false
		}
		return int(v.Value.Int), true
	case *sql.Neg:
		if lit, ok := v.Expr.(*sql.Literal); ok && lit.Value.Kind == model.KindInt {
			return -int(lit.Value.Int), true
		}
	}
	return 0, false
}

// MatchLabelValueExpr recognizes the sort-key shape
// "$.getSummaryObject(I).getLabelValue(L)" (for order-elimination).
func MatchLabelValueExpr(e sql.Expr) (alias, instance, label string, ok bool) {
	return matchLabelChain(e)
}

func matchLabelChain(e sql.Expr) (alias, instance, label string, ok bool) {
	outer, isCall := e.(*sql.MethodCall)
	if !isCall || !strings.EqualFold(outer.Name, "getLabelValue") || len(outer.Args) != 1 {
		return "", "", "", false
	}
	labelLit, isLit := outer.Args[0].(*sql.Literal)
	if !isLit || labelLit.Value.Kind != model.KindText {
		return "", "", "", false
	}
	inner, isCall := outer.Recv.(*sql.MethodCall)
	if !isCall || !strings.EqualFold(inner.Name, "getSummaryObject") || len(inner.Args) != 1 {
		return "", "", "", false
	}
	instLit, isLit := inner.Args[0].(*sql.Literal)
	if !isLit || instLit.Value.Kind != model.KindText {
		return "", "", "", false
	}
	dollar, isDollar := inner.Recv.(*sql.DollarRef)
	if !isDollar {
		return "", "", "", false
	}
	return strings.ToLower(dollar.Qualifier), instLit.Value.Text, labelLit.Value.Text, true
}

func flipCmp(op sql.BinaryOp) sql.BinaryOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	default:
		return op
	}
}

// MatchEquiJoin recognizes "a.x = b.y" between two different aliases,
// returning both column references.
func MatchEquiJoin(e sql.Expr, r *AliasResolver) (left, right *sql.ColumnRef, ok bool) {
	b, isBin := e.(*sql.Binary)
	if !isBin || b.Op != sql.OpEq {
		return nil, nil, false
	}
	lc, lok := b.L.(*sql.ColumnRef)
	rc, rok := b.R.(*sql.ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	la := strings.ToLower(lc.Qualifier)
	ra := strings.ToLower(rc.Qualifier)
	if la == "" && r != nil {
		la = r.OwnerOf(lc.Name)
	}
	if ra == "" && r != nil {
		ra = r.OwnerOf(rc.Name)
	}
	if la == "" || ra == "" || la == ra {
		return nil, nil, false
	}
	return lc, rc, true
}

package exec

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// Evaluator binds sql.Expr trees against a schema (bind.go) and holds
// the semantics the bound closures share. It carries the annotation
// lookup used by containsSingle/containsUnion raw-text search and by
// cluster re-election.
type Evaluator struct {
	Schema *model.Schema
	Lookup model.AnnotationLookup
	// Split is where the inner input's columns start in Schema when it
	// is a join's concatenated schema, and 0 outside join predicates.
	// Bound against a split, an expression runs on a join probe's pair
	// row: columns at or past Split read Row.Inner, and x.$ reads the
	// summary set of the side whose qualifiers include x.
	Split int
}

// result is the evaluator's value domain: a relational value, a summary
// set ($), or a single summary object.
type result struct {
	val model.Value
	set model.SummarySet
	obj *model.SummaryObject
	// kind: 0 = value, 1 = set, 2 = object, 3 = null-object (missing
	// getSummaryObject result, propagates NULL through method chains).
	kind int
}

func valueResult(v model.Value) result { return result{val: v} }

// resolveValue narrows an evaluator result to a relational value.
// Summary sets/objects are not first-class SQL values: reaching the top
// of an expression with one is an error.
func resolveValue(e sql.Expr, r result) (model.Value, error) {
	switch r.kind {
	case 0:
		return r.val, nil
	case 3:
		return model.Null(), nil
	default:
		return model.Value{}, fmt.Errorf("exec: expression %s yields a summary %s, not a value",
			e, map[int]string{1: "set", 2: "object"}[r.kind])
	}
}

// negValue applies unary minus.
func negValue(v model.Value) (result, error) {
	switch v.Kind {
	case model.KindInt:
		return valueResult(model.NewInt(-v.Int)), nil
	case model.KindFloat:
		return valueResult(model.NewFloat(-v.Float)), nil
	case model.KindNull:
		return valueResult(model.Null()), nil
	default:
		return result{}, fmt.Errorf("exec: cannot negate %s", v.Kind)
	}
}

// applyBinary applies a non-boolean binary operator to two already
// evaluated operands: NULL-comparisons collapse to false, division by
// zero yields NULL, text + text concatenates, LIKE is case-insensitive.
func applyBinary(op sql.BinaryOp, l, r model.Value) (result, error) {
	if op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return valueResult(model.NewBool(false)), nil
		}
		if op == sql.OpLike {
			if l.Kind != model.KindText || r.Kind != model.KindText {
				return result{}, fmt.Errorf("exec: LIKE requires text operands")
			}
			return valueResult(model.NewBool(matchLike(l.Text, r.Text))), nil
		}
		c, err := l.Compare(r)
		if err != nil {
			return result{}, err
		}
		var b bool
		switch op {
		case sql.OpEq:
			b = c == 0
		case sql.OpNe:
			b = c != 0
		case sql.OpLt:
			b = c < 0
		case sql.OpLe:
			b = c <= 0
		case sql.OpGt:
			b = c > 0
		case sql.OpGe:
			b = c >= 0
		}
		return valueResult(model.NewBool(b)), nil
	}

	// Arithmetic.
	if l.IsNull() || r.IsNull() {
		return valueResult(model.Null()), nil
	}
	if op == sql.OpAdd && l.Kind == model.KindText && r.Kind == model.KindText {
		return valueResult(model.NewText(l.Text + r.Text)), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return result{}, fmt.Errorf("exec: %s requires numeric operands, got %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == model.KindInt && r.Kind == model.KindInt {
		a, b := l.Int, r.Int
		switch op {
		case sql.OpAdd:
			return valueResult(model.NewInt(a + b)), nil
		case sql.OpSub:
			return valueResult(model.NewInt(a - b)), nil
		case sql.OpMul:
			return valueResult(model.NewInt(a * b)), nil
		case sql.OpDiv:
			if b == 0 {
				return valueResult(model.Null()), nil
			}
			return valueResult(model.NewInt(a / b)), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case sql.OpAdd:
		return valueResult(model.NewFloat(a + b)), nil
	case sql.OpSub:
		return valueResult(model.NewFloat(a - b)), nil
	case sql.OpMul:
		return valueResult(model.NewFloat(a * b)), nil
	case sql.OpDiv:
		if b == 0 {
			return valueResult(model.Null()), nil
		}
		return valueResult(model.NewFloat(a / b)), nil
	}
	return result{}, fmt.Errorf("exec: unsupported binary op %s", op)
}

// summaryMethod is one Section 3.1 manipulation function. Bind resolves
// the method by its lower-cased name once per query; call applies it to
// an evaluated receiver and arguments. nargs is the exact argument
// count; 0 means the arguments are not inspected and -1 means one or
// more text keywords, which search takes in place of call.
//
// Neither call nor search retains or writes its arguments: a call whose
// arguments are all literals is handed the same slice on every row.
// The scalar functions keep the same contract.
type summaryMethod struct {
	nargs  int
	call   func(ev *Evaluator, recv result, args []model.Value) result
	search func(ev *Evaluator, recv result, keywords []string) result
}

func intResult(n int) result     { return valueResult(model.NewInt(int64(n))) }
func textResult(s string) result { return valueResult(model.NewText(s)) }

// intOrNull and textOrNull map an accessor's out-of-range, wrong-type or
// unknown-label error to SQL NULL (predicates over it collapse to
// false).
func intOrNull(n int, err error) result {
	if err != nil {
		return valueResult(model.Null())
	}
	return intResult(n)
}

func textOrNull(s string, err error) result {
	if err != nil {
		return valueResult(model.Null())
	}
	return textResult(s)
}

func argInt(args []model.Value) int { return int(args[0].AsInt()) }

// keywords returns a keyword method's arguments as text, or the error
// of the first that is not text.
func keywords(method string, args []model.Value) ([]string, error) {
	kws := make([]string, len(args))
	for i, a := range args {
		if a.Kind != model.KindText {
			return nil, fmt.Errorf("exec: %s keywords must be text", method)
		}
		kws[i] = a.Text
	}
	return kws, nil
}

// setMethods are the functions callable on a summary set ($).
var setMethods = map[string]summaryMethod{
	"getsize": {nargs: 0, call: func(_ *Evaluator, r result, _ []model.Value) result {
		return intResult(r.set.Size())
	}},
	"getsummaryobject": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		var obj *model.SummaryObject
		if args[0].Kind == model.KindText {
			obj = r.set.Get(args[0].Text)
		} else {
			obj = r.set.At(argInt(args))
		}
		if obj == nil {
			return result{kind: 3}
		}
		return result{obj: obj, kind: 2}
	}},
}

// objectMethods are the functions callable on one summary object.
var objectMethods = map[string]summaryMethod{
	"getsummarytype": {nargs: 0, call: func(_ *Evaluator, r result, _ []model.Value) result {
		return textResult(r.obj.GetSummaryType())
	}},
	"getsummaryname": {nargs: 0, call: func(_ *Evaluator, r result, _ []model.Value) result {
		return textResult(r.obj.GetSummaryName())
	}},
	"getsize": {nargs: 0, call: func(_ *Evaluator, r result, _ []model.Value) result {
		return intResult(r.obj.Size())
	}},
	"gettotalcount": {nargs: 0, call: func(_ *Evaluator, r result, _ []model.Value) result {
		return intResult(r.obj.TotalCount())
	}},
	"getlabelname": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		return textOrNull(r.obj.GetLabelName(argInt(args)))
	}},
	"getlabelvalue": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		if args[0].Kind == model.KindText {
			return intOrNull(r.obj.GetLabelValue(args[0].Text))
		}
		return intOrNull(r.obj.GetLabelValueAt(argInt(args)))
	}},
	"getsnippet": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		return textOrNull(r.obj.GetSnippet(argInt(args)))
	}},
	"getrepresentative": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		return textOrNull(r.obj.GetRepresentative(argInt(args)))
	}},
	"getgroupsize": {nargs: 1, call: func(_ *Evaluator, r result, args []model.Value) result {
		return intOrNull(r.obj.GetGroupSize(argInt(args)))
	}},
	"containssingle": {nargs: -1, search: func(ev *Evaluator, r result, kws []string) result {
		return valueResult(model.NewBool(r.obj.ContainsSingle(ev.Lookup, kws...)))
	}},
	"containsunion": {nargs: -1, search: func(ev *Evaluator, r result, kws []string) result {
		return valueResult(model.NewBool(r.obj.ContainsUnion(ev.Lookup, kws...)))
	}},
}

// scalarFuncs are the non-aggregate SQL functions, keyed by lower-cased
// name. Like a summaryMethod, none retains or writes its arguments.
var scalarFuncs = map[string]func(args []model.Value) (result, error){
	"lower": func(args []model.Value) (result, error) {
		if len(args) != 1 {
			return result{}, fmt.Errorf("exec: LOWER expects 1 argument")
		}
		return textResult(strings.ToLower(args[0].String())), nil
	},
	"upper": func(args []model.Value) (result, error) {
		if len(args) != 1 {
			return result{}, fmt.Errorf("exec: UPPER expects 1 argument")
		}
		return textResult(strings.ToUpper(args[0].String())), nil
	},
	"length": func(args []model.Value) (result, error) {
		if len(args) != 1 {
			return result{}, fmt.Errorf("exec: LENGTH expects 1 argument")
		}
		return intResult(len(args[0].String())), nil
	},
	"abs": func(args []model.Value) (result, error) {
		if len(args) != 1 || !args[0].IsNumeric() {
			return result{}, fmt.Errorf("exec: ABS expects 1 numeric argument")
		}
		if args[0].Kind == model.KindInt {
			n := args[0].Int
			if n < 0 {
				n = -n
			}
			return valueResult(model.NewInt(n)), nil
		}
		x := args[0].Float
		if x < 0 {
			x = -x
		}
		return valueResult(model.NewFloat(x)), nil
	},
}

// matchLike implements SQL LIKE with % (any run) and _ (any one char),
// case-insensitively (the common scientific-DB configuration).
func matchLike(s, pattern string) bool {
	s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on '%'.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sql"
)

// Builder translates parsed SELECT statements into canonical logical
// plans: scans (with per-table summary-effect projection), a left-deep
// join tree carrying the predicates that connect its inputs (⋈, or J
// where one reads summaries), all remaining WHERE conjuncts as σ/S
// nodes ABOVE the joins, then group-by, sort, project,
// and limit. The canonical plan is deliberately unoptimized — it is the
// "optimization disabled" baseline of Figures 14 and 15; the optimizer
// rewrites it using the rules of Section 5.
type Builder struct {
	Cat *catalog.Catalog
}

// Build translates stmt. It also returns the alias resolver the
// optimizer reuses for rule preconditions.
func (b *Builder) Build(stmt *sql.SelectStmt) (Node, *AliasResolver, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("plan: query needs a FROM clause")
	}
	if n := sql.CountPlaceholders(stmt); n > 0 {
		return nil, nil, fmt.Errorf("plan: statement has %d unbound parameter(s); bind them through a prepared statement", n)
	}

	// Resolve tables and aliases.
	type source struct {
		ref   sql.TableRef
		table *catalog.Table
		alias string
		on    sql.Expr // explicit JOIN ... ON predicate
	}
	var sources []source
	resolver := &AliasResolver{Schemas: map[string]*model.Schema{}}
	addSource := func(ref sql.TableRef, on sql.Expr) error {
		t, err := b.Cat.Table(ref.Table)
		if err != nil {
			return err
		}
		alias := strings.ToLower(ref.EffectiveAlias())
		if _, dup := resolver.Schemas[alias]; dup {
			return fmt.Errorf("plan: duplicate table alias %q", alias)
		}
		resolver.Schemas[alias] = t.Schema.Rename(alias)
		sources = append(sources, source{ref: ref, table: t, alias: alias, on: on})
		return nil
	}
	for _, ref := range stmt.From {
		if err := addSource(ref, nil); err != nil {
			return nil, nil, err
		}
	}
	for _, jc := range stmt.Joins {
		if err := addSource(jc.Right, jc.On); err != nil {
			return nil, nil, err
		}
	}
	if err := checkRefs(stmt, resolver); err != nil {
		return nil, nil, err
	}

	// Classify WHERE conjuncts.
	var (
		joinPreds    []sql.Expr // two-alias data predicates -> into join nodes
		sumJoinPreds []sql.Expr // two-alias summary predicates -> J
		topData      []sql.Expr // everything else, data-based
		topSummary   []sql.Expr // everything else, summary-based
	)
	for _, c := range Conjuncts(stmt.Where) {
		multi, summary := len(Analyze(c, resolver).Aliases) >= 2, ReadsSummaries(c)
		switch {
		case summary && multi:
			sumJoinPreds = append(sumJoinPreds, c)
		case summary:
			topSummary = append(topSummary, c)
		case multi:
			joinPreds = append(joinPreds, c)
		default:
			topData = append(topData, c)
		}
	}

	// Kept-column analysis per alias (for summary-effect projection).
	kept := b.keptColumns(stmt, resolver)

	// Per-source access paths. The summary-effect projection is needed
	// only when the query drops columns AND the table actually has
	// column-attached annotations — otherwise every annotation survives
	// any projection and the node would be a per-row no-op that blocks
	// index access paths.
	makeLeaf := func(s source) Node {
		var n Node = NewScan(s.table, s.alias)
		if stmt.Propagate {
			cols := kept[s.alias]
			if len(cols) < s.table.Schema.Len() && s.table.ColAttachedAnns > 0 {
				n = &SummaryProject{Child: n, Alias: s.alias, Kept: cols}
			}
		}
		return n
	}

	// Left-deep join tree in FROM/JOIN order. Each time a new source
	// enters, its JOIN … ON conjuncts and the WHERE predicates
	// connecting it to the aliases already in the tree go into one
	// join, data predicates first. A join whose predicate reads
	// summaries is J: mixed predicates (a data equi-join plus a
	// summary-based comparison, as in the version-diff query of Section
	// 3.2) stay together in it, because both parts must see the
	// PRE-merge per-side summary sets — after the merge, r.$ and s.$
	// would both resolve to the combined set and a difference predicate
	// would be vacuous.
	var root Node = makeLeaf(sources[0])
	inTree := map[string]bool{sources[0].alias: true}
	connecting := func(preds *[]sql.Expr, incoming string) []sql.Expr {
		var out []sql.Expr
		rest := (*preds)[:0]
		for _, p := range *preds {
			if predConnects(p, resolver, inTree, incoming) {
				out = append(out, p)
			} else {
				rest = append(rest, p)
			}
		}
		*preds = rest
		return out
	}
	for _, s := range sources[1:] {
		on := append(Conjuncts(s.on), connecting(&joinPreds, s.alias)...)
		on = append(on, connecting(&sumJoinPreds, s.alias)...)
		root = NewJoin(root, makeLeaf(s), AndAll(on))
		inTree[s.alias] = true
	}
	// Any leftover multi-alias predicates (e.g. referencing aliases in
	// non-adjacent join steps) go to the top.
	topData = append(topData, joinPreds...)
	topSummary = append(topSummary, sumJoinPreds...)

	// Canonical: selections above the join tree, the data σ below S.
	if p := AndAll(topData); p != nil {
		root = &Select{Child: root, Pred: p}
	}
	if p := AndAll(topSummary); p != nil {
		root = &Select{Child: root, Pred: p}
	}

	// Grouping and aggregation.
	fromOrder := make([]string, len(sources))
	for i, s := range sources {
		fromOrder[i] = s.alias
	}
	items := expandStars(stmt.Items, fromOrder, resolver)
	orderKeys := make([]sql.Expr, len(stmt.OrderBy))
	for i := range stmt.OrderBy {
		orderKeys[i] = stmt.OrderBy[i].Expr
	}
	hasAgg := stmt.Having != nil && Analyze(stmt.Having, resolver).HasAggregate
	for _, it := range items {
		if Analyze(it.Expr, resolver).HasAggregate {
			hasAgg = true
		}
	}
	for _, k := range orderKeys {
		if Analyze(k, resolver).HasAggregate {
			hasAgg = true
		}
	}
	if hasAgg || len(stmt.GroupBy) > 0 {
		gb := &GroupByNode{Child: root, Keys: stmt.GroupBy}
		rw := newAggRewriter(stmt.GroupBy)
		for i := range items {
			items[i].Expr = rw.rewrite(items[i].Expr)
		}
		for i := range orderKeys {
			orderKeys[i] = rw.rewrite(orderKeys[i])
		}
		having := stmt.Having
		if having != nil {
			having = rw.rewrite(having)
		}
		gb.Aggs = rw.aggs
		gb.schema = exec.GroupBySchema(root.Schema(), gb.Keys, gb.Aggs)
		root = gb
		// HAVING filters groups; over the rewritten expression it is a
		// plain selection on the aggregation output.
		if having != nil {
			root = &Select{Child: root, Pred: having}
		}
	} else if stmt.Having != nil {
		return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
	}

	// Sort.
	if len(stmt.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(stmt.OrderBy))
		summaryBased := false
		for i, oi := range stmt.OrderBy {
			keys[i] = exec.SortKey{Expr: orderKeys[i], Desc: oi.Desc}
			if ReadsSummaries(orderKeys[i]) {
				summaryBased = true
			}
		}
		root = &SortNode{Child: root, Keys: keys, SummaryBased: summaryBased}
	}

	// Final projection (identity projections are skipped).
	exprs := make([]sql.Expr, len(items))
	out := &model.Schema{}
	for i, it := range items {
		exprs[i] = it.Expr
		name, qual := it.Alias, ""
		if cr, ok := it.Expr.(*sql.ColumnRef); ok {
			if name == "" {
				name = cr.Name
			}
			qual = cr.Qualifier
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		kind := model.KindText
		if cr, ok := it.Expr.(*sql.ColumnRef); ok {
			if idx, err := root.Schema().ColIndex(cr.Qualifier, cr.Name); err == nil {
				kind = root.Schema().Col(idx).Kind
			}
		}
		out.Columns = append(out.Columns, model.Column{Name: name, Kind: kind})
		out.Qualifiers = append(out.Qualifiers, qual)
	}
	if !isIdentityProjection(exprs, root.Schema()) {
		root = &ProjectNode{Child: root, Exprs: exprs, Out: out}
	}

	if stmt.Distinct {
		root = &DistinctNode{Child: root}
	}

	if stmt.Limit >= 0 {
		root = &LimitNode{Child: root, N: stmt.Limit}
	}
	return root, resolver, nil
}

// checkRefs rejects the references no plan can resolve: a column, x.$
// or x.* whose qualifier names no FROM alias, and a bare $ in a
// predicate a join evaluates — every JOIN … ON conjunct and every WHERE
// conjunct over two or more aliases — where it could mean either
// side's summary set.
func checkRefs(stmt *sql.SelectStmt, r *AliasResolver) error {
	bad := ""
	check := func(qualifier, ref string) {
		if _, ok := r.Schemas[strings.ToLower(qualifier)]; bad == "" && qualifier != "" && !ok {
			bad = ref
		}
	}
	sql.WalkExprs(stmt, func(e sql.Expr) {
		switch n := e.(type) {
		case *sql.ColumnRef:
			check(n.Qualifier, n.String())
		case *sql.DollarRef:
			check(n.Qualifier, n.String())
		}
	})
	for _, it := range stmt.Items {
		if it.Star {
			check(it.StarQualifier, it.StarQualifier+".*")
		}
	}
	if bad != "" {
		return fmt.Errorf("plan: %s names no table alias of the FROM clause", bad)
	}
	preds := Conjuncts(stmt.Where)
	where := len(preds)
	for _, jc := range stmt.Joins {
		preds = append(preds, Conjuncts(jc.On)...)
	}
	for i, c := range preds {
		if info := Analyze(c, r); info.BareDollar && (i >= where || len(info.Aliases) >= 2) {
			return fmt.Errorf("plan: bare $ in join predicate %s: qualify it with the alias whose summaries it reads", c)
		}
	}
	return nil
}

// predConnects reports whether every alias of p is either already in the
// join tree or the incoming alias, and p actually touches the incoming
// alias.
func predConnects(p sql.Expr, r *AliasResolver, inTree map[string]bool, incoming string) bool {
	info := Analyze(p, r)
	touchesIncoming := false
	for a := range info.Aliases {
		if a == incoming {
			touchesIncoming = true
			continue
		}
		if !inTree[a] {
			return false
		}
	}
	return touchesIncoming
}

// keptColumns computes, per alias, the (lower-case) columns the query
// references anywhere. A star over an alias keeps all its columns.
func (b *Builder) keptColumns(stmt *sql.SelectStmt, r *AliasResolver) map[string][]string {
	keptSet := map[string]map[string]bool{}
	for a := range r.Schemas {
		keptSet[a] = map[string]bool{}
	}
	keepAll := func(alias string) {
		s, ok := r.Schemas[alias]
		if !ok {
			return
		}
		for _, c := range s.Columns {
			keptSet[alias][strings.ToLower(c.Name)] = true
		}
	}
	var visit func(e sql.Expr)
	visit = func(e sql.Expr) {
		switch n := e.(type) {
		case *sql.ColumnRef:
			alias := strings.ToLower(n.Qualifier)
			if alias == "" {
				alias = r.OwnerOf(n.Name)
			}
			if alias != "" {
				keptSet[alias][strings.ToLower(n.Name)] = true
			}
		case *sql.MethodCall:
			visit(n.Recv)
			for _, a := range n.Args {
				visit(a)
			}
		case *sql.Not:
			visit(n.Expr)
		case *sql.Neg:
			visit(n.Expr)
		case *sql.Binary:
			visit(n.L)
			visit(n.R)
		case *sql.FuncCall:
			for _, a := range n.Args {
				visit(a)
			}
		}
	}
	for _, it := range stmt.Items {
		if it.Star {
			if it.StarQualifier != "" {
				keepAll(strings.ToLower(it.StarQualifier))
			} else {
				for a := range r.Schemas {
					keepAll(a)
				}
			}
			continue
		}
		visit(it.Expr)
	}
	if stmt.Where != nil {
		visit(stmt.Where)
	}
	for _, jc := range stmt.Joins {
		visit(jc.On)
	}
	for _, g := range stmt.GroupBy {
		visit(g)
	}
	for _, o := range stmt.OrderBy {
		visit(o.Expr)
	}
	out := map[string][]string{}
	for alias, set := range keptSet {
		cols := make([]string, 0, len(set))
		for c := range set {
			cols = append(cols, c)
		}
		out[alias] = cols
	}
	return out
}

// expandStars replaces star items with explicit column references,
// expanding unqualified stars in FROM order.
func expandStars(items []sql.SelectItem, fromOrder []string, r *AliasResolver) []sql.SelectItem {
	var out []sql.SelectItem
	expandAlias := func(alias string) {
		schema, ok := r.Schemas[alias]
		if !ok {
			return
		}
		for _, c := range schema.Columns {
			out = append(out, sql.SelectItem{Expr: &sql.ColumnRef{Qualifier: alias, Name: c.Name}})
		}
	}
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		if it.StarQualifier != "" {
			expandAlias(strings.ToLower(it.StarQualifier))
			continue
		}
		for _, alias := range fromOrder {
			expandAlias(alias)
		}
	}
	return out
}

// isIdentityProjection reports whether exprs reproduce the child schema
// exactly (same columns in order), making the projection a no-op.
func isIdentityProjection(exprs []sql.Expr, child *model.Schema) bool {
	if len(exprs) != child.Len() {
		return false
	}
	for i, e := range exprs {
		cr, ok := e.(*sql.ColumnRef)
		if !ok {
			return false
		}
		if !strings.EqualFold(cr.Name, child.Col(i).Name) {
			return false
		}
		if cr.Qualifier != "" && !strings.EqualFold(cr.Qualifier, child.Qualifiers[i]) {
			return false
		}
	}
	return true
}

// aggRewriter extracts aggregate calls and rewrites expressions over the
// group-by output.
type aggRewriter struct {
	groupKeys []sql.Expr
	aggs      []exec.AggSpec
	byString  map[string]string // agg expr string -> output name
}

func newAggRewriter(groupKeys []sql.Expr) *aggRewriter {
	return &aggRewriter{groupKeys: groupKeys, byString: map[string]string{}}
}

func (rw *aggRewriter) rewrite(e sql.Expr) sql.Expr {
	// A group key used verbatim maps to its output column.
	for i, k := range rw.groupKeys {
		if e.String() == k.String() {
			if cr, ok := k.(*sql.ColumnRef); ok {
				return &sql.ColumnRef{Qualifier: cr.Qualifier, Name: cr.Name}
			}
			return &sql.ColumnRef{Name: fmt.Sprintf("key%d", i)}
		}
	}
	switch n := e.(type) {
	case *sql.FuncCall:
		if n.IsAggregate() {
			key := n.String()
			name, ok := rw.byString[key]
			if !ok {
				name = fmt.Sprintf("agg%d", len(rw.aggs))
				rw.byString[key] = name
				spec := exec.AggSpec{Func: strings.ToLower(n.Name), Star: n.Star, Name: name}
				if !n.Star && len(n.Args) > 0 {
					spec.Arg = n.Args[0]
				}
				rw.aggs = append(rw.aggs, spec)
			}
			return &sql.ColumnRef{Name: name}
		}
		args := make([]sql.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rw.rewrite(a)
		}
		return &sql.FuncCall{Name: n.Name, Args: args}
	case *sql.Binary:
		return &sql.Binary{Op: n.Op, L: rw.rewrite(n.L), R: rw.rewrite(n.R)}
	case *sql.Not:
		return &sql.Not{Expr: rw.rewrite(n.Expr)}
	case *sql.Neg:
		return &sql.Neg{Expr: rw.rewrite(n.Expr)}
	default:
		return e
	}
}

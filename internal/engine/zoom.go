package engine

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sql"
)

// ZoomResult is one tuple's zoom-in answer: the raw annotations behind
// one of its summary objects (optionally restricted to a classifier
// label or cluster group).
type ZoomResult struct {
	TupleOID    int64
	Instance    string
	Annotations []*model.Annotation
}

// ZoomIn retrieves the raw annotations contributing to the named summary
// instance of every tuple satisfying where (which may be empty). label
// restricts classifier objects to one class label's elements — the
// follow-up command the case study's Q1 uses to pull only the
// disease-related annotations of the reported birds.
func (db *DB) ZoomIn(table, instance, label, where string) ([]ZoomResult, error) {
	stmt := &sql.ZoomStmt{Table: table, Instance: instance, Label: label}
	if where != "" {
		e, err := sql.ParseExpr(where)
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return db.zoomContext(context.Background(), stmt)
}

// zoomContext runs a ZOOM IN under ctx, through the read gate.
func (db *DB) zoomContext(ctx context.Context, stmt *sql.ZoomStmt) (zooms []ZoomResult, err error) {
	err = db.read(ctx, false, func(ctx context.Context, ep *dbEpoch) (int, error) {
		var zerr error
		zooms, zerr = db.zoomEpoch(ctx, ep, stmt)
		return 0, zerr
	})
	return zooms, err
}

// zoomEpoch answers a ZOOM IN at a pinned epoch. The annotation fetches
// behind each summary read the heap, so the loop is guarded against
// injected pager faults and ticks ctx between tuples.
func (db *DB) zoomEpoch(ctx context.Context, ep *dbEpoch, stmt *sql.ZoomStmt) (zooms []ZoomResult, err error) {
	defer recoverInto("Zoom", &err)
	t, err := ep.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if t.Instance(stmt.Instance) == nil {
		return nil, fmt.Errorf("engine: table %q has no instance %q", stmt.Table, stmt.Instance)
	}
	sel := &sql.SelectStmt{
		Items:     []sql.SelectItem{{Star: true}},
		From:      []sql.TableRef{{Table: stmt.Table}},
		Where:     stmt.Where,
		Limit:     -1,
		Propagate: true,
	}
	res, _, err := db.runSelect(ctx, ep, sel, "", nil)
	if err != nil {
		return nil, err
	}
	var out []ZoomResult
	for _, row := range res.Rows {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		obj := row.Tuple.Summaries.Get(stmt.Instance)
		if obj == nil {
			continue
		}
		ids := obj.ElementIDs()
		if stmt.Label != "" {
			if li := obj.RepIndexByLabel(stmt.Label); li >= 0 {
				ids = append([]int64(nil), obj.Reps[li].Elements...)
			} else {
				ids = nil
			}
		}
		zr := ZoomResult{TupleOID: row.Tuple.OID, Instance: obj.InstanceID}
		for _, id := range ids {
			if a, ok := ep.cat.Anns.Get(id); ok {
				zr.Annotations = append(zr.Annotations, a)
			}
		}
		out = append(out, zr)
	}
	return out, nil
}

// zoomResult adapts zoom output to the generic Result shape: one row
// per (tuple, annotation) with columns (tuple_oid, annotation_id, text).
func zoomResult(zooms []ZoomResult) *Result {
	schema := model.NewSchema("",
		model.Column{Name: "tuple_oid", Kind: model.KindInt},
		model.Column{Name: "annotation_id", Kind: model.KindInt},
		model.Column{Name: "author", Kind: model.KindText},
		model.Column{Name: "text", Kind: model.KindText},
	)
	res := &Result{
		Columns: []string{"tuple_oid", "annotation_id", "author", "text"},
		Schema:  schema,
	}
	for _, z := range zooms {
		for _, a := range z.Annotations {
			res.Rows = append(res.Rows, &exec.Row{Tuple: model.NewTuple(z.TupleOID,
				model.NewInt(z.TupleOID), model.NewInt(a.ID),
				model.NewText(a.Author), model.NewText(a.Text))})
		}
	}
	return res
}

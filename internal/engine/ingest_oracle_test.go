package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/mining/bayes"
	"repro/internal/model"
)

// The reference the one ingest routine is checked against: the
// per-annotation classifier fold of "Adding Annotation — Update"
// (Section 4.1.2) as the engine ran it before net-delta maintenance
// became the only path. It is the pure part only — classify, leaf plus
// ancestors, sorted-set insert, count — with no index or statistics
// calls, so it says what a classifier object must hold and nothing about
// how the engine gets there.

// oracleAbsorbIntoClassifier folds one annotation into a classifier
// object.
func oracleAbsorbIntoClassifier(si *catalog.SummaryInstance, clf *bayes.Classifier,
	obj *model.SummaryObject, ann *model.Annotation) {
	leaves := si.LeafLabels()
	label := leaves[len(leaves)-1] // default to the catch-all leaf
	if clf != nil {
		label = clf.Classify(ann.Text)
	}
	// The leaf label plus every ancestor accumulates the annotation
	// (hierarchical instances; flat ones have no ancestors).
	touched := append([]string{label}, si.Ancestors(label)...)
	for _, l := range touched {
		li := obj.RepIndexByLabel(l)
		if li < 0 {
			obj.Reps = append(obj.Reps, model.Rep{Label: l})
			li = len(obj.Reps) - 1
		}
		obj.Reps[li].Elements = insertSorted(obj.Reps[li].Elements, ann.ID)
		obj.Reps[li].Count = len(obj.Reps[li].Elements)
	}
}

// renderClassifier prints a classifier object's labels, counts and
// element sets (an emptied set and a never-filled one print alike).
func renderClassifier(obj *model.SummaryObject) string {
	var b strings.Builder
	for _, r := range obj.Reps {
		fmt.Fprintf(&b, "%s=%d%v;", r.Label, r.Count, r.Elements)
	}
	return b.String()
}

// checkClassifiersAgainstOracle compares every stored classifier object
// with the oracle's fold, one annotation at a time in arrival order, of
// the annotations the store holds for that tuple. Instances must have
// been linked before the table's first annotation (an instance linked
// later summarizes only what arrives after the link).
func checkClassifiersAgainstOracle(t *testing.T, db *DB) {
	t.Helper()
	db.FlushIngest()
	checked := 0
	for _, name := range db.cat.TableNames() {
		tbl, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Scan(func(_ heap.RID, tuple *model.Tuple) bool {
			anns := db.cat.Anns.ForTuple(tuple.OID)
			set := tbl.GetSummaries(tuple.OID)
			for _, si := range tbl.Instances {
				if si.Type != model.SummaryClassifier {
					continue
				}
				got := set.Get(si.Name)
				if got == nil {
					if len(anns) > 0 {
						t.Errorf("%s tuple %d: %d annotations but no %s object", name, tuple.OID, len(anns), si.Name)
					}
					continue
				}
				want := newEmptyObject(si, tuple.OID)
				for _, a := range anns {
					oracleAbsorbIntoClassifier(si, db.cat.Classifier(si.Name), want, a)
				}
				if g, w := renderClassifier(got), renderClassifier(want); g != w {
					t.Errorf("%s tuple %d %s:\n engine %s\n oracle %s", name, tuple.OID, si.Name, g, w)
				}
				checked++
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("oracle compared no classifier object")
	}
}

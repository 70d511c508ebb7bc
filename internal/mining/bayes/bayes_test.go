package bayes

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
)

// trainBirdClassifier builds the four-label classifier used throughout
// the paper's evaluation.
func trainBirdClassifier(t *testing.T) *Classifier {
	t.Helper()
	c := New("Disease", "Anatomy", "Behavior", "Other")
	train := map[string][]string{
		"Disease": {
			"the bird showed infection symptoms and parasites",
			"avian flu outbreak observed with sick individuals",
			"lesions and disease spreading in the colony",
			"virus detected in several specimens, illness confirmed",
		},
		"Anatomy": {
			"wingspan measured at two meters, long neck",
			"the beak is orange and the plumage grey",
			"body weight and skeletal structure of the specimen",
			"feathers molt and bone density measurements",
		},
		"Behavior": {
			"observed eating stonewort near the shore",
			"migration patterns start in early autumn",
			"nesting behavior and courtship display recorded",
			"flock forages at dawn and sings loudly",
		},
		"Other": {
			"photo uploaded from the field trip",
			"see the attached reference for details",
			"duplicate record of the same sighting",
			"general comment about the database entry",
		},
	}
	for label, texts := range train {
		for _, tx := range texts {
			if err := c.Train(label, tx); err != nil {
				t.Fatalf("Train: %v", err)
			}
		}
	}
	return c
}

func TestClassifyRecoversTrainingLabels(t *testing.T) {
	c := trainBirdClassifier(t)
	cases := map[string]string{
		"a sick bird with a spreading infection": "Disease",
		"the wingspan and beak were measured":    "Anatomy",
		"they were eating and foraging at dawn":  "Behavior",
		"uploaded a duplicate photo":             "Other",
	}
	for text, want := range cases {
		if got := c.Classify(text); got != want {
			t.Errorf("Classify(%q) = %q, want %q", text, got, want)
		}
	}
}

func TestLabelsOrderPreserved(t *testing.T) {
	c := New("B", "A", "C")
	got := c.Labels()
	if len(got) != 3 || got[0] != "B" || got[1] != "A" || got[2] != "C" {
		t.Errorf("Labels = %v", got)
	}
	got[0] = "mutated"
	if c.Labels()[0] != "B" {
		t.Error("Labels leaked internal slice")
	}
}

func TestTrainUnknownLabel(t *testing.T) {
	c := New("X")
	if err := c.Train("Y", "text"); err == nil {
		t.Error("training an unknown label should fail")
	}
}

func TestUntrainedClassifierFallsBackToLastLabel(t *testing.T) {
	c := New("Disease", "Other")
	if got := c.Classify("anything"); got != "Other" {
		t.Errorf("untrained Classify = %q, want Other", got)
	}
	empty := New()
	if got := empty.Classify("x"); got != "" {
		t.Errorf("no-label Classify = %q", got)
	}
}

func TestScoresCoverAllLabels(t *testing.T) {
	c := trainBirdClassifier(t)
	scores := c.Scores("infection in the wing")
	if len(scores) != 4 {
		t.Fatalf("Scores has %d entries", len(scores))
	}
	best, bestScore := "", -1e18
	for l, s := range scores {
		if s > bestScore {
			best, bestScore = l, s
		}
	}
	if got, _ := c.ClassifyWithScore("infection in the wing"); got != best {
		t.Errorf("ClassifyWithScore %q disagrees with Scores argmax %q", got, best)
	}
}

// The trained state round-trips through the cell encoding: Read rebuilds
// a model equal field for field (derived totals and vocabulary
// included), and the bytes are a pure function of the model.
func TestStateRoundTrip(t *testing.T) {
	c := trainBirdClassifier(t)
	if c.VocabularySize() == 0 {
		t.Fatal("empty vocabulary after training")
	}
	enc := c.Append(nil)
	restored, err := cell.Decode(enc, Read)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, c) {
		t.Fatal("decoded model differs from the trained one")
	}
	if again := restored.Append(nil); !bytes.Equal(again, enc) {
		t.Fatal("re-encoding the decoded model changed its bytes")
	}
	if restored.TrainedDocs() != c.TrainedDocs() ||
		restored.VocabularySize() != c.VocabularySize() {
		t.Fatalf("restored model shape differs: %d/%d docs, %d/%d vocab",
			restored.TrainedDocs(), c.TrainedDocs(),
			restored.VocabularySize(), c.VocabularySize())
	}
	labels := restored.Labels()
	if len(labels) != 4 || labels[0] != "Disease" {
		t.Errorf("labels: %v", labels)
	}
	// Identical posteriors on arbitrary inputs.
	for _, text := range []string{
		"sick bird with infection", "wingspan measured", "eating at dawn",
		"uploaded a photo", "completely unrelated words here",
	} {
		want := c.Scores(text)
		got := restored.Scores(text)
		for l, w := range want {
			if g := got[l]; g != w {
				t.Fatalf("%q label %s: %f != %f", text, l, g, w)
			}
		}
		if restored.Classify(text) != c.Classify(text) {
			t.Fatalf("classification differs for %q", text)
		}
	}
	// The restored model is still trainable.
	if err := restored.Train("Disease", "new outbreak report"); err != nil {
		t.Fatal(err)
	}
	if restored.TrainedDocs() != c.TrainedDocs()+1 {
		t.Error("restored model not trainable")
	}
}

// Read refuses what Append never writes, so no two inputs decode to one
// model: a repeated label, terms out of order or repeated, a zero count.
func TestReadRefusesNonCanonical(t *testing.T) {
	model := func(labels []string, terms ...string) []byte {
		b := cell.AppendStrings(nil, labels)
		for range labels {
			b = append(b, 1, byte(len(terms)/2))
			for i := 0; i < len(terms); i += 2 {
				b = append(cell.AppendString(b, terms[i]), terms[i+1][0]-'0')
			}
		}
		return b
	}
	if _, err := cell.Decode(model([]string{"A", "B"}, "ant", "2", "bee", "1"), Read); err != nil {
		t.Fatalf("canonical model refused: %v", err)
	}
	for name, b := range map[string][]byte{
		"duplicate label":    model([]string{"A", "A"}, "ant", "2"),
		"terms out of order": model([]string{"A"}, "bee", "1", "ant", "2"),
		"repeated term":      model([]string{"A"}, "ant", "1", "ant", "2"),
		"zero count":         model([]string{"A"}, "ant", "0"),
		"trailing bytes":     append(model([]string{"A"}, "ant", "1"), 0),
	} {
		if _, err := cell.Decode(b, Read); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// Property: classification is deterministic and total — every text gets
// exactly one of the configured labels.
func TestClassifyTotalAndDeterministic(t *testing.T) {
	c := trainBirdClassifier(t)
	valid := map[string]bool{"Disease": true, "Anatomy": true, "Behavior": true, "Other": true}
	rng := rand.New(rand.NewSource(9))
	vocabulary := strings.Fields("bird wing sick flu eat sing photo beak virus nest record dawn bone")
	for i := 0; i < 200; i++ {
		var words []string
		for n := rng.Intn(8) + 1; n > 0; n-- {
			words = append(words, vocabulary[rng.Intn(len(vocabulary))])
		}
		text := strings.Join(words, " ")
		l1, l2 := c.Classify(text), c.Classify(text)
		if l1 != l2 {
			t.Fatalf("nondeterministic: %q vs %q for %q", l1, l2, text)
		}
		if !valid[l1] {
			t.Fatalf("invalid label %q", l1)
		}
	}
}

// Property: adding more training data for a label increases its
// posterior for the trained text.
func TestTrainingShiftsPosterior(t *testing.T) {
	c := New("A", "B")
	c.Train("A", "alpha beta gamma")
	c.Train("B", "delta epsilon zeta")
	before := c.Scores("alpha alpha")["A"] - c.Scores("alpha alpha")["B"]
	for i := 0; i < 5; i++ {
		c.Train("A", "alpha alpha alpha")
	}
	after := c.Scores("alpha alpha")["A"] - c.Scores("alpha alpha")["B"]
	if after <= before {
		t.Errorf("posterior margin did not grow: %f -> %f", before, after)
	}
}

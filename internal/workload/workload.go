// Package workload generates the synthetic ornithological dataset the
// benchmarks and examples run on — a stand-in for the AKN database of
// the paper's evaluation (45,000 birds, 12 attributes, up to 9×10⁶ crowd
// annotations of 150–8,000 characters). Everything is produced from a
// seeded RNG, so runs are reproducible; scale is parametric, so the
// benchmark harness can sweep the paper's x-axes at laptop size.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
)

// Config parameterizes dataset generation.
type Config struct {
	Seed int64
	// Birds is the number of bird tuples (paper: 45,000).
	Birds int
	// AvgAnnotationsPerBird controls annotation volume (paper: 10–200).
	AvgAnnotationsPerBird int
	// SynonymsPerBird sizes the Synonyms table (paper: ~5, 225,000 rows).
	SynonymsPerBird int
	// LongAnnotationFraction is the share of annotations longer than
	// 1,000 characters (and therefore LSA-summarized). Negative means
	// none (zero selects the default).
	LongAnnotationFraction float64
	// AnnotateSynonymsFraction annotates that share of synonym tuples
	// with 1–2 behavior notes (they carry the TextSummary1 instance),
	// enabling two-sided summary-join predicates (Figure 15).
	AnnotateSynonymsFraction float64
	// Engine configures the built database; a zero PageCap becomes 64.
	Engine engine.Config
	// SkipSynonyms omits the Synonyms table for single-table workloads.
	SkipSynonyms bool
}

// WithDefaults fills zero fields with small defaults.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Birds <= 0 {
		c.Birds = 500
	}
	if c.AvgAnnotationsPerBird <= 0 {
		c.AvgAnnotationsPerBird = 10
	}
	if c.SynonymsPerBird <= 0 {
		c.SynonymsPerBird = 5
	}
	if c.LongAnnotationFraction == 0 {
		c.LongAnnotationFraction = 0.03
	}
	if c.Engine.PageCap <= 0 {
		c.Engine.PageCap = 64
	}
	return c
}

// Dataset is a built database plus bookkeeping the harness needs.
type Dataset struct {
	DB    *engine.DB
	Cfg   Config
	Birds []int64 // OIDs in insertion order
	Syns  []int64
	// Labels[i] counts annotations generated per category for bird i —
	// the generator's ground truth (the classifier may disagree).
	Labels []map[string]int
}

// Category vocabularies driving annotation text generation.
var categoryPhrases = map[string][]string{
	"Disease": {
		"the specimen shows signs of infection and visible lesions",
		"an avian flu outbreak affected this colony last season",
		"parasites were found under the wing feathers",
		"several sick individuals with spreading disease were reported",
		"veterinarians confirmed a virus in the sampled blood",
	},
	"Anatomy": {
		"the wingspan was measured at impressive length",
		"its beak is orange with a distinctive black tip",
		"plumage is grey with white streaks along the neck",
		"body weight and skeletal structure were documented",
		"molted feathers were collected for bone density analysis",
	},
	"Behavior": {
		"observed eating stonewort in the shallow lake",
		"migration began unusually early this autumn",
		"courtship display and nesting behavior were recorded",
		"the flock forages at dawn and sings loudly",
		"it was seen diving repeatedly near the reed beds",
	},
	"Other": {
		"photo uploaded from the weekend field trip",
		"this record duplicates an earlier sighting entry",
		"see the attached reference for full details",
		"general comment about the database entry quality",
		"location coordinates were corrected by a moderator",
	},
}

// Categories lists the classifier labels in their canonical order.
var Categories = []string{"Disease", "Anatomy", "Behavior", "Other"}

// TrainingSet returns labeled examples for the ClassBird1 classifier.
func TrainingSet() map[string][]string {
	out := make(map[string][]string, len(categoryPhrases))
	for label, phrases := range categoryPhrases {
		out[label] = append([]string(nil), phrases...)
	}
	return out
}

var (
	genera   = []string{"Anser", "Corvus", "Larus", "Falco", "Turdus", "Parus", "Anas", "Ardea"}
	families = []string{"Anatidae", "Corvidae", "Laridae", "Falconidae", "Turdidae", "Paridae", "Ardeidae"}
	habitats = []string{"wetland", "forest", "coastal", "grassland", "urban", "alpine"}
	regions  = []string{"Palearctic", "Nearctic", "Neotropic", "Afrotropic", "Indomalaya", "Australasia"}
	statuses = []string{"LC", "NT", "VU", "EN", "CR"}
)

// BirdsSchema returns the 12-attribute Birds schema of the evaluation.
func BirdsSchema() *model.Schema {
	return model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "sci_name", Kind: model.KindText},
		model.Column{Name: "common_name", Kind: model.KindText},
		model.Column{Name: "genus", Kind: model.KindText},
		model.Column{Name: "family", Kind: model.KindText},
		model.Column{Name: "habitat", Kind: model.KindText},
		model.Column{Name: "region", Kind: model.KindText},
		model.Column{Name: "wingspan_cm", Kind: model.KindInt},
		model.Column{Name: "weight_g", Kind: model.KindInt},
		model.Column{Name: "status", Kind: model.KindText},
		model.Column{Name: "description", Kind: model.KindText},
		model.Column{Name: "source_id", Kind: model.KindInt},
	)
}

// SynonymsSchema returns the Synonyms table schema (many-to-one with
// Birds through bird_id).
func SynonymsSchema() *model.Schema {
	return model.NewSchema("",
		model.Column{Name: "syn_id", Kind: model.KindInt},
		model.Column{Name: "bird_id", Kind: model.KindInt},
		model.Column{Name: "synonym", Kind: model.KindText},
	)
}

// Build generates a complete dataset: schema, summary instances
// (ClassBird1 classifier + TextSummary1 snippet, as in the paper's
// experiments), tuples, synonyms, and annotations.
func Build(cfg Config) (*Dataset, error) {
	cfg = cfg.WithDefaults()
	db := engine.New(cfg.Engine)
	ds := &Dataset{DB: db, Cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	if _, err := db.CreateTable("Birds", BirdsSchema()); err != nil {
		return nil, err
	}
	if err := db.DefineClassifier("ClassBird1", Categories, TrainingSet()); err != nil {
		return nil, err
	}
	if err := db.DefineSnippet("TextSummary1", 1000, 400); err != nil {
		return nil, err
	}
	if err := db.LinkInstance("Birds", "ClassBird1", false); err != nil {
		return nil, err
	}
	if err := db.LinkInstance("Birds", "TextSummary1", false); err != nil {
		return nil, err
	}

	if !cfg.SkipSynonyms {
		if _, err := db.CreateTable("Synonyms", SynonymsSchema()); err != nil {
			return nil, err
		}
		// Per the Figure 14 setup, only TextSummary1 is linked to
		// Synonyms — which is exactly what lets rules 2 and 5 fire for
		// ClassBird1 predicates.
		if err := db.LinkInstance("Synonyms", "TextSummary1", false); err != nil {
			return nil, err
		}
	}

	for i := 1; i <= cfg.Birds; i++ {
		oid, err := db.Insert("Birds", ds.birdValues(rng, i)...)
		if err != nil {
			return nil, err
		}
		ds.Birds = append(ds.Birds, oid)
		ds.Labels = append(ds.Labels, map[string]int{})

		n := annotationCount(rng, cfg.AvgAnnotationsPerBird)
		for a := 0; a < n; a++ {
			label := Categories[weightedCategory(rng)]
			text := AnnotationText(rng, label, rng.Float64() < cfg.LongAnnotationFraction)
			if _, err := db.AddAnnotation("Birds", oid, text, nil, author(rng)); err != nil {
				return nil, err
			}
			ds.Labels[i-1][label]++
		}

		if !cfg.SkipSynonyms {
			for sIdx := 0; sIdx < cfg.SynonymsPerBird; sIdx++ {
				soid, err := db.Insert("Synonyms",
					model.NewInt(int64(len(ds.Syns)+1)),
					model.NewInt(int64(i)),
					model.NewText(fmt.Sprintf("%s-synonym-%d", genera[i%len(genera)], sIdx)))
				if err != nil {
					return nil, err
				}
				ds.Syns = append(ds.Syns, soid)
				if rng.Float64() < cfg.AnnotateSynonymsFraction {
					text := AnnotationText(rng, "Behavior", false)
					if _, err := db.AddAnnotation("Synonyms", soid, text, nil, author(rng)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return ds, nil
}

func (ds *Dataset) birdValues(rng *rand.Rand, i int) []model.Value {
	genus := genera[rng.Intn(len(genera))]
	return []model.Value{
		model.NewInt(int64(i)),
		model.NewText(fmt.Sprintf("%s synthetica%03d", genus, i%997)),
		model.NewText(commonName(rng, i)),
		model.NewText(genus),
		model.NewText(families[rng.Intn(len(families))]),
		model.NewText(habitats[rng.Intn(len(habitats))]),
		model.NewText(regions[rng.Intn(len(regions))]),
		model.NewInt(int64(30 + rng.Intn(250))),
		model.NewInt(int64(15 + rng.Intn(12000))),
		model.NewText(statuses[rng.Intn(len(statuses))]),
		model.NewText("a synthetic bird generated for the InsightNotes+ reproduction"),
		model.NewInt(int64(rng.Intn(5) + 1)),
	}
}

func commonName(rng *rand.Rand, i int) string {
	adjectives := []string{"Swan", "Grey", "Northern", "Lesser", "Great", "Spotted", "Crested"}
	nouns := []string{"Goose", "Crow", "Gull", "Falcon", "Thrush", "Tit", "Heron"}
	return fmt.Sprintf("%s %s %03d", adjectives[rng.Intn(len(adjectives))],
		nouns[rng.Intn(len(nouns))], i)
}

func author(rng *rand.Rand) string {
	return fmt.Sprintf("watcher%02d", rng.Intn(40))
}

// annotationCount draws around avg with ±50% spread, minimum 1.
func annotationCount(rng *rand.Rand, avg int) int {
	lo := avg / 2
	if lo < 1 {
		lo = 1
	}
	return lo + rng.Intn(avg+1)
}

// weightedCategory skews toward Behavior/Other, mirroring crowd data.
func weightedCategory(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.15:
		return 0 // Disease
	case r < 0.40:
		return 1 // Anatomy
	case r < 0.75:
		return 2 // Behavior
	default:
		return 3 // Other
	}
}

// AnnotationText produces one annotation: a few phrases from the label's
// vocabulary, padded into the 150–8,000 character range; long=true
// produces a >1,000-character article that triggers LSA summarization.
func AnnotationText(rng *rand.Rand, label string, long bool) string {
	phrases := categoryPhrases[label]
	var b strings.Builder
	sentences := 2 + rng.Intn(3)
	if long {
		sentences = 20 + rng.Intn(30)
	}
	for s := 0; s < sentences; s++ {
		p := phrases[rng.Intn(len(phrases))]
		fmt.Fprintf(&b, "%s (obs %d). ", p, rng.Intn(1000))
	}
	// A rare marker phrase (~2% of annotations) gives keyword-search
	// experiments a low-selectivity term to probe for.
	if rng.Intn(50) == 0 {
		b.WriteString("juvenile ringed with a numbered leg band. ")
	}
	for b.Len() < 150 {
		b.WriteString(phrases[rng.Intn(len(phrases))])
		b.WriteString(". ")
	}
	return strings.TrimSpace(b.String())
}

// AddAnnotations appends n more annotations to bird index i (0-based),
// used by incremental-maintenance experiments.
func (ds *Dataset) AddAnnotations(rng *rand.Rand, i, n int) error {
	for a := 0; a < n; a++ {
		label := Categories[weightedCategory(rng)]
		text := AnnotationText(rng, label, rng.Float64() < ds.Cfg.LongAnnotationFraction)
		if _, err := ds.DB.AddAnnotation("Birds", ds.Birds[i], text, nil, author(rng)); err != nil {
			return err
		}
		ds.Labels[i][label]++
	}
	return nil
}

// BuildVersionTable clones the Birds tuples into a new table (sharing
// the ClassBird1 instance) and re-annotates each bird with a slightly
// perturbed annotation set — the V1/V2 version-diff workload of the
// case study's Q2. diffBirds lists (0-based) bird indexes whose
// annotation count is changed.
func (ds *Dataset) BuildVersionTable(name string, diffBirds map[int]bool) error {
	db := ds.DB
	if _, err := db.CreateTable(name, BirdsSchema()); err != nil {
		return err
	}
	if err := db.LinkInstance(name, "ClassBird1", false); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(ds.Cfg.Seed + 7))
	birds, err := db.Table("Birds")
	if err != nil {
		return err
	}
	for i, oid := range ds.Birds {
		tu, ok := birds.Get(oid)
		if !ok {
			continue
		}
		newOID, err := db.Insert(name, tu.Values...)
		if err != nil {
			return err
		}
		// Replay the exact V1 annotation texts so the classifier assigns
		// identical counts, then perturb only the diff set.
		for _, a := range db.Annotations(oid) {
			if _, err := db.AddAnnotation(name, newOID, a.Text, nil, "v2"); err != nil {
				return err
			}
		}
		if diffBirds[i] {
			text := AnnotationText(rng, "Disease", false)
			if _, err := db.AddAnnotation(name, newOID, text, nil, "v2"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Package bayes implements the multinomial Naive Bayes text classifier
// with Laplace smoothing (Manning, Raghavan & Schütze, IIR ch. 13 — the
// paper's reference [10]) used by Classifier-type summary instances to
// assign each raw annotation to a class label. A trained model persists
// in the engine's cell encoding (Append/Read): an instance definition
// in the log or a snapshot carries it, so replay never needs the
// training corpus.
package bayes

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/cell"
	"repro/internal/textutil"
)

// Classifier is a trainable multinomial Naive Bayes model. The zero value
// is not usable; construct with New. Classifier is not safe for
// concurrent mutation; concurrent Classify calls are safe once training
// is done.
type Classifier struct {
	labels []string
	// docCount[label] = number of training documents per label.
	docCount map[string]int
	// termCount[label][term] = term occurrences in label's documents.
	termCount map[string]map[string]int
	// totalTerms[label] = sum of termCount[label][*].
	totalTerms map[string]int
	vocab      map[string]bool
	totalDocs  int
}

// New builds a classifier over a fixed, ordered label vocabulary. The
// label order is preserved: it defines the positional semantics of
// getLabelName(i) in classifier summary objects.
func New(labels ...string) *Classifier {
	c := &Classifier{
		labels:     append([]string(nil), labels...),
		docCount:   make(map[string]int),
		termCount:  make(map[string]map[string]int),
		totalTerms: make(map[string]int),
		vocab:      make(map[string]bool),
	}
	for _, l := range labels {
		c.termCount[l] = make(map[string]int)
	}
	return c
}

// Labels returns the classifier's ordered label vocabulary.
func (c *Classifier) Labels() []string { return append([]string(nil), c.labels...) }

// Train adds one labeled document.
func (c *Classifier) Train(label, text string) error {
	if _, ok := c.termCount[label]; !ok {
		return fmt.Errorf("bayes: unknown label %q", label)
	}
	c.docCount[label]++
	c.totalDocs++
	for _, term := range textutil.Terms(text) {
		c.termCount[label][term]++
		c.totalTerms[label]++
		c.vocab[term] = true
	}
	return nil
}

// Classify returns the maximum-a-posteriori label for text. With no
// training data it returns the last label (the conventional catch-all,
// e.g. "Other"). Ties break toward the earlier label for determinism.
func (c *Classifier) Classify(text string) string {
	label, _ := c.ClassifyWithScore(text)
	return label
}

// ClassifyWithScore returns the MAP label and its log-posterior
// (unnormalized).
func (c *Classifier) ClassifyWithScore(text string) (string, float64) {
	if len(c.labels) == 0 {
		return "", math.Inf(-1)
	}
	if c.totalDocs == 0 {
		return c.labels[len(c.labels)-1], math.Inf(-1)
	}
	terms := textutil.Terms(text)
	best, bestScore := "", math.Inf(-1)
	for _, label := range c.labels {
		s := c.logPosterior(label, terms)
		if s > bestScore {
			best, bestScore = label, s
		}
	}
	return best, bestScore
}

// Scores returns the log-posterior of every label, keyed by label.
func (c *Classifier) Scores(text string) map[string]float64 {
	terms := textutil.Terms(text)
	out := make(map[string]float64, len(c.labels))
	for _, label := range c.labels {
		out[label] = c.logPosterior(label, terms)
	}
	return out
}

func (c *Classifier) logPosterior(label string, terms []string) float64 {
	// Laplace-smoothed prior: labels never seen in training keep a small
	// non-zero prior so an all-zero training set still yields an order.
	prior := math.Log(float64(c.docCount[label]+1) / float64(c.totalDocs+len(c.labels)))
	denom := float64(c.totalTerms[label] + len(c.vocab) + 1)
	s := prior
	for _, t := range terms {
		s += math.Log(float64(c.termCount[label][t]+1) / denom)
	}
	return s
}

// Append appends the trained model in the cell encoding: the labels in
// order, then per label its document count and its term counts in term
// order. The totals and the vocabulary follow from those, so Read
// derives them.
func (c *Classifier) Append(dst []byte) []byte {
	dst = cell.AppendStrings(dst, c.labels)
	for _, l := range c.labels {
		counts := c.termCount[l]
		terms := make([]string, 0, len(counts))
		for t := range counts {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(c.docCount[l])), uint64(len(terms)))
		for _, t := range terms {
			dst = binary.AppendUvarint(cell.AppendString(dst, t), uint64(counts[t]))
		}
	}
	return dst
}

// Read reads a model written by Append. It accepts only what Append
// writes — distinct labels, terms in increasing order, counts above
// zero — so whatever it reads re-encodes byte for byte.
func Read(r *cell.Reader) *Classifier {
	c := New(r.Texts()...)
	if len(c.termCount) != len(c.labels) {
		r.Fail("duplicate label")
	}
	for _, l := range c.labels {
		if n := int(r.Uvarint()); n != 0 {
			c.docCount[l] = n
			c.totalDocs += n
		}
		for i, k, prev := 0, r.Len(), ""; i < k; i++ {
			t, n := r.Text(), int(r.Uvarint())
			if (i > 0 && t <= prev) || n == 0 {
				r.Fail("terms out of order or counted zero times")
			}
			prev, c.termCount[l][t] = t, n
			c.totalTerms[l] += n
			c.vocab[t] = true
		}
	}
	return c
}

// VocabularySize returns the number of distinct terms seen in training.
func (c *Classifier) VocabularySize() int { return len(c.vocab) }

// TrainedDocs returns the number of training documents seen.
func (c *Classifier) TrainedDocs() int { return c.totalDocs }

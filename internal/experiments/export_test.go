package experiments

import (
	"herdcats/internal/core"
	"herdcats/internal/litmus"
)

// Classifier is a model Tab. VIII can classify by.
type Classifier interface {
	Name() string
	core.EvaluatorProvider
}

// Table8Of is Tab. VIII over tests, one row per classifier.
func Table8Of(tests []*litmus.Test, classifiers ...Classifier) []Table8Row {
	cs := make([]classifier, len(classifiers))
	for i, c := range classifiers {
		cs[i] = c
	}
	return table8(tests, cs)
}

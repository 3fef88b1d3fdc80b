package core

import (
	"slices"

	"repro/internal/answer"
	"repro/internal/graph"
)

// Helpers over the shared answering skeleton (internal/answer).

const countCheckEvery = answer.CountCheckEvery

func lexLess(a, b []graph.V) bool { return slices.Compare(a, b) < 0 }

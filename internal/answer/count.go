package answer

import "repro/internal/graph"

// FastCount returns |q(G)| without enumerating the result set — the
// companion result to the paper (Grohe & Schweikardt, "First-order query
// evaluation with cardinality conditions", cited as [18]) states that
// counting FO answers over nowhere dense classes is pseudo-linear.
// ok=false means the query shape is not supported and the caller should
// fall back to Count().
//
// Arity 1: the clause starter lists are exact solution lists; count their
// union. Arity 2: group clauses by distance type; close-type groups are
// counted by scanning R-balls, far-type groups by inclusion–exclusion
//
//	#far(L0, L1) = |L0|·|L1| − #close(L0, L1),
//
// with the close-pair term again a ball scan. Both scans cost Σ_a ‖N_R(a)‖.
//
// Higher arities are supported when every live clause's distance type is
// connected (a single component): each solution then lives inside the
// radius-R(k−1) ball of its first element and fastCountConnected counts
// by one bounded recursion per vertex.
func (s *Skeleton) FastCount() (int, bool) {
	switch s.K {
	case 1:
		return s.fastCount1(), true
	case 2:
		return s.fastCount2(), true
	}
	for _, rt := range s.Clauses {
		if len(rt.Comps) != 1 {
			return 0, false
		}
	}
	return s.fastCountConnected(), true
}

func (s *Skeleton) fastCount1() int {
	seen := make([]bool, s.G.N())
	total := 0
	for _, rt := range s.Clauses {
		for _, v := range rt.Comps[0].Starter {
			if !seen[v] {
				seen[v] = true
				total++
			}
		}
	}
	return total
}

func (s *Skeleton) fastCount2() int {
	total := 0
	for _, g := range s.groupByType() {
		if g[0].Type.Close(0, 1) {
			total += s.countCloseGroup(g)
		} else {
			total += s.countFarGroup(g)
		}
	}
	return total
}

// groupByType buckets the live clauses by distance type, in first-
// appearance order so the count is deterministic. Distinct type keys have
// distinct close matrices, hence disjoint tuple sets — group counts add.
func (s *Skeleton) groupByType() [][]*Clause {
	index := map[string]int{}
	var groups [][]*Clause
	for _, rt := range s.Clauses {
		k := rt.Type.Key()
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], rt)
	}
	return groups
}

// fastCountConnected counts the solutions of an all-connected query of
// arity ≥ 3: every solution lives inside the radius-R(k−1) ball of its
// first element, so the count is one ball-confined recursion per vertex.
// A tuple is counted once per type group via first-match evaluation.
func (s *Skeleton) fastCountConnected() int {
	total := 0
	tuple := make([]graph.V, s.K)
	for _, g := range s.groupByType() {
		for a := 0; a < s.G.N(); a++ {
			tuple[0] = a
			total += s.countConnectedRec(g, tuple, 1)
		}
	}
	return total
}

// countConnectedRec extends tuple[:j] over the ball of tuple[0], checking
// the distance pattern incrementally, and counts the completions matching
// at least one clause of the group.
func (s *Skeleton) countConnectedRec(group []*Clause, tuple []graph.V, j int) int {
	if j == s.K {
		for _, rt := range group {
			if s.localEval(rt.Comps[0], tuple) {
				return 1
			}
		}
		return 0
	}
	count := 0
	for _, w32 := range s.O.CompBall(tuple[0]) {
		w := graph.V(w32)
		if !s.patternOK(group[0], j, tuple[:j], w) {
			continue
		}
		tuple[j] = w
		count += s.countConnectedRec(group, tuple, j+1)
	}
	return count
}

// countCloseGroup counts pairs (a, b) with dist(a,b) ≤ R whose component
// formula holds for at least one clause of the group.
func (s *Skeleton) countCloseGroup(group []*Clause) int {
	count := 0
	vals := make([]graph.V, 2)
	for a := 0; a < s.G.N(); a++ {
		for _, b := range s.O.BallR(a) {
			vals[0], vals[1] = a, graph.V(b)
			for _, rt := range group {
				if s.localEval(rt.Comps[0], vals) {
					count++
					break
				}
			}
		}
	}
	return count
}

// countFarGroup counts pairs (a, b) with dist(a,b) > R matching at least
// one clause, by inclusion–exclusion over the group's clauses: for each
// non-empty subset S, the tuples matching all clauses of S are pairs from
// the starter-list intersections, minus the close ones.
func (s *Skeleton) countFarGroup(group []*Clause) int {
	m := len(group)
	total := 0
	for mask := 1; mask < 1<<uint(m); mask++ {
		var l0, l1 []graph.V
		first := true
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if first {
				l0 = group[i].Comps[0].Starter
				l1 = group[i].Comps[1].Starter
				first = false
			} else {
				l0 = intersectSorted(l0, group[i].Comps[0].Starter)
				l1 = intersectSorted(l1, group[i].Comps[1].Starter)
			}
		}
		far := len(l0)*len(l1) - s.closePairs(l0, l1)
		if popcount(mask)%2 == 1 {
			total += far
		} else {
			total -= far
		}
	}
	return total
}

// closePairs counts pairs (a, b) with a ∈ A, b ∈ B, dist(a,b) ≤ R, via an
// R-ball scan per element of A.
func (s *Skeleton) closePairs(A, B []graph.V) int {
	if len(A) == 0 || len(B) == 0 {
		return 0
	}
	inB := make([]bool, s.G.N())
	for _, b := range B {
		inB[b] = true
	}
	count := 0
	for _, a := range A {
		for _, b := range s.O.BallR(a) {
			if inB[b] {
				count++
			}
		}
	}
	return count
}

func intersectSorted(a, b []graph.V) []graph.V {
	var out []graph.V
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

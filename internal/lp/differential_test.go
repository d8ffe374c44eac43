package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randMixedSystem generates a random atom system of the size SolveAtoms
// hands the dense tableau: EQ, LE and GE rows over random atom subsets,
// cards derived from hidden counts (consistent) or perturbed away from
// them (inconsistent), the total-row constraint set or omitted, and
// preferred atoms.
func randMixedSystem(r *rand.Rand) *AtomSystem {
	n := 1 + r.Intn(40)
	if r.Intn(10) == 0 {
		n = 40 + r.Intn(260)
	}
	hidden := make([]int64, n)
	var total int64
	for a := range hidden {
		hidden[a] = int64(r.Intn(50))
		total += hidden[a]
	}
	perturb := func(card int64) int64 {
		if r.Intn(2) == 0 {
			return card
		}
		return max(card+int64(r.Intn(41)-20), 0)
	}
	s := &AtomSystem{NumAtoms: n, Total: -1}
	if r.Intn(4) != 0 {
		s.Total = perturb(total)
	}
	kinds := []ConKind{EQ, LE, GE}
	for c, nCons := 0, 1+r.Intn(8); c < nCons; c++ {
		var atoms []int
		var card int64
		for a := 0; a < n; a++ {
			if r.Intn(2) == 0 {
				atoms = append(atoms, a)
				card += hidden[a]
			}
		}
		if len(atoms) == 0 {
			atoms, card = []int{0}, hidden[0]
		}
		s.Cons = append(s.Cons, AtomConstraint{Atoms: atoms, Card: perturb(card), Kind: kinds[r.Intn(3)]})
	}
	for a := 0; a < n; a++ {
		if r.Intn(4) == 0 {
			s.Prefer = append(s.Prefer, a)
		}
	}
	return s
}

// TestSolversAgreeBelowCutover is the differential test of the three LP
// solvers on systems below denseCutover, where SolveAtoms uses the dense
// tableau: the revised simplex, the dense float tableau and — at up to 25
// atoms — the exact rational tableau must reach the same optimal objective
// of the relaxed system (the L1 deviation less the preference bonus),
// within 1e-6 relative. The atom form charges an LE row's deviation in
// both directions, like an EQ row's, in every solver; only a GE row's
// surplus is free.
func TestSolversAgreeBelowCutover(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	agree := func(i int, solver string, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > 1e-6*math.Max(1, math.Max(math.Abs(got), math.Abs(want))) {
			t.Fatalf("system %d: %s objective %.12g, revised %.12g", i, solver, got, want)
		}
	}
	for i := 0; i < 300; i++ {
		s := randMixedSystem(r)
		if s.NumAtoms > denseCutover {
			t.Fatalf("system %d has %d atoms, above the cutover", i, s.NumAtoms)
		}
		_, revised, _, err := solveAtomsRevised(s)
		if err != nil {
			t.Fatalf("system %d: revised: %v", i, err)
		}
		p := s.BuildRelaxed()
		dense, err := Solve(p)
		if err != nil || dense.Status != Optimal {
			t.Fatalf("system %d: dense: %v %v", i, dense, err)
		}
		agree(i, "dense", dense.Obj, revised)
		if s.NumAtoms <= 25 {
			exact, err := SolveExact(p)
			if err != nil || exact.Status != Optimal {
				t.Fatalf("system %d: exact: %v %v", i, exact, err)
			}
			agree(i, "exact", exact.Obj, revised)
		}
	}
}

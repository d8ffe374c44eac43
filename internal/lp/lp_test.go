package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveSimpleOptimal(t *testing.T) {
	// min x+y s.t. x+y >= 2, x <= 5, x,y >= 0 -> optimum 2.
	p := &Problem{NumVars: 2}
	p.Objective = []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Kind: GE, RHS: 2})
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Kind: LE, RHS: 5})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-2) > 1e-6 {
		t.Fatalf("got %v obj=%v", sol.Status, sol.Obj)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x >= 3 and x <= 1.
	p := &Problem{NumVars: 1}
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Kind: GE, RHS: 3})
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Kind: LE, RHS: 1})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("got %v", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x s.t. x >= 1.
	p := &Problem{NumVars: 1, Objective: []Term{{Var: 0, Coef: -1}}}
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Kind: GE, RHS: 1})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("got %v", sol.Status)
	}
}

func TestSolveEqualitySystem(t *testing.T) {
	// x+y = 10, x-y... use x + y = 10, x = 4 -> y = 6.
	p := &Problem{NumVars: 2}
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Kind: EQ, RHS: 10})
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Kind: EQ, RHS: 4})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-4) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{NumVars: 1}
	p.AddConstraint(Constraint{Terms: []Term{{Var: 3, Coef: 1}}, Kind: EQ, RHS: 1})
	if _, err := Solve(p); err == nil {
		t.Error("bad variable index accepted")
	}
	p2 := &Problem{NumVars: 1, Objective: []Term{{Var: 9, Coef: 1}}}
	if _, err := Solve(p2); err == nil {
		t.Error("bad objective index accepted")
	}
}

func TestConstraintEvalViolation(t *testing.T) {
	c := Constraint{Terms: []Term{{0, 2}, {1, -1}}, Kind: EQ, RHS: 3}
	x := []float64{2, 1}
	if c.Eval(x) != 3 || c.Violation(x) != 0 {
		t.Error("Eval/Violation wrong on satisfied EQ")
	}
	c.RHS = 5
	if c.Violation(x) != 2 {
		t.Error("EQ violation wrong")
	}
	le := Constraint{Terms: []Term{{0, 1}}, Kind: LE, RHS: 1}
	if le.Violation(x) != 1 {
		t.Error("LE violation wrong")
	}
	ge := Constraint{Terms: []Term{{0, 1}}, Kind: GE, RHS: 4}
	if ge.Violation(x) != 2 {
		t.Error("GE violation wrong")
	}
}

// randSystem generates a random feasible atom system: pick hidden counts,
// derive constraint cards from them (so the EQ rows are consistent).
func randSystem(r *rand.Rand) (*AtomSystem, []int64) {
	nAtoms := 2 + r.Intn(12)
	hidden := make([]int64, nAtoms)
	var total int64
	for i := range hidden {
		hidden[i] = int64(r.Intn(50))
		total += hidden[i]
	}
	s := &AtomSystem{NumAtoms: nAtoms, Total: total}
	nCons := 1 + r.Intn(6)
	for c := 0; c < nCons; c++ {
		var atoms []int
		var card int64
		for a := 0; a < nAtoms; a++ {
			if r.Intn(2) == 0 {
				atoms = append(atoms, a)
				card += hidden[a]
			}
		}
		if len(atoms) == 0 {
			atoms = []int{0}
			card = hidden[0]
		}
		s.Cons = append(s.Cons, AtomConstraint{Atoms: atoms, Card: card})
	}
	return s, hidden
}

// TestQuickSolveAtomsConsistent: consistent systems solve with a zero LP
// optimum (the fractional solution satisfies everything), non-negative
// counts, and near-zero integer residuals — integerizing a fractional
// vertex may shift a handful of rows, the paper's "virtually no error".
func TestQuickSolveAtomsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, _ := randSystem(r)
		res, err := SolveAtoms(s, false)
		if err != nil {
			return false
		}
		if res.LPObj > 1e-6 {
			return false // the fractional LP must be satisfied exactly
		}
		for _, c := range res.Counts {
			if c < 0 {
				return false
			}
		}
		var dev int64
		for _, resid := range res.Residuals {
			if resid < 0 {
				resid = -resid
			}
			dev += resid
		}
		return dev <= int64(2*len(s.Cons))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickExactAgreesWithFloat: the exact-rational solver reaches the
// same optimum as the float solver on consistent systems (both zero).
func TestQuickExactAgreesWithFloat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, _ := randSystem(r)
		a, err := SolveAtoms(s, false)
		if err != nil {
			return false
		}
		b, err := SolveAtoms(s, true)
		if err != nil {
			return false
		}
		return a.LPObj <= 1e-6 && b.LPObj <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRevisedLargeSystem: force the revised path (by constructing a system
// above the cutover) and check that its integerized solution leaves only
// negligible residuals. It does not compare solvers; TestSolversAgreeBelowCutover
// holds the revised, dense and exact solvers to the same optimum.
func TestRevisedLargeSystem(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := denseCutover + 500
	hidden := make([]int64, n)
	var total int64
	for i := range hidden {
		hidden[i] = int64(r.Intn(5))
		total += hidden[i]
	}
	s := &AtomSystem{NumAtoms: n, Total: total}
	for c := 0; c < 20; c++ {
		var atoms []int
		var card int64
		for a := 0; a < n; a++ {
			if r.Intn(3) == 0 {
				atoms = append(atoms, a)
				card += hidden[a]
			}
		}
		s.Cons = append(s.Cons, AtomConstraint{Atoms: atoms, Card: card})
	}
	res, err := SolveAtoms(s, false)
	if err != nil {
		t.Fatal(err)
	}
	// Rounding a fractional vertex of a dense overlapping system can leave
	// tiny integer residuals (the paper's "virtually no error"); they must
	// stay negligible relative to the constraint cardinalities.
	var dev, cards int64
	for i, resid := range res.Residuals {
		if resid < 0 {
			resid = -resid
		}
		dev += resid
		_ = i
	}
	for _, c := range s.Cons {
		cards += c.Card
	}
	if cards > 0 && float64(dev)/float64(cards) > 0.001 {
		t.Errorf("total deviation %d of %d (%.4f%%), want <= 0.1%%", dev, cards, 100*float64(dev)/float64(cards))
	}
}

func TestSolveAtomsInfeasibleRelaxes(t *testing.T) {
	// Two contradictory cards over the same atom set.
	s := &AtomSystem{NumAtoms: 2, Total: 10}
	s.Cons = append(s.Cons,
		AtomConstraint{Atoms: []int{0}, Card: 3, Label: "a"},
		AtomConstraint{Atoms: []int{0}, Card: 7, Label: "b"},
	)
	res, err := SolveAtoms(s, false)
	if err != nil {
		t.Fatal(err)
	}
	// The deviations must total at least |7-3| = 4 across the two rows.
	var dev int64
	for _, r := range res.Residuals {
		if r < 0 {
			dev -= r
		} else {
			dev += r
		}
	}
	if dev < 4 {
		t.Errorf("total deviation %d, want >= 4", dev)
	}
}

func TestSolveAtomsGELowerBound(t *testing.T) {
	s := &AtomSystem{NumAtoms: 3, Total: 100}
	s.Cons = append(s.Cons,
		AtomConstraint{Atoms: []int{0, 1}, Card: 30, Label: "eq"},
		AtomConstraint{Atoms: []int{1}, Card: 1, Kind: GE, Label: "ge"},
	)
	res, err := SolveAtoms(s, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[1] < 1 {
		t.Errorf("GE row unsatisfied: counts=%v", res.Counts)
	}
	if res.Counts[0]+res.Counts[1] != 30 {
		t.Errorf("EQ row broken: counts=%v", res.Counts)
	}
	// Surplus on a GE row is not a residual.
	for i, r := range res.Residuals {
		if r != 0 {
			t.Errorf("residual %s = %d", res.Labels[i], r)
		}
	}
}

func TestSolveAtomsEmpty(t *testing.T) {
	if _, err := SolveAtoms(&AtomSystem{}, false); err == nil {
		t.Error("zero-atom system accepted")
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("Status strings wrong")
	}
	if EQ.String() != "=" || LE.String() != "<=" || GE.String() != ">=" {
		t.Error("ConKind strings wrong")
	}
}

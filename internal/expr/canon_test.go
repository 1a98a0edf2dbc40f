package expr

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/types"
)

// perturb rewrites e into a variant that is usually equivalent — operands
// of commutative operators swapped, AND/OR chains regrouped, parts
// duplicated, identities and double negations added — and sometimes not:
// a literal changed or a comparison flipped.
func perturb(rng *rand.Rand, e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		l, r := perturb(rng, x.L), perturb(rng, x.R)
		switch rng.Intn(8) {
		case 0:
			if x.Op.commutative() || x.Op == OpAnd || x.Op == OpOr {
				l, r = r, l
			}
		case 1:
			if x.Op == OpAnd || x.Op == OpOr {
				// Duplicate a side: x AND (y AND x).
				return NewBinary(x.Op, l, NewBinary(x.Op, r, l))
			}
		case 2:
			if x.Op == OpAnd {
				return NewBinary(OpAnd, NewBinary(OpAnd, l, TrueExpr()), r)
			}
			if x.Op == OpOr {
				return NewBinary(OpOr, l, NewBinary(OpOr, FalseExpr(), r))
			}
		case 3:
			if x.Op == OpLt {
				return NewBinary(OpGt, r, l) // a < b as b > a: equivalent, not canonical
			}
			if x.Op.IsComparison() {
				return NewBinary(OpLe, l, r) // usually not equivalent
			}
		}
		return NewBinary(x.Op, l, r)
	case *Not:
		if rng.Intn(6) == 0 {
			return NewNot(NewNot(NewNot(perturb(rng, x.E))))
		}
		return NewNot(perturb(rng, x.E))
	case *Literal:
		if x.Val.Kind == types.KindInt64 && rng.Intn(10) == 0 {
			return Lit(types.Int(x.Val.I + 1))
		}
	}
	return e
}

func agreeWithOracle(t *testing.T, a, b Expr) {
	t.Helper()
	want := oracleEquivalent(a, b)
	if got := Equivalent(a, b); got != want {
		t.Fatalf("Equivalent = %v, oracle = %v\n  a: %s\n  b: %s", got, want, a, b)
	}
	if want && Key(a) != Key(b) {
		t.Fatalf("equivalent expressions have different keys\n  a: %s\n  b: %s", a, b)
	}
	for _, e := range []Expr{a, b} {
		if got, want := Simplify(e), oracleSimplify(e); !Equal(got, want) {
			t.Fatalf("Simplify(%s) = %s, oracle %s", e, got, want)
		}
	}
}

// TestEquivalentMatchesOracle checks the construction-time identity
// against the string-rendering oracle it replaced, in both directions:
// Equivalent holds exactly when the oracle's canonical forms are Equal,
// equivalent expressions share a Key, and Simplify builds the oracle's
// simplified tree. Pairs are random expressions and perturbations of them, so
// equivalent and near-miss pairs are both common.
func TestEquivalentMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cols := []*Column{
		NewColumn("a", types.KindInt64),
		NewColumn("b", types.KindInt64),
		NewColumn("c", types.KindInt64),
	}
	equivalent := 0
	for iter := 0; iter < 4000; iter++ {
		a := randBoolExpr(rng, cols, 1+rng.Intn(4))
		b := perturb(rng, a)
		if iter%4 == 0 {
			b = randBoolExpr(rng, cols, 1+rng.Intn(4))
		}
		agreeWithOracle(t, a, b)
		if oracleEquivalent(a, b) {
			equivalent++
		}
	}
	if equivalent < 1000 {
		t.Fatalf("only %d of 4000 pairs were equivalent; the generator no longer exercises the positive direction", equivalent)
	}
}

// FuzzEquivalent searches generator seeds for a pair on which Equivalent,
// Key or Simplify disagree with the oracle.
func FuzzEquivalent(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 29, 20220513} {
		f.Add(seed, uint8(3), false)
	}
	cols := []*Column{
		NewColumn("a", types.KindInt64),
		NewColumn("b", types.KindInt64),
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, independent bool) {
		rng := rand.New(rand.NewSource(seed))
		a := randBoolExpr(rng, cols, int(depth%6))
		b := perturb(rng, a)
		if independent {
			b = randBoolExpr(rng, cols, int(depth%6))
		}
		agreeWithOracle(t, a, b)
	})
}

// randChainPart draws a part for long chains: a comparison over few
// values (so parts repeat), a guard or self-equality, or a small chain of
// the other operator over comparisons (so absorption applies).
func randChainPart(rng *rand.Rand, cols []*Column, op BinOp) Expr {
	cmp := func() Expr {
		c := cols[rng.Intn(len(cols))]
		return NewBinary([]BinOp{OpEq, OpLt, OpGe}[rng.Intn(3)], Ref(c), Lit(types.Int(rng.Int63n(6))))
	}
	c := cols[rng.Intn(len(cols))]
	switch rng.Intn(8) {
	case 0:
		return NotNull(Ref(c))
	case 1:
		return Eq(Ref(c), Ref(c))
	case 2, 3:
		return NewBinary(innerOp(op), cmp(), cmp())
	}
	return cmp()
}

// TestLongChainsMatchOracle checks long chains, built by appending one
// part at a time and forked from a shared prefix concurrently, against the
// oracle. Parts repeat often, so duplicates, guards and absorption go
// through appendToSimplified as well as reduceChain.
func TestLongChainsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cols := make([]*Column, 12)
	for i := range cols {
		cols[i] = NewColumn(string(rune('a'+i)), types.KindInt64)
	}
	for iter := 0; iter < 20; iter++ {
		op := []BinOp{OpAnd, OpOr}[iter%2]
		prefix := randChainPart(rng, cols, op)
		for i := 0; i < 96; i++ {
			prefix = NewBinary(op, prefix, randChainPart(rng, cols, op))
		}
		tails := make([]Expr, 8)
		for i := range tails {
			tails[i] = randChainPart(rng, cols, op)
		}
		forks := make([]Expr, len(tails))
		var wg sync.WaitGroup
		for i := range tails {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				forks[i] = NewBinary(op, NewBinary(op, prefix, tails[i]), tails[(i+1)%len(tails)])
			}(i)
		}
		wg.Wait()
		for i, e := range forks {
			// The same parts in reverse order: equivalent, built without
			// the shared prefix.
			parts := chainParts(e.(*Binary))
			var rev Expr = parts[len(parts)-1]
			for j := len(parts) - 2; j >= 0; j-- {
				rev = NewBinary(op, rev, parts[j])
			}
			agreeWithOracle(t, e, rev)
			agreeWithOracle(t, e, forks[(i+1)%len(forks)])
		}
	}
}

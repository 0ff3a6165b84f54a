package linalg

import (
	"math/big"
	"math/rand"
	"testing"
)

func vecsEqual(a, b []Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Cmp(b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// TestIntFastPathMatchesBigPath is the correctness contract of the int64
// Farkas fast path: on random small-coefficient systems — the regime
// every practical net lives in — the fast path must return exactly the
// rows, in exactly the order, of the exact big.Int implementation.
func TestIntFastPathMatchesBigPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(7)
		a := NewMat(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Data[i][j].SetInt64(int64(rng.Intn(7) - 3))
			}
		}
		fast, capped, ok := minimalSemiflowsInt(a, 100000)
		if !ok {
			t.Fatalf("trial %d: fast path refused small coefficients", trial)
		}
		if capped {
			t.Fatalf("trial %d: unexpectedly capped", trial)
		}
		slow, okBig := minimalSemiflowsBig(a, 100000)
		if !okBig {
			t.Fatalf("trial %d: big path capped", trial)
		}
		if !vecsEqual(fast, slow) {
			t.Fatalf("trial %d: fast path diverges\nA:\n%s\nfast: %v\nbig:  %v",
				trial, a, fast, slow)
		}
	}
}

// TestIntFastPathCapMatchesBigPath: the maxRows verdict must agree
// between the paths (the cap triggers at the same point of the identical
// elimination sequence).
func TestIntFastPathCapMatchesBigPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	agreedCapped := 0
	for trial := 0; trial < 100; trial++ {
		rows, cols := 4, 6
		a := NewMat(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Data[i][j].SetInt64(int64(rng.Intn(5) - 2))
			}
		}
		for _, cap := range []int{1, 2, 3, 5} {
			_, fastCapped, ok := minimalSemiflowsInt(a, cap)
			if !ok {
				t.Fatalf("trial %d: fast path refused small coefficients", trial)
			}
			_, bigOK := minimalSemiflowsBig(a, cap)
			if fastCapped != !bigOK {
				t.Fatalf("trial %d cap %d: capped verdicts differ (fast %v, big %v)",
					trial, cap, fastCapped, !bigOK)
			}
			if fastCapped {
				agreedCapped++
			}
		}
	}
	if agreedCapped == 0 {
		t.Fatal("no trial exercised the row cap")
	}
}

// TestHugeCoefficientsFallBack: coefficients beyond the fast path's safe
// range must be refused by the fast path, and MinimalSemiflows must then
// deliver the big.Int result.
func TestHugeCoefficientsFallBack(t *testing.T) {
	big1 := new(big.Int).Lsh(big.NewInt(1), 40) // 2^40 > intLimit
	a := NewMat(1, 2)
	a.Data[0][0].Set(big1)
	a.Data[0][1].Neg(big1)
	if _, _, ok := minimalSemiflowsInt(a, 0); ok {
		t.Fatal("fast path accepted out-of-range coefficients")
	}
	got, ok := MinimalSemiflows(a, 100000)
	if !ok || len(got) != 1 {
		t.Fatalf("fallback result: %v ok=%v", got, ok)
	}
	// 2^40·x0 − 2^40·x1 = 0 ⇒ minimal semiflow (1, 1).
	if got[0][0].Int64() != 1 || got[0][1].Int64() != 1 {
		t.Fatalf("fallback semiflow = %v, want [1 1]", got[0])
	}
}

// TestIntermediateOverflowFallsBack: inputs that fit but whose
// combinations blow past the limit must abort the fast path, not wrap.
func TestIntermediateOverflowFallsBack(t *testing.T) {
	// M·x0 = x1, M·x1 = x2 with M² > intLimit: the minimal semiflow
	// (1, M, M²) leaves the safe range during elimination.
	const m = int64(40000) // m² ≈ 1.6e9 > 2^30
	a := NewMat(2, 3)
	a.Data[0][0].SetInt64(m)
	a.Data[0][1].SetInt64(-1)
	a.Data[1][1].SetInt64(m)
	a.Data[1][2].SetInt64(-1)
	_, _, ok := minimalSemiflowsInt(a, 0)
	if ok {
		t.Fatal("fast path claimed an out-of-range intermediate")
	}
	got, okAll := MinimalSemiflows(a, 100000)
	if !okAll || len(got) != 1 {
		t.Fatalf("fallback result: %v ok=%v", got, okAll)
	}
	want := []int64{1, m, m * m}
	for i, w := range want {
		if got[0][i].Int64() != w {
			t.Fatalf("fallback semiflow = %v, want %v", got[0], want)
		}
	}
}

func BenchmarkMinimalSemiflowsInt(b *testing.B) {
	a := pipelineIncidence(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := minimalSemiflowsInt(a, 100000); !ok {
			b.Fatal("fast path refused")
		}
	}
}

func BenchmarkMinimalSemiflowsBig(b *testing.B) {
	a := pipelineIncidence(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := minimalSemiflowsBig(a, 100000); !ok {
			b.Fatal("big path capped")
		}
	}
}

// pipelineIncidence builds the transposed incidence matrix of an
// n-transition chain with occasional rate changes: the shape the
// T-semiflow computations see.
func pipelineIncidence(n int) *Mat {
	a := NewMat(n-1, n)
	for p := 0; p < n-1; p++ {
		w := int64(1 + (p % 3))
		a.Data[p][p].SetInt64(w)
		a.Data[p][p+1].SetInt64(-1)
	}
	return a
}

// TestLadderEscalation walks one system off the int64 tier: a multirate
// chain whose semiflow entries are m, m², …, m⁵ leaves int64's range at m²
// (and would overflow even a 2⁶² bound at m⁵), so the int64 tier must
// refuse and big.Int must deliver the exact semiflow.
func TestLadderEscalation(t *testing.T) {
	const m = int64(40000) // m² ≈ 1.6e9 > 2³⁰; m⁵ ≈ 1.0e23 > 2⁶²
	const stages = 5
	a := NewMat(stages, stages+1)
	for i := 0; i < stages; i++ {
		a.Data[i][i].SetInt64(m)
		a.Data[i][i+1].SetInt64(-1)
	}
	if _, _, ok := minimalSemiflowsInt(a, 100000); ok {
		t.Fatal("int64 tier claimed a 2³⁰-overflowing intermediate")
	}
	flows, ok := MinimalSemiflows(a, 100000)
	if !ok || len(flows) != 1 {
		t.Fatalf("ladder on %d stages: %v ok=%v", stages, flows, ok)
	}
	want := big.NewInt(1)
	for i := 0; i <= stages; i++ {
		if flows[0][i].Cmp(want) != 0 {
			t.Fatalf("ladder semiflow[%d] = %v, want %v", i, flows[0][i], want)
		}
		want = new(big.Int).Mul(want, big.NewInt(m))
	}
}

package linalg

import (
	"math/big"

	"fcpn/internal/trace"
)

// Rank computes the rank of the matrix by fraction-free Gaussian
// elimination (Bareiss-style pivoting). Arithmetic runs on the same
// two-tier ladder as the Farkas enumeration: int64, then exact big.Int.
// Rank is arithmetic-representation independent, so both tiers return the
// same answer; when the int64 tier's entries outgrow its safe range it
// aborts and big.Int reruns the elimination from scratch.
func Rank(m *Mat) int { return RankTraced(m, nil) }

// RankTraced is Rank with tier-residency tracing: the ladder tiers that
// run record "linalg/int64" / "linalg/bigint" detail spans, matching
// MinimalSemiflowsTraced. A nil tracer disables collection.
func RankTraced(m *Mat, tr *trace.Tracer) int {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	sp := tr.StartDetail("linalg/int64")
	r, ok := rankInt(m)
	sp.End()
	if ok {
		return r
	}
	sp = tr.StartDetail("linalg/bigint")
	r = rankBig(m)
	sp.End()
	return r
}

// rankInt runs the Bareiss elimination on int64 rows, giving up
// (ok=false) when the input or any intermediate leaves
// [−intLimit, intLimit].
func rankInt(m *Mat) (int, bool) {
	work := make([][]int64, m.Rows)
	for i, r := range m.Data {
		row := make([]int64, m.Cols)
		for j, x := range r {
			if !x.IsInt64() {
				return 0, false
			}
			v := x.Int64()
			if v > intLimit || v < -intLimit {
				return 0, false
			}
			row[j] = v
		}
		work[i] = row
	}
	rank, col := 0, 0
	for rank < len(work) && col < m.Cols {
		pivot := -1
		for i := rank; i < len(work); i++ {
			if work[i][col] != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			col++
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		pv := work[rank][col]
		for i := rank + 1; i < len(work); i++ {
			if work[i][col] == 0 {
				continue
			}
			if !eliminate64(work[i], work[rank], pv, work[i][col], col) {
				return 0, false
			}
		}
		rank++
		col++
	}
	return rank, true
}

// eliminate64 is the int64 tier's Bareiss row annihilation in place,
// dst[j] = pv·dst[j] − factor·pivot[j] for j ≥ col, followed by GCD
// normalisation of the row: |pv|, |factor| and every
// entry are ≤ intLimit = 2³⁰, so pv·dst − factor·pivot is below 2⁶¹ and
// native arithmetic cannot wrap. Entries beyond intLimit after GCD
// normalisation abort the tier. (Columns left of col are already zero in
// every row below the pivot row, so normalising the full row is sound.)
func eliminate64(dst, pivot []int64, pv, factor int64, col int) bool {
	for j := col; j < len(dst); j++ {
		dst[j] = pv*dst[j] - factor*pivot[j]
	}
	var g int64
	for _, x := range dst {
		g = gcd64(g, x)
	}
	if g > 1 {
		for j := range dst {
			dst[j] /= g
		}
	}
	for _, x := range dst {
		if x > intLimit || x < -intLimit {
			return false
		}
	}
	return true
}

// rankBig is the exact big.Int Bareiss elimination, the ladder's safety
// net.
func rankBig(m *Mat) int {
	// Work on a copy.
	work := make([]Vec, m.Rows)
	for i, r := range m.Data {
		work[i] = r.Clone()
	}
	rank := 0
	col := 0
	for rank < len(work) && col < m.Cols {
		// Find pivot.
		pivot := -1
		for i := rank; i < len(work); i++ {
			if work[i][col].Sign() != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			col++
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		pv := work[rank][col]
		tmp := new(big.Int)
		for i := rank + 1; i < len(work); i++ {
			if work[i][col].Sign() == 0 {
				continue
			}
			// row_i = pv*row_i - work[i][col]*row_rank
			factor := new(big.Int).Set(work[i][col])
			for j := col; j < m.Cols; j++ {
				tmp.Mul(factor, work[rank][j])
				work[i][j].Mul(work[i][j], pv)
				work[i][j].Sub(work[i][j], tmp)
			}
			work[i].NormalizeGCD()
		}
		rank++
		col++
	}
	return rank
}

// NullspaceDim returns the dimension of {x : A·x = 0} where the rows of a
// are the equations: Cols − Rank.
func NullspaceDim(a *Mat) int { return a.Cols - Rank(a) }

// SolvesZero reports whether A·x = 0 for the given integer vector x
// (rows of a are equations).
func SolvesZero(a *Mat, x Vec) bool {
	for _, row := range a.Data {
		if row.Dot(x).Sign() != 0 {
			return false
		}
	}
	return true
}

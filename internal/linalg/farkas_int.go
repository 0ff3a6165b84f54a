package linalg

import "math/big"

// Machine-integer tier of the Farkas ladder (see MinimalSemiflows). It
// runs the identical elimination and support-pruning sequence as
// minimalSemiflowsBig on rows of plain int64 entries bounded by
// intLimit = 2³⁰, so a combination cp·x + cn·y stays below 2⁶¹ and
// native arithmetic cannot wrap. An input or intermediate beyond the
// bound aborts the tier and the caller escalates: int64 → big.Int.
// Because both tiers perform the same combinations in the same order,
// prune the same rows and normalise by the same GCDs, a completed int64
// run returns exactly the rows — same values, same order — the big.Int
// path would.
const intLimit = int64(1) << 30

// intRow is one working row of the int64 tier: the remaining
// equation values (left), the non-negative unit-vector combination
// producing them (right), and a bitset over right's support replacing
// the O(width) support scans of the pruning step.
type intRow struct {
	left  []int64
	right []int64
	mask  []uint64
}

// minimalSemiflowsInt is the int64 tier: the identical elimination and
// support-pruning sequence as minimalSemiflowsBig, on native rows with
// entries bounded by intLimit.
//
// Returns (result, capped, ok). ok=false means an input or intermediate
// left the safe range and the caller must escalate; capped=true (with
// ok=true) is the authoritative "maxRows exceeded" verdict.
func minimalSemiflowsInt(a *Mat, maxRows int) (out []Vec, capped, ok bool) {
	numEq := a.Rows
	numVar := a.Cols
	words := (numVar + 63) / 64

	newMask := func(right []int64) []uint64 {
		m := make([]uint64, words)
		for i, v := range right {
			if v != 0 {
				m[i/64] |= 1 << (i % 64)
			}
		}
		return m
	}

	rows := make([]intRow, numVar)
	for v := 0; v < numVar; v++ {
		left := make([]int64, numEq)
		for e := 0; e < numEq; e++ {
			x := a.Data[e][v]
			if !x.IsInt64() {
				return nil, false, false
			}
			left[e] = x.Int64()
			if left[e] > intLimit || left[e] < -intLimit {
				return nil, false, false
			}
		}
		right := make([]int64, numVar)
		right[v] = 1
		rows[v] = intRow{left, right, newMask(right)}
	}

	// maskContains reports small's support ⊆ big's support.
	maskContains := func(big, small []uint64) bool {
		for i := range small {
			if small[i]&^big[i] != 0 {
				return false
			}
		}
		return true
	}

	prune := func(rs []intRow) []intRow {
		var keep []intRow
		for i := range rs {
			minimal := true
			for j := range rs {
				if i == j {
					continue
				}
				if maskContains(rs[i].mask, rs[j].mask) {
					if !maskContains(rs[j].mask, rs[i].mask) {
						minimal = false // strictly smaller support exists
						break
					}
					if j < i { // equal support: keep the first
						minimal = false
						break
					}
				}
			}
			if minimal {
				keep = append(keep, rs[i])
			}
		}
		return keep
	}

	for e := 0; e < numEq; e++ {
		var zero, pos, neg []intRow
		for _, r := range rows {
			switch {
			case r.left[e] == 0:
				zero = append(zero, r)
			case r.left[e] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		next := zero
		for pi := range pos {
			for ni := range neg {
				rp, rn := &pos[pi], &neg[ni]
				cp := rn.left[e]
				if cp < 0 {
					cp = -cp
				}
				cn := rp.left[e]
				if cn < 0 {
					cn = -cn
				}
				left, right, okc := combine64(cp, cn, rp, rn)
				if !okc {
					return nil, false, false
				}
				next = append(next, intRow{left, right, newMask(right)})
				if len(next) > maxRows {
					return nil, true, true
				}
			}
		}
		rows = prune(next)
		if len(rows) > maxRows {
			return nil, true, true
		}
	}

	out = make([]Vec, 0, len(rows))
	for _, r := range rows {
		var g int64
		allZero := true
		for _, x := range r.right {
			if x != 0 {
				allZero = false
			}
			g = gcd64(g, x)
		}
		if allZero {
			continue
		}
		if g > 1 {
			for i := range r.right {
				r.right[i] /= g
			}
		}
		v := make(Vec, numVar)
		for i, x := range r.right {
			v[i] = big.NewInt(x)
		}
		out = append(out, v)
	}
	return out, false, true
}

// combine64 is the int64 tier's annihilation step: it builds
// cp·rp + cn·rn and GCD-normalises it. Coefficients and
// entries are ≤ intLimit, so a combined entry is at most 2·intLimit²
// < 2⁶² and the arithmetic cannot wrap; any entry beyond intLimit after
// GCD normalisation aborts the tier.
func combine64(cp, cn int64, rp, rn *intRow) ([]int64, []int64, bool) {
	left := make([]int64, len(rp.left))
	for i := range left {
		left[i] = cp*rp.left[i] + cn*rn.left[i]
	}
	right := make([]int64, len(rp.right))
	for i := range right {
		right[i] = cp*rp.right[i] + cn*rn.right[i]
	}
	var g int64
	for _, x := range left {
		g = gcd64(g, x)
	}
	for _, x := range right {
		g = gcd64(g, x)
	}
	if g > 1 {
		for i := range left {
			left[i] /= g
		}
		for i := range right {
			right[i] /= g
		}
	}
	for _, x := range left {
		if x > intLimit || x < -intLimit {
			return nil, nil, false
		}
	}
	for _, x := range right {
		if x > intLimit || x < -intLimit {
			return nil, nil, false
		}
	}
	return left, right, true
}

// gcd64 folds |x| into the running non-negative GCD g (g=0 is the
// identity, matching big.Int.GCD's treatment of the first operand).
func gcd64(g, x int64) int64 {
	if x < 0 {
		x = -x
	}
	for x != 0 {
		g, x = x, g%x
	}
	return g
}

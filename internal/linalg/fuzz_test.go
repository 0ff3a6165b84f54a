package linalg

import "testing"

// FuzzFarkasLadder differentially fuzzes the Farkas ladder: on arbitrary
// systems the int64 tier must either refuse (escalate) or reproduce the
// big.Int reference exactly — same rows, same order, same row-cap verdict
// — and the public MinimalSemiflows entry point must always agree with the
// reference. scale shifts the coefficients up to ~2⁴⁶ so the fuzzer
// reaches the big.Int fallback, not just the int64 tier.
func FuzzFarkasLadder(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), []byte{131, 127, 128, 128, 130, 127})
	f.Add(uint8(1), uint8(2), uint8(39), []byte{255, 0})
	f.Add(uint8(4), uint8(5), uint8(20), []byte("fcpn-farkas-ladder-seed!"))
	f.Add(uint8(3), uint8(3), uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols, scale uint8, data []byte) {
		nr, nc := int(rows%5)+1, int(cols%6)+1
		mult := int64(1) << (scale % 40)
		a := NewMat(nr, nc)
		k := 0
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				var b byte
				if k < len(data) {
					b = data[k]
					k++
				}
				a.Data[i][j].SetInt64((int64(b) - 128) * mult)
			}
		}
		// A small cap keeps adversarial systems fast while still
		// exercising the capped-verdict agreement.
		const maxRows = 2000
		ref, refOK := minimalSemiflowsBig(a, maxRows)

		// ok=false is a legitimate escalation: big.Int answers instead.
		if out, capped, ok := minimalSemiflowsInt(a, maxRows); ok {
			if capped == refOK {
				t.Fatalf("int64 tier capped=%v but reference ok=%v\nA:\n%s", capped, refOK, a)
			}
			if !capped && !vecsEqual(out, ref) {
				t.Fatalf("int64 tier diverges\nA:\n%s\ntier: %v\nref:  %v", a, out, ref)
			}
		}

		got, gotOK := MinimalSemiflows(a, maxRows)
		if gotOK != refOK {
			t.Fatalf("ladder ok=%v, reference ok=%v\nA:\n%s", gotOK, refOK, a)
		}
		if gotOK && !vecsEqual(got, ref) {
			t.Fatalf("ladder diverges\nA:\n%s\nladder: %v\nref:    %v", a, got, ref)
		}
	})
}

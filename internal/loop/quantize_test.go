package loop

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tigris/internal/registration"
)

func TestQuantizeSignatureRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, 33)
		for i := range v {
			v[i] = r.Float64()*20 - 10
		}
		q := quantizeSignature(v)
		if len(q.Codes) != len(v) {
			t.Fatalf("code count %d, want %d", len(q.Codes), len(v))
		}
		// Dequantization error is bounded by half a code step per
		// dimension.
		half := q.Scale/2 + 1e-12
		for i, x := range v {
			if d := math.Abs(q.At(i) - x); d > half {
				t.Fatalf("dim %d: error %g exceeds half-step %g", i, d, half)
			}
		}
		dq := q.Dequantize()
		for i := range dq {
			if dq[i] != q.At(i) {
				t.Fatal("Dequantize disagrees with At")
			}
		}
	}
}

func TestQuantizeSignatureDegenerate(t *testing.T) {
	if q := quantizeSignature(nil); len(q.Codes) != 0 {
		t.Errorf("empty signature: %+v", q)
	}
	// A constant vector has zero range: every code dequantizes to the
	// constant exactly.
	q := quantizeSignature([]float64{3.5, 3.5, 3.5})
	for i := 0; i < 3; i++ {
		if q.At(i) != 3.5 {
			t.Fatalf("constant vector dim %d dequantized to %v", i, q.At(i))
		}
	}
}

// TestQuantizedClosureSetUnchanged holds the uint8 signatures to the
// closure set float64 signatures gave: over a drift-circuit sequence a
// detector that kept exact signatures accepted one closure, 41 → 1
// (recorded when that mode was deleted), and the quantized detector must
// accept exactly it, while retaining ~8x less signature memory.
func TestQuantizedClosureSetUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline verification")
	}
	perLap := 40
	frames := perLap + 6
	seq := circuitSequence(t, frames, perLap)
	cfg := slamPipeline(t)

	det, err := NewDetector(Config{Backend: "twostage", MinSeparation: perLap - 2, MaxCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	var accepted [][2]int
	for i, f := range seq.Frames {
		pf := registration.PrepareFrame(f, cfg)
		cands := det.Observe(i, pf)
		pf.Release()
		for _, cand := range cands {
			if cl, ok := det.Verify(cand, cfg); ok {
				accepted = append(accepted, [2]int{cl.From, cl.To})
				break
			}
		}
	}
	if want := [][2]int{{41, 1}}; !reflect.DeepEqual(accepted, want) {
		t.Fatalf("accepted closures %v, exact signatures gave %v", accepted, want)
	}
	// The retained signature memory must reflect the 8x code shrink:
	// well under what float64 vectors would cost.
	var got int
	for _, sig := range det.sigs {
		got += len(sig.q.Codes) + 16 // codes + the affine pair
	}
	if float64Bytes := frames * 33 * 8; got >= float64Bytes/4 { // 33 = FPFH
		t.Errorf("quantized signature memory %d B not well below float64 %d B", got, float64Bytes)
	}
}

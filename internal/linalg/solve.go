package linalg

import (
	"errors"
	"fmt"
	"math"
)

// errSingular is returned when a linear system has no unique solution.
var errSingular = errors.New("linalg: singular matrix")

// SolveDense solves the n×n system A·x = b in place using Gaussian
// elimination with partial pivoting. A is given row-major as a flat slice
// of length n*n and is destroyed; b receives x. Nothing is allocated, so
// a caller retrying with a different damping refills its own buffers. On
// an error both are left partly eliminated. The Levenberg–Marquardt
// solvers use this for their (J'J + λI)δ = J'r normal equations (6×6 for
// ICP, 6(N−1) square for the pose graph).
func SolveDense(a []float64, b []float64) error {
	n := len(b)
	if len(a) != n*n {
		return fmt.Errorf("linalg: matrix size %d does not match vector size %d", len(a), n)
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest remaining entry in this column.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r*n+col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-300 {
			return errSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[pivot*n+c] = a[pivot*n+c], a[col*n+c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		// Eliminate below the pivot.
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r*n+c] * b[c]
		}
		b[r] = s / a[r*n+r]
	}
	return nil
}

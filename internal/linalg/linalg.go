// Package linalg implements the small dense vector/matrix kernels that the
// TS-PPR trainer needs: inner products, scaled accumulation (axpy),
// rank-one (outer product) updates and Frobenius norms.
//
// The dimensions involved are tiny (K ≈ 40 latent factors, F = 4 observable
// features), so the package favors simple, bounds-check-friendly loops over
// cleverness. Matrices are dense row-major slices to keep per-user
// transform matrices A_u cache-friendly and trivially serializable.
package linalg

import (
	"fmt"
	"math"

	"tsppr/internal/rngutil"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Dot returns the inner product xᵀy. It panics on dimension mismatch: a
// silent truncation would corrupt training invisibly.
//
// The body is 4-way unrolled but keeps a single accumulator added in
// ascending index order: the summation order is observable behaviour
// (model scores must reproduce bit for bit across the precomputed and
// per-call folds, see core.Model.Precompute), so the unroll may only
// shave loop and bounds-check overhead, never reassociate the adds.
func Dot(x, y Vector) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4, y4 := x[i:i+4:i+4], y[i:i+4:i+4]
		s += x4[0] * y4[0]
		s += x4[1] * y4[1]
		s += x4[2] * y4[2]
		s += x4[3] * y4[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy performs y += a*x in place.
func Axpy(a float64, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy dimension mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale performs x *= a in place.
func Scale(a float64, x Vector) {
	for i := range x {
		x[i] *= a
	}
}

// Sub stores x-y into dst and returns dst. dst may alias x or y.
func Sub(dst, x, y Vector) Vector {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("linalg: Sub dimension mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// Copy copies src into dst. It panics on length mismatch.
func Copy(dst, src Vector) {
	if len(dst) != len(src) {
		panic("linalg: Copy dimension mismatch")
	}
	copy(dst, src)
}

// Norm2 returns the Euclidean norm ‖x‖₂.
func Norm2(x Vector) float64 {
	return math.Sqrt(Dot(x, x))
}

// Clone returns a deep copy of x.
func (x Vector) Clone() Vector {
	c := make(Vector, len(x))
	copy(c, x)
	return c
}

// Matrix is a dense row-major rows×cols matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = M·x where x has length Cols and dst length Rows.
// dst must not alias x. It returns dst for chaining.
func (m *Matrix) MulVec(dst, x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec input length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec output length %d != rows %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : i*m.Cols+m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// AddOuter performs M += a · u vᵀ in place (a rank-one update), where u has
// length Rows and v has length Cols. This is the gradient step for the
// per-user transform matrix A_u (paper Eq. 15).
func (m *Matrix) AddOuter(a float64, u, v Vector) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic("linalg: AddOuter dimension mismatch")
	}
	for i, ui := range u {
		row := m.Data[i*m.Cols : i*m.Cols+m.Cols]
		s := a * ui
		for j, vj := range v {
			row[j] += s * vj
		}
	}
}

// ScaleInPlace performs M *= a in place.
func (m *Matrix) ScaleInPlace(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// FrobeniusNorm returns ‖M‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobeniusNormSq returns ‖M‖_F², which is what the regularizer needs —
// avoiding the sqrt keeps objective evaluation cheap.
func (m *Matrix) FrobeniusNormSq() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return s
}

// FillGaussian fills m with N(0, stddev²) variates from rng.
func (m *Matrix) FillGaussian(rng *rngutil.RNG, stddev float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
}

// FillGaussianVec fills x with N(0, stddev²) variates from rng.
func FillGaussianVec(rng *rngutil.RNG, x Vector, stddev float64) {
	for i := range x {
		x[i] = rng.NormFloat64() * stddev
	}
}

// Equal reports whether a and b have the same shape and all elements agree
// to within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

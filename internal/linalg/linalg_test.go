package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"tsppr/internal/rngutil"
)

func TestDot(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot(Vector{}, Vector{}); got != 0 {
		t.Errorf("empty Dot = %v", got)
	}
}

func TestDotSymmetry(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := Vector(a[:]), Vector(b[:])
		for _, v := range append(append([]float64{}, a[:]...), b[:]...) {
			// Skip inputs whose products overflow: Inf−Inf accumulation
			// yields NaN, and NaN ≠ NaN would be a false failure.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestAxpy(t *testing.T) {
	y := Vector{1, 1, 1}
	Axpy(2, Vector{1, 2, 3}, y)
	want := Vector{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestScaleSub(t *testing.T) {
	x := Vector{2, 4}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Scale = %v", x)
	}
	dst := NewVector(2)
	Sub(dst, Vector{5, 6}, Vector{1, 2})
	if dst[0] != 4 || dst[1] != 4 {
		t.Errorf("Sub = %v", dst)
	}
	// Aliased destination.
	a := Vector{5, 6}
	Sub(a, a, Vector{1, 2})
	if a[0] != 4 || a[1] != 4 {
		t.Errorf("aliased Sub = %v", a)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2(Vector{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestVectorClone(t *testing.T) {
	x := Vector{1, 2}
	c := x.Clone()
	c[0] = 9
	if x[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Errorf("Row = %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Error("Row must alias the matrix storage")
	}
}

func TestIdentityMulVec(t *testing.T) {
	m := Identity(3)
	x := Vector{1, 2, 3}
	dst := NewVector(3)
	m.MulVec(dst, x)
	for i := range x {
		if dst[i] != x[i] {
			t.Fatalf("I·x = %v", dst)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(2)
	m.MulVec(dst, Vector{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestMulVecPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, tc := range []struct{ in, out int }{{2, 2}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MulVec with in=%d out=%d should panic", tc.in, tc.out)
				}
			}()
			m.MulVec(NewVector(tc.out), NewVector(tc.in))
		}()
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

// AddOuter must agree with MulVec: (M + a·u vᵀ)·x == M·x + a·(vᵀx)·u.
func TestAddOuterMulVecConsistency(t *testing.T) {
	rng := rngutil.New(4)
	m := NewMatrix(5, 3)
	m.FillGaussian(rng, 1)
	u, v, x := NewVector(5), NewVector(3), NewVector(3)
	FillGaussianVec(rng, u, 1)
	FillGaussianVec(rng, v, 1)
	FillGaussianVec(rng, x, 1)

	before := NewVector(5)
	m.MulVec(before, x)
	m2 := m.Clone()
	m2.AddOuter(0.7, u, v)
	after := NewVector(5)
	m2.MulVec(after, x)

	scale := 0.7 * Dot(v, x)
	for i := range after {
		want := before[i] + scale*u[i]
		if math.Abs(after[i]-want) > 1e-12 {
			t.Fatalf("row %d: got %v want %v", i, after[i], want)
		}
	}
}

func TestFrobenius(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 2, 4})
	if got := m.FrobeniusNormSq(); got != 25 {
		t.Errorf("FrobeniusNormSq = %v", got)
	}
	if got := m.FrobeniusNorm(); got != 5 {
		t.Errorf("FrobeniusNorm = %v", got)
	}
}

func TestScaleInPlace(t *testing.T) {
	m := NewMatrix(1, 2)
	copy(m.Data, []float64{2, 4})
	m.ScaleInPlace(0.5)
	if m.Data[0] != 1 || m.Data[1] != 2 {
		t.Errorf("ScaleInPlace = %v", m.Data)
	}
}

func TestMatrixCloneAndEqual(t *testing.T) {
	rng := rngutil.New(1)
	m := NewMatrix(3, 4)
	m.FillGaussian(rng, 1)
	c := m.Clone()
	if !Equal(m, c, 0) {
		t.Fatal("clone differs")
	}
	c.Data[0] += 1
	if Equal(m, c, 0.5) {
		t.Fatal("Equal ignored a 1.0 difference at tol 0.5")
	}
	if Equal(m, NewMatrix(4, 3), 1e9) {
		t.Fatal("Equal ignored shape mismatch")
	}
}

func TestFillGaussianMoments(t *testing.T) {
	rng := rngutil.New(6)
	m := NewMatrix(200, 200)
	m.FillGaussian(rng, 0.5)
	var sum, sumSq float64
	for _, v := range m.Data {
		sum += v
		sumSq += v * v
	}
	n := float64(len(m.Data))
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean %v too far from 0", mean)
	}
	if math.Abs(sd-0.5) > 0.01 {
		t.Errorf("stddev %v too far from 0.5", sd)
	}
}

func BenchmarkDot40(b *testing.B) {
	x, y := NewVector(40), NewVector(40)
	rng := rngutil.New(1)
	FillGaussianVec(rng, x, 1)
	FillGaussianVec(rng, y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkMulVec40x4(b *testing.B) {
	m := NewMatrix(40, 4)
	m.FillGaussian(rngutil.New(1), 1)
	x, dst := NewVector(4), NewVector(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkAddOuter40x4(b *testing.B) {
	m := NewMatrix(40, 4)
	u, v := NewVector(40), NewVector(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddOuter(0.01, u, v)
	}
}

func TestCopy(t *testing.T) {
	dst := NewVector(3)
	Copy(dst, Vector{1, 2, 3})
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("Copy = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Copy(NewVector(2), Vector{1, 2, 3})
}

func TestAxpyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, Vector{1}, Vector{1, 2})
}

func TestSubPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sub(NewVector(2), Vector{1}, Vector{1, 2})
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 3)
}

func TestAddOuterPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddOuter(1, Vector{1, 2, 3}, Vector{1, 2, 3})
}

// naiveDot is the unrolled Dot's reference: one accumulator, ascending
// index order, no unrolling. The unroll may only shave loop overhead —
// any reassociation of the adds would change observable model scores —
// so the two must agree bit for bit, not just within tolerance.
func naiveDot(x, y Vector) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestDotBitIdenticalToNaive(t *testing.T) {
	rng := rngutil.New(9)
	for n := 0; n <= 10; n++ {
		x, y := NewVector(n), NewVector(n)
		FillGaussianVec(rng, x, 1e3)
		FillGaussianVec(rng, y, 1e3)
		got, want := Dot(x, y), naiveDot(x, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: Dot = %x, naive = %x", n, got, want)
		}
	}
	f := func(a, b [13]float64) bool {
		x, y := Vector(a[:]), Vector(b[:])
		got, want := Dot(x, y), naiveDot(x, y)
		return math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

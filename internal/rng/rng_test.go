package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 of the same seed collided %d/100 times", same)
	}
}

func TestSplitIsDeterministicAndIndependent(t *testing.T) {
	parent1 := New(9)
	parent2 := New(9)
	c1 := parent1.Split()
	c2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// A second split must differ from the first.
	d := parent1.Split()
	c := New(9).Split()
	diff := false
	for i := 0; i < 32; i++ {
		if d.Uint64() != c.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("consecutive splits produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 30000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Fatalf("Intn(7) never produced %d", v)
		}
		// Each bucket should be near 30000/7 ≈ 4285.
		if seen[v] < 3800 || seen[v] > 4800 {
			t.Fatalf("Intn(7) bucket %d count %d is biased", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("invalid permutation %v", p)
			}
			seen[v] = true
		}
	}
}

func TestExpMoments(t *testing.T) {
	r := New(10)
	const n = 200000
	rate := 2.5
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean %v too far from %v", mean, 1/rate)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestZipf(t *testing.T) {
	w := Zipf(10, 1.0, 100)
	if len(w) != 10 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d non-positive: %v", i, v)
		}
		if i > 0 && v > w[i-1] {
			t.Fatalf("weights not decreasing at %d: %v > %v", i, v, w[i-1])
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("weights sum %v != 100", sum)
	}
	if Zipf(0, 1, 1) != nil {
		t.Fatal("Zipf(0) should be nil")
	}
}

func TestBoundedUint64Property(t *testing.T) {
	r := New(11)
	f := func(bound uint16) bool {
		if bound == 0 {
			return true
		}
		v := r.boundedUint64(uint64(bound))
		return v < uint64(bound)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	a, b := New(7), New(7)
	_ = a.Fork(0)
	_ = a.Fork(1)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Fork advanced the parent (draw %d)", i)
		}
	}
}

func TestForkOrderAndWorkerCountIndependence(t *testing.T) {
	// The stream of child i must depend only on (parent state, i) — never on
	// how many other children were forked first or in which order. This is
	// exactly the property the engine relies on for worker-count-independent
	// results.
	const children = 32
	want := make([][]uint64, children)
	parent := New(42)
	for i := 0; i < children; i++ {
		c := parent.Fork(uint64(i))
		for j := 0; j < 8; j++ {
			want[i] = append(want[i], c.Uint64())
		}
	}
	// Fork in reverse order, interleaving draws, from a fresh parent.
	parent = New(42)
	kids := make([]*Rand, children)
	for i := children - 1; i >= 0; i-- {
		kids[i] = parent.Fork(uint64(i))
	}
	for j := 0; j < 8; j++ {
		for i := 0; i < children; i++ {
			if got := kids[i].Uint64(); got != want[i][j] {
				t.Fatalf("child %d draw %d: got %#x want %#x", i, j, got, want[i][j])
			}
		}
	}
}

func TestForkChildrenDistinct(t *testing.T) {
	parent := New(3)
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		v := parent.Fork(i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("children %d and %d share first draw %#x", prev, i, v)
		}
		seen[v] = i
	}
}

func TestForkDiffersFromParentStream(t *testing.T) {
	parent := New(9)
	child := parent.Fork(0)
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Fork(0).Uint64() == child.Uint64() {
			// parent state unchanged, so Fork(0) repeats child's stream —
			// but child has advanced; only the first draw may collide.
			same++
		}
	}
	if same > 1 {
		t.Fatalf("child stream looks degenerate: %d collisions", same)
	}
}

// TestIntoFormsMatch: ForkInto and SplitInto, writing into a generator that
// already holds some other stream, give the streams Fork and Split return
// and leave the parent exactly as Fork and Split do.
func TestIntoFormsMatch(t *testing.T) {
	f := func(seed, stream, i uint64, warm uint8) bool {
		a, b := NewStream(seed, stream), NewStream(seed, stream)
		for k := 0; k < int(warm); k++ {
			a.Uint64()
			b.Uint64()
		}
		dst := New(^seed)
		dst.Uint64()
		want := a.Fork(i)
		b.ForkInto(dst, i)
		if *dst != *want || *a != *b {
			return false
		}
		want = a.Split()
		b.SplitInto(dst)
		if *dst != *want || *a != *b {
			return false
		}
		for k := 0; k < 8; k++ {
			if dst.Uint64() != want.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package chain

import (
	"math"
	"testing"

	"gameofcoins/internal/rng"
)

func params() Params {
	return Params{
		Name:               "test",
		TargetBlockSeconds: 600,
		RetargetWindow:     100,
		MaxRetargetFactor:  4,
		BlockSubsidy:       6.25,
		InitialDifficulty:  600, // hashrate 1 → one block per 600s on average
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TargetBlockSeconds = 0 },
		func(p *Params) { p.RetargetWindow = 0 },
		func(p *Params) { p.MaxRetargetFactor = 0.5 },
		func(p *Params) { p.BlockSubsidy = -1 },
		func(p *Params) { p.InitialDifficulty = 0 },
	}
	for i, mutate := range bad {
		p := params()
		mutate(&p)
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := New(params()); err != nil {
		t.Fatal(err)
	}
}

func TestBlockProductionRate(t *testing.T) {
	c, err := New(params())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	// Hashrate exactly at difficulty/target → expect ~1 block per 600s.
	const horizon = 600 * 10000
	blocks := c.Advance(r, horizon, 1)
	got := float64(len(blocks))
	want := 10000.0
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("mined %v blocks, want ≈%v", got, want)
	}
}

func TestAdvanceZeroHashrate(t *testing.T) {
	c, _ := New(params())
	blocks := c.Advance(rng.New(1), 1e6, 0)
	if blocks != nil || c.height != 0 {
		t.Fatal("blocks mined with zero hashrate")
	}
	if c.now != 1e6 {
		t.Fatal("time did not advance")
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	c, _ := New(params())
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt did not panic")
		}
	}()
	c.Advance(rng.New(1), -1, 1)
}

func TestDifficultyRetargetsUpwardUnderHighHashrate(t *testing.T) {
	c, _ := New(params())
	r := rng.New(2)
	d0 := c.difficulty
	// 10× the calibrated hashrate: blocks come 10× too fast; difficulty must
	// climb toward 10·d0 so that block time returns to target.
	for i := 0; i < 200; i++ {
		c.Advance(r, 24*3600, 10)
	}
	if c.difficulty < 5*d0 {
		t.Fatalf("difficulty %v did not rise (start %v)", c.difficulty, d0)
	}
	// After convergence the realized block rate should be near target again.
	h0 := c.height
	t0 := c.now
	c.Advance(r, 600*5000, 10)
	rate := float64(c.height-h0) / (c.now - t0)
	if math.Abs(rate-1.0/600)/(1.0/600) > 0.1 {
		t.Fatalf("post-retarget block rate %v, want ≈%v", rate, 1.0/600)
	}
}

func TestDifficultyRetargetsDownward(t *testing.T) {
	c, _ := New(params())
	r := rng.New(3)
	d0 := c.difficulty
	for i := 0; i < 400; i++ {
		c.Advance(r, 24*3600, 0.1) // 10× too slow
	}
	if c.difficulty > d0/5 {
		t.Fatalf("difficulty %v did not fall (start %v)", c.difficulty, d0)
	}
}

func TestRetargetClamped(t *testing.T) {
	p := params()
	p.RetargetWindow = 10
	c, _ := New(p)
	r := rng.New(4)
	d0 := c.difficulty
	// Mine one full window at 1000× hashrate; the single adjustment must be
	// clamped at 4×.
	for c.height < p.RetargetWindow {
		c.Advance(r, 1, 1000)
	}
	if got := c.difficulty / d0; got > p.MaxRetargetFactor+1e-9 {
		t.Fatalf("retarget factor %v exceeds clamp %v", got, p.MaxRetargetFactor)
	}
}

func TestFeesCollectedByNextBlock(t *testing.T) {
	c, _ := New(params())
	r := rng.New(5)
	if err := c.InjectFees(100); err != nil {
		t.Fatal(err)
	}
	if c.PendingFees() != 100 {
		t.Fatal("fees not pending")
	}
	var blocks []Block
	for len(blocks) == 0 {
		blocks = c.Advance(r, 3600, 1)
	}
	if blocks[0].Fees != 100 {
		t.Fatalf("first block fees = %v", blocks[0].Fees)
	}
	if c.PendingFees() != 0 {
		t.Fatal("fees not cleared")
	}
	for _, b := range blocks[1:] {
		if b.Fees != 0 {
			t.Fatalf("later block carries fees: %+v", b)
		}
	}
}

func TestInjectNegativeFees(t *testing.T) {
	c, _ := New(params())
	if err := c.InjectFees(-1); err == nil {
		t.Fatal("negative fees accepted")
	}
}

func TestBlockFieldsMonotone(t *testing.T) {
	c, _ := New(params())
	r := rng.New(6)
	blocks := c.Advance(r, 600*100, 1)
	for i, b := range blocks {
		if b.Height != i {
			t.Fatalf("block %d has height %d", i, b.Height)
		}
		if i > 0 && b.Time <= blocks[i-1].Time {
			t.Fatalf("non-increasing block times at %d", i)
		}
		if b.Subsidy != 6.25 {
			t.Fatalf("block subsidy = %v", b.Subsidy)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	a, _ := New(params())
	b, _ := New(params())
	ba := a.Advance(rng.New(42), 600*200, 3)
	bb := b.Advance(rng.New(42), 600*200, 3)
	if len(ba) != len(bb) {
		t.Fatal("non-deterministic block count")
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("block %d differs", i)
		}
	}
}

func TestSubsidyHalving(t *testing.T) {
	p := params()
	p.HalvingInterval = 10
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Subsidy() != 6.25 {
		t.Fatalf("genesis subsidy = %v", c.Subsidy())
	}
	r := rng.New(9)
	var blocks []Block
	for len(blocks) < 25 {
		blocks = append(blocks, c.Advance(r, 600*10, 1)...)
	}
	// Blocks 0-9 carry 6.25; 10-19 carry 3.125; 20+ carry 1.5625.
	for _, b := range blocks[:25] {
		want := 6.25
		switch {
		case b.Height >= 20:
			want = 1.5625
		case b.Height >= 10:
			want = 3.125
		}
		if b.Subsidy != want {
			t.Fatalf("block %d subsidy = %v, want %v", b.Height, b.Subsidy, want)
		}
	}
}

func TestHalvingDisabledByDefault(t *testing.T) {
	c, _ := New(params())
	r := rng.New(10)
	blocks := c.Advance(r, 600*50, 1)
	for _, b := range blocks {
		if b.Subsidy != 6.25 {
			t.Fatalf("subsidy changed without halving: %+v", b)
		}
	}
}

func TestNegativeHalvingRejected(t *testing.T) {
	p := params()
	p.HalvingInterval = -1
	if _, err := New(p); err == nil {
		t.Fatal("negative halving interval accepted")
	}
}

func TestHalvingLowersExpectedReward(t *testing.T) {
	p := params()
	p.HalvingInterval = 5
	c, _ := New(p)
	r := rng.New(11)
	for c.height < 5 {
		c.Advance(r, 60, 1)
	}
	// Whatever height we landed on, the subsidy must match the halving era.
	want := 6.25
	for h := c.height / 5; h > 0; h-- {
		want /= 2
	}
	if c.Subsidy() != want {
		t.Fatalf("subsidy at height %d = %v, want %v", c.height, c.Subsidy(), want)
	}
	if c.Subsidy() >= 6.25 {
		t.Fatal("halving did not lower the subsidy")
	}
}

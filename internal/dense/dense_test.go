package dense

import "testing"

func TestGrowReusesCapacity(t *testing.T) {
	s := make([]int, 0, 8)
	g := Grow(s, 5)
	if len(g) != 5 || cap(g) != 8 {
		t.Fatalf("Grow kept len=%d cap=%d, want 5/8", len(g), cap(g))
	}
	g2 := Grow(g, 16)
	if len(g2) != 16 {
		t.Fatalf("Grow len=%d, want 16", len(g2))
	}
}

func TestGrowHeadroom(t *testing.T) {
	if g := Grow([]int(nil), 64); len(g) != 64 || cap(g) != 64 {
		t.Fatalf("first Grow len=%d cap=%d, want exact 64/64", len(g), cap(g))
	}
	g := Grow(make([]int, 64), 80)
	if len(g) != 80 || cap(g) != 90 {
		t.Fatalf("regrow len=%d cap=%d, want 80/90", len(g), cap(g))
	}
	// The headroom absorbs the next few growth steps in place.
	if g2 := Grow(g, 90); &g2[0] != &g[0] {
		t.Fatal("Grow within headroom reallocated")
	}
}

func TestZero(t *testing.T) {
	s := []int{1, 2, 3, 4}
	z := Zero(s, 3)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Zero[%d] = %d", i, v)
		}
	}
}

func TestCSRBuild(t *testing.T) {
	// Rows: 0 -> {10, 11}, 1 -> {}, 2 -> {12}.
	var c CSR[int]
	for rebuild := 0; rebuild < 3; rebuild++ {
		c.Reset(3)
		c.Count(0)
		c.Count(2)
		c.Count(0)
		c.Seal()
		c.Append(0, 10)
		c.Append(2, 12)
		c.Append(0, 11)
		if got := c.Row(0); len(got) != 2 || got[0] != 10 || got[1] != 11 {
			t.Fatalf("row 0 = %v", got)
		}
		if c.Len(1) != 0 {
			t.Fatalf("row 1 len = %d", c.Len(1))
		}
		if got := c.Row(2); len(got) != 1 || got[0] != 12 {
			t.Fatalf("row 2 = %v", got)
		}
		if c.Rows() != 3 {
			t.Fatalf("rows = %d", c.Rows())
		}
	}
}

package cts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// randomFFField builds a design with n flip-flops scattered over a die,
// all on one clock.
func randomFFField(t testing.TB, n int, seed int64, twoTier bool) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("field")
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ff, _ := d.AddInstance("ff"+itoa(i), lib12.Smallest(cell.FuncDFF))
		ff.Loc = geom.Pt(rng.Float64()*120, rng.Float64()*120)
		if twoTier {
			ff.Tier = tech.Tier(rng.Intn(2))
		}
		if err := d.Connect(ff, "D", in); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(ff, "CK", clk); err != nil {
			t.Fatal(err)
		}
		q, _ := d.AddNet("q" + itoa(i))
		if err := d.Connect(ff, "Q", q); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// Property: for random sink fields, CTS produces a valid design where
// every flip-flop has a latency in (0, MaxLatency], skew = max − min, and
// no clock net exceeds the leaf fanout cap.
func TestBuildRandomFieldInvariants(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := 5 + int(sizeSel%120)
		d := randomFFField(t, n, seed, false)
		opt := DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil})
		res, err := Build(d, opt)
		if err != nil {
			return false
		}
		if err := d.Validate(); err != nil {
			return false
		}
		if len(res.Latency) != n {
			return false
		}
		min, max := res.MaxLatency, 0.0
		for _, lat := range res.Latency {
			if lat <= 0 || lat > res.MaxLatency+1e-12 {
				return false
			}
			if lat < min {
				min = lat
			}
			if lat > max {
				max = lat
			}
		}
		if max != res.MaxLatency || min != res.MinLatency {
			return false
		}
		if res.MaxSkew != res.MaxLatency-res.MinLatency {
			return false
		}
		for _, net := range d.Nets {
			if !net.IsClock {
				continue
			}
			ffs := 0
			for _, s := range net.Sinks {
				if s.Spec().Dir == cell.DirClk && s.Inst.Master.Function.IsSequential() {
					ffs++
				}
			}
			if ffs > opt.MaxLeafFanout {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: hetero trees on random two-tier fields are always top-heavy
// and use only per-tier-correct libraries.
func TestBuildHeteroRandomFieldPolicy(t *testing.T) {
	f := func(seed int64) bool {
		d := randomFFField(t, 60, seed, true)
		res, err := Build(d, DefaultOptions(ModeHetero3D, [2]*cell.Library{lib12, lib9}))
		if err != nil {
			return false
		}
		for _, buf := range res.Buffers {
			want := tech.Track12
			if buf.Tier == tech.TierTop {
				want = tech.Track9
			}
			if buf.Master.Track != want {
				return false
			}
		}
		// With both tiers populated the top must dominate.
		return res.CountByTier[tech.TierTop] >= res.CountByTier[tech.TierBottom]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Clustered sinks must yield a lower-skew tree than the same number of
// sinks scattered across the die — the geometric sanity of the median
// splits.
func TestSkewScalesWithSpread(t *testing.T) {
	mk := func(spread float64) float64 {
		d := netlist.New("spread")
		clk, _ := d.AddNet("clk")
		clk.IsClock = true
		if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
			t.Fatal(err)
		}
		in, _ := d.AddNet("in")
		if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 80; i++ {
			ff, _ := d.AddInstance("ff"+itoa(i), lib12.Smallest(cell.FuncDFF))
			ff.Loc = geom.Pt(60+rng.Float64()*spread-spread/2, 60+rng.Float64()*spread-spread/2)
			if err := d.Connect(ff, "D", in); err != nil {
				t.Fatal(err)
			}
			if err := d.Connect(ff, "CK", clk); err != nil {
				t.Fatal(err)
			}
			q, _ := d.AddNet("q" + itoa(i))
			if err := d.Connect(ff, "Q", q); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Build(d, DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil}))
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxSkew
	}
	tight := mk(10)
	wide := mk(200)
	if wide <= tight {
		t.Errorf("spread 200 skew %v should exceed spread 10 skew %v", wide, tight)
	}
}

// Oracle: walk the built netlist from the clock port, following pin
// bindings rather than the builder's node tree. The port net must feed
// exactly the root buffer, every buffer and every flip-flop clock pin
// must be reached exactly once, and the latency of each flip-flop and
// the skew, recomputed over the walk with the same Elmore model, must
// equal the result's.
func TestBuildNetlistOracle(t *testing.T) {
	rt := route.New()
	avgR, avgC, miv := rt.Stack.AvgR(), rt.Stack.AvgC(), rt.MIV
	for _, mode := range []Mode{Mode2D, ModeHetero3D} {
		libs := [2]*cell.Library{lib12, nil}
		if mode == ModeHetero3D {
			libs[1] = lib9
		}
		rng := rand.New(rand.NewSource(int64(mode) + 11))
		for trial := 0; trial < 12; trial++ {
			n := 5 + rng.Intn(300)
			d := randomFFField(t, n, rng.Int63(), mode == ModeHetero3D)
			res, err := Build(d, DefaultOptions(mode, libs))
			if err != nil {
				t.Fatal(err)
			}
			isBuf := make(map[*netlist.Instance]bool, len(res.Buffers))
			for _, b := range res.Buffers {
				isBuf[b] = true
			}
			clk := d.Port("clk").Net
			if len(clk.Sinks) != 1 || !isBuf[clk.Sinks[0].Inst] || clk.Sinks[0].Spec().Name != "A" {
				t.Fatalf("mode %d trial %d: clock port net sinks %v, want the root buffer's A", mode, trial, clk.Sinks)
			}

			reached := make(map[*netlist.Instance]int)
			latency := make(map[int]float64)
			var walk func(buf *netlist.Instance, arrival, inSlew float64)
			walk = func(buf *netlist.Instance, arrival, inSlew float64) {
				reached[buf]++
				out := d.OutputNet(buf)
				wl := 0.0
				for _, s := range out.Sinks {
					wl += buf.Loc.ManhattanDist(s.Loc())
				}
				load := out.TotalPinCap() + wl*avgC
				after := arrival + buf.Master.Delay.Lookup(inSlew, load)
				outSlew := buf.Master.OutSlew.Lookup(inSlew, load)
				for _, s := range out.Sinks {
					dist := buf.Loc.ManhattanDist(s.Loc())
					wd := tech.RCps(dist*avgR, dist*avgC/2+s.Spec().Cap)
					if s.Inst.Tier != buf.Tier {
						wd += tech.RCps(miv.R, miv.C)
					}
					switch {
					case isBuf[s.Inst] && s.Spec().Name == "A":
						walk(s.Inst, after+wd, outSlew+wd)
					case s.Spec().Dir == cell.DirClk && s.Inst.Master.Function.IsSequential():
						reached[s.Inst]++
						latency[s.Inst.ID] = after + wd
					default:
						t.Fatalf("mode %d trial %d: clock net %s feeds %s/%s", mode, trial, out.Name, s.Inst.Name, s.Spec().Name)
					}
				}
			}
			walk(clk.Sinks[0].Inst, 0, 0.02)

			ffs := 0
			for _, inst := range d.Instances {
				want := 0
				if isBuf[inst] || inst.Master.Function.IsSequential() {
					want = 1
				}
				if reached[inst] != want {
					t.Fatalf("mode %d trial %d: %s reached %d times, want %d", mode, trial, inst.Name, reached[inst], want)
				}
				if inst.Master.Function.IsSequential() {
					ffs++
				}
			}
			if ffs != n || len(latency) != n || len(res.Latency) != n {
				t.Fatalf("mode %d trial %d: %d flip-flops, %d walked latencies, %d reported", mode, trial, ffs, len(latency), len(res.Latency))
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for id, lat := range latency {
				if res.Latency[id] != lat {
					t.Fatalf("mode %d trial %d: instance %d latency %v, walk gives %v", mode, trial, id, res.Latency[id], lat)
				}
				lo, hi = math.Min(lo, lat), math.Max(hi, lat)
			}
			if res.MaxSkew != hi-lo {
				t.Fatalf("mode %d trial %d: skew %v, walk gives %v", mode, trial, res.MaxSkew, hi-lo)
			}
		}
	}
}

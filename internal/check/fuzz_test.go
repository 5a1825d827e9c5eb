package check

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// FuzzJournalCoherence drives a design through random sequences of
// journaled mutations (SetLoc/SetTier/InsertBuffer/ReplaceMaster) across
// Session boundaries and asserts the engine-coherence rules stay green:
// the journal keeps covering every object, the levelization stays
// topological, and revisions never move backwards. Any red ENG finding means
// a journaled API broke its own contract.
func FuzzJournalCoherence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x41, 0x13, 0x7f})
	f.Add([]byte{0x22, 0x31, 0x02, 0x13, 0x24, 0x35, 0x06, 0x17})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		d, _ := chain(t, 6)
		buf := lib12.Smallest(cell.FuncBuf)
		var session Session
		in := func() Input {
			return Input{Design: d, Tiers: 2, Libs: [2]*cell.Library{lib12, nil}}
		}
		bufN := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			insts := d.Instances
			inst := insts[int(arg)%len(insts)]
			switch op % 4 {
			case 0:
				inst.SetLoc(geom.Pt(float64(arg)*0.3, float64(arg)*0.2))
			case 1:
				inst.SetTier(tech.Tier(arg % 2))
			case 2:
				nets := d.Nets
				n := nets[int(arg)%len(nets)]
				if len(n.Sinks) == 0 {
					continue
				}
				bufN++
				if _, _, err := d.InsertBuffer(n, n.Sinks[:1], buf, fmt.Sprintf("fz_buf%d", bufN)); err != nil {
					t.Fatalf("InsertBuffer: %v", err)
				}
			case 3:
				if inst.Master.Function.IsSequential() || inst.Master.Function.IsMacro() {
					continue
				}
				if err := d.ReplaceMaster(inst, inst.Master); err != nil {
					t.Fatalf("ReplaceMaster: %v", err)
				}
			}
			// Every fourth mutation crosses a stage boundary.
			if i%8 == 6 {
				assertGreen(t, session.Run("fuzz", in(), ClassENG), ops, i)
			}
		}
		assertGreen(t, session.Run("fuzz-final", in(), ClassENG|ClassERC), ops, len(ops))
	})
}

func assertGreen(t *testing.T, rep *Report, ops []byte, at int) {
	t.Helper()
	if n := rep.Count(Info); n != 0 {
		t.Fatalf("ops %x (at %d): %d finding(s): %v", ops, at, n, rep.Violations)
	}
}

// FuzzCheckNetlist corrupts a design through raw structural edits — the
// exact states the checker exists to diagnose — and asserts every rule
// class runs to completion without panicking, whatever it finds.
func FuzzCheckNetlist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67})
	f.Add([]byte{0xff, 0x00, 0xee, 0x11, 0xdd, 0x22})
	f.Add([]byte{0x07, 0x70, 0x07, 0x70, 0x07, 0x70})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		d, _ := chain(t, 4)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			inst := d.Instances[int(arg)%len(d.Instances)]
			n := d.Nets[int(arg)%len(d.Nets)]
			switch op % 8 {
			case 0:
				inst.Master = nil
			case 1:
				inst.ID = int(arg) // foreign or duplicate ID
			case 2:
				n.Sinks = nil
			case 3:
				n.Driver = netlist.PinRef{}
			case 4:
				n.ID = int(arg)
			case 5:
				// Smuggle in an unjournaled instance.
				d.Instances = append(d.Instances, &netlist.Instance{
					ID: len(d.Instances), Name: fmt.Sprintf("fz_raw%d", i),
				})
			case 6:
				n.DriverPort = &netlist.Port{Name: "fz_port", Net: n}
			case 7:
				inst.Loc = geom.Pt(float64(int8(arg))*100, float64(int8(op))*100)
			}
		}
		in := Input{
			Design:        d,
			Tiers:         1 + int(len(ops))%2,
			HaveFloorplan: true,
			Core:          geom.R(0, 0, 30, 4*lib12.Variant.CellHeight),
			Outline:       geom.R(0, 0, 30, 4*lib12.Variant.CellHeight),
			RowHeights:    [2]float64{lib12.Variant.CellHeight, lib12.Variant.CellHeight},
			Libs:          [2]*cell.Library{lib12, nil},
			ClockBuilt:    len(ops)%3 == 0,
			TierLibs:      len(ops)%5 == 0,
		}
		rep := Run(in, ClassAll) // must not panic
		_ = rep.Err(Error)
		_ = rep.Checked()
	})
}

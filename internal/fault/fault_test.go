package fault

import (
	"context"
	"errors"
	"testing"

	"repro/internal/flow"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want []Injection
		err  bool
	}{
		{spec: "", want: nil},
		{spec: "   ", want: nil},
		{
			spec: "*/*/place=panic",
			want: []Injection{{Stage: "place", Occurrence: 1, Class: ClassPanic}},
		},
		{
			spec: "cpu/Hetero-M3D/timing-repair@2=error:retryable",
			want: []Injection{{Design: "cpu", Config: "Hetero-M3D", Stage: "timing-repair", Occurrence: 2, Class: ClassError, Retryable: true}},
		},
		{
			spec: "*/*/eco=corrupt:journal, */*/cts=cancel",
			want: []Injection{
				{Stage: "eco", Occurrence: 1, Class: ClassCorrupt, Target: TargetJournal},
				{Stage: "cts", Occurrence: 1, Class: ClassCancel},
			},
		},
		{
			spec: "*/*/place=corrupt",
			want: []Injection{{Stage: "place", Occurrence: 1, Class: ClassCorrupt, Target: TargetCache}},
		},
		{spec: "*/*/place", err: true},
		{spec: "*/place=panic", err: true},
		{spec: "*/*/place=explode", err: true},
		{spec: "*/*/cts=stall", err: true}, // no hang class: nothing in-process could end it
		{spec: "*/*/place@0=panic", err: true},
		{spec: "*/*/place@x=panic", err: true},
		{spec: "*/*/place=error:journal", err: true},
	}
	for _, tc := range cases {
		p, err := ParseSpec(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got plan %+v", tc.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if tc.want == nil {
			if p != nil {
				t.Errorf("ParseSpec(%q): want nil plan, got %+v", tc.spec, p)
			}
			continue
		}
		got := p.Pending()
		if len(got) != len(tc.want) {
			t.Errorf("ParseSpec(%q): got %d injections, want %d", tc.spec, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseSpec(%q)[%d] = %+v, want %+v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

func TestOccurrenceCounting(t *testing.T) {
	p := NewPlan(Injection{Stage: "repair", Occurrence: 3, Class: ClassError})
	c := flow.NewContext(context.Background(), "cpu", "M3D", 1)
	for i := 1; i <= 2; i++ {
		if err := p.Fire(c, "repair", nil); err != nil {
			t.Fatalf("visit %d: fired early: %v", i, err)
		}
	}
	if err := p.Fire(c, "place", nil); err != nil {
		t.Fatalf("non-matching stage fired: %v", err)
	}
	err := p.Fire(c, "repair", nil)
	if err == nil {
		t.Fatal("visit 3: injection did not fire")
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Class != ClassError {
		t.Fatalf("visit 3: got %v, want *Injected error class", err)
	}
	if inj.At != "cpu/M3D/repair" {
		t.Fatalf("At = %q, want cpu/M3D/repair", inj.At)
	}
	if err := p.Fire(c, "repair", nil); err != nil {
		t.Fatalf("visit 4: fired twice: %v", err)
	}
	if f := p.Fired(); len(f) != 1 || f[0].At != "repair" {
		t.Fatalf("Fired() = %+v, want one firing at repair", f)
	}
}

// Occurrence counters must be keyed per (design, config): a wildcard
// injection armed at occurrence 2 fires on the 2nd visit of each flow,
// not on the 2nd global visit across parallel flows.
func TestOccurrencePerFlow(t *testing.T) {
	p := NewPlan(Injection{Stage: "repair", Occurrence: 2, Class: ClassError})
	a := flow.NewContext(context.Background(), "aes", "2D", 1)
	b := flow.NewContext(context.Background(), "cpu", "2D", 1)
	if err := p.Fire(a, "repair", nil); err != nil {
		t.Fatalf("aes visit 1 fired: %v", err)
	}
	if err := p.Fire(b, "repair", nil); err != nil {
		t.Fatalf("cpu visit 1 fired: %v", err)
	}
	if err := p.Fire(a, "repair", nil); err == nil {
		t.Fatal("aes visit 2 did not fire")
	}
}

func TestPanicClass(t *testing.T) {
	p := NewPlan(Injection{Stage: "place", Class: ClassPanic, Retryable: true})
	c := flow.NewContext(context.Background(), "aes", "2D", 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic class did not panic")
		}
		inj, ok := r.(*Injected)
		if !ok || inj.Class != ClassPanic {
			t.Fatalf("panic value = %#v, want *Injected panic", r)
		}
		if !inj.Retryable() {
			t.Fatal("retryable injection lost the marker")
		}
	}()
	_ = p.Fire(c, "place", nil)
}

// testTarget is a flow stand-in recording what Fire asks of it.
type testTarget struct {
	cancel    func()
	corrupted string
}

func (t *testTarget) CancelRun()                  { t.cancel() }
func (t *testTarget) Corrupt(target string) error { t.corrupted = target; return nil }

func TestCancelClass(t *testing.T) {
	p := NewPlan(Injection{Stage: "cts", Class: ClassCancel})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := flow.NewContext(ctx, "aes", "2D", 1)
	if err := p.Fire(c, "cts", &testTarget{cancel: cancel}); err != nil {
		t.Fatalf("cancel class with a target returned error: %v", err)
	}
	if c.Canceled() == nil {
		t.Fatal("cancel class did not cancel the run")
	}

	// Without a target it degrades to a canceled-shaped error.
	p2 := NewPlan(Injection{Stage: "cts", Class: ClassCancel})
	c2 := flow.NewContext(context.Background(), "aes", "2D", 1)
	err := p2.Fire(c2, "cts", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel class without a target: got %v, want context.Canceled shape", err)
	}
}

func TestTimeoutClass(t *testing.T) {
	p := NewPlan(Injection{Stage: "route", Class: ClassTimeout})
	c := flow.NewContext(context.Background(), "aes", "2D", 1)
	err := p.Fire(c, "route", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout class: got %v, want DeadlineExceeded shape", err)
	}
	if flow.Retryable(err) {
		t.Fatal("non-retryable timeout reported retryable")
	}
}

func TestCorruptClass(t *testing.T) {
	p := NewPlan(Injection{Stage: "eco", Class: ClassCorrupt, Target: TargetJournal})
	c := flow.NewContext(context.Background(), "aes", "2D", 1)
	tgt := &testTarget{}
	if err := p.Fire(c, "eco", tgt); err != nil {
		t.Fatalf("corrupt class errored: %v", err)
	}
	if tgt.corrupted != TargetJournal {
		t.Fatalf("Corrupt called with %q, want %q", tgt.corrupted, TargetJournal)
	}

	// With no target the injection surfaces as an error instead of
	// silently doing nothing.
	p2 := NewPlan(Injection{Stage: "eco", Class: ClassCorrupt})
	c2 := flow.NewContext(context.Background(), "aes", "2D", 1)
	if err := p2.Fire(c2, "eco", nil); err == nil {
		t.Fatal("corrupt class without a target returned nil")
	}
}

func TestRetryableMarker(t *testing.T) {
	p := NewPlan(Injection{Stage: "place", Class: ClassError, Retryable: true})
	c := flow.NewContext(context.Background(), "aes", "2D", 1)
	err := p.Fire(c, "place", nil)
	if !flow.Retryable(err) {
		t.Fatalf("retryable injection not seen by flow.Retryable: %v", err)
	}
	p2 := NewPlan(Injection{Stage: "place", Class: ClassError})
	c2 := flow.NewContext(context.Background(), "aes", "2D", 1)
	if flow.Retryable(p2.Fire(c2, "place", nil)) {
		t.Fatal("non-retryable injection reported retryable")
	}
}

// TestNilPlanHook pins that a nil plan's boundary hook fires nothing,
// so the flow can call Fire unconditionally.
func TestNilPlanHook(t *testing.T) {
	var p *Plan
	c := flow.NewContext(context.Background(), "aes", "2D", 1)
	tgt := &testTarget{cancel: func() { t.Fatal("nil plan cancelled the run") }}
	if err := p.Fire(c, "place", tgt); err != nil {
		t.Fatalf("nil plan fired: %v", err)
	}
	if tgt.corrupted != "" || c.Canceled() != nil {
		t.Fatal("nil plan touched the flow")
	}
}

// TestSpecRoundTrip pins ParseSpec/FormatSpec as exact inverses over the
// canonical form: parse → format → parse yields identical injections,
// for every class and modifier combination.
func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"*/*/place=panic",
		"cpu/Hetero-M3D/timing-repair@2=error:retryable",
		"*/*/eco=corrupt:journal,*/*/cts=cancel",
		"aes/*/route@3=corrupt:journal:retryable",
		"*/*/signoff=timeout",
		"*/*/place=corrupt",
	}
	for _, spec := range specs {
		p1, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		formatted := FormatSpec(p1.Pending())
		p2, err := ParseSpec(formatted)
		if err != nil {
			t.Fatalf("ParseSpec(FormatSpec(%q)) = ParseSpec(%q): %v", spec, formatted, err)
		}
		got, want := p2.Pending(), p1.Pending()
		if len(got) != len(want) {
			t.Fatalf("%q -> %q: %d injections, want %d", spec, formatted, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q -> %q: injection %d = %+v, want %+v", spec, formatted, i, got[i], want[i])
			}
		}
		// The canonical form is a fixed point.
		if again := FormatSpec(p2.Pending()); again != formatted {
			t.Errorf("FormatSpec not canonical: %q -> %q", formatted, again)
		}
	}
}

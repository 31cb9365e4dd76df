package trace

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestGenerateAllTraces(t *testing.T) {
	for _, name := range All() {
		t.Run(name.String(), func(t *testing.T) {
			tr, err := Generate(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name != name {
				t.Fatalf("trace name %v, want %v", tr.Name, name)
			}
			if len(tr.Points) == 0 {
				t.Fatal("empty series")
			}
			if len(tr.Actions) == 0 {
				t.Fatal("trace has no scaling actions")
			}
			for i, p := range tr.Points {
				if p.Rate <= 0 || p.Rate > 1 {
					t.Fatalf("point %d rate %v outside (0, 1]", i, p.Rate)
				}
				if i > 0 && p.At <= tr.Points[i-1].At {
					t.Fatalf("point %d not strictly increasing in time", i)
				}
			}
		})
	}
}

func TestGenerateUnknownTrace(t *testing.T) {
	_, err := Generate(Name(99), Options{})
	if !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("err = %v, want ErrUnknownTrace", err)
	}
}

func TestNameString(t *testing.T) {
	tests := []struct {
		give Name
		want string
	}{
		{SYS, "SYS"},
		{ETC, "ETC"},
		{SAP, "SAP"},
		{NLANR, "NLANR"},
		{Microsoft, "Microsoft"},
		{Name(42), "Name(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Name(%d).String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestRateAtInterpolation(t *testing.T) {
	tr := &Trace{
		Name: SYS,
		Points: []Point{
			{At: 0, Rate: 1.0},
			{At: 10 * time.Second, Rate: 0.5},
			{At: 20 * time.Second, Rate: 0.5},
		},
	}
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{at: -time.Second, want: 1.0}, // clamp low
		{at: 0, want: 1.0},            // endpoint
		{at: 5 * time.Second, want: 0.75},
		{at: 10 * time.Second, want: 0.5},
		{at: 15 * time.Second, want: 0.5},
		{at: 25 * time.Second, want: 0.5}, // clamp high
	}
	for _, tt := range tests {
		if got := tr.RateAt(tt.at); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("RateAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestRateAtEmptyTrace(t *testing.T) {
	var tr Trace
	if got := tr.RateAt(time.Second); got != 0 {
		t.Fatalf("RateAt on empty trace = %v, want 0", got)
	}
	if got := tr.Duration(); got != 0 {
		t.Fatalf("Duration on empty trace = %v, want 0", got)
	}
}

func TestSYSShapeDropsSteeply(t *testing.T) {
	tr := mustGenerate(t, SYS, Options{Noise: 0})
	before := tr.RateAt(20 * time.Minute)
	after := tr.RateAt(50 * time.Minute)
	if before < 0.85 {
		t.Fatalf("SYS pre-drop rate %v, want high plateau > 0.85", before)
	}
	if after > 0.40 {
		t.Fatalf("SYS post-drop rate %v, want sustained drop < 0.40", after)
	}
	// The drop supports the paper's 10→7 scale-in: demand roughly thirds.
	if ratio := after / before; ratio > 0.45 {
		t.Fatalf("SYS drop ratio %v, want < 0.45", ratio)
	}
}

func TestETCShapeTroughAndRecovery(t *testing.T) {
	tr := mustGenerate(t, ETC, Options{Noise: 0})
	start := tr.RateAt(0)
	trough := tr.RateAt(40 * time.Minute)
	end := tr.RateAt(tr.Duration())
	if trough >= start {
		t.Fatalf("ETC trough %v not below start %v", trough, start)
	}
	if end <= trough+0.2 {
		t.Fatalf("ETC end %v does not recover well above trough %v", end, trough)
	}
}

func TestSAPShapeTwoSteps(t *testing.T) {
	tr := mustGenerate(t, SAP, Options{Noise: 0})
	p1 := tr.RateAt(15 * time.Minute) // first plateau
	p2 := tr.RateAt(40 * time.Minute) // second plateau
	p3 := tr.RateAt(70 * time.Minute) // third plateau
	if !(p1 > p2 && p2 > p3) {
		t.Fatalf("SAP plateaus not monotone: %.2f, %.2f, %.2f", p1, p2, p3)
	}
	if p1-p2 < 0.15 || p2-p3 < 0.15 {
		t.Fatalf("SAP steps too shallow: %.2f, %.2f", p1-p2, p2-p3)
	}
}

func TestNLANRShapeSurgeThenDecline(t *testing.T) {
	tr := mustGenerate(t, NLANR, Options{Noise: 0})
	start := tr.RateAt(5 * time.Minute)
	peak := tr.RateAt(38 * time.Minute)
	end := tr.RateAt(tr.Duration())
	if peak <= start+0.25 {
		t.Fatalf("NLANR peak %v not well above start %v", peak, start)
	}
	if end >= peak-0.25 {
		t.Fatalf("NLANR end %v does not decline from peak %v", end, peak)
	}
}

func TestMicrosoftShapeTwoStageDecay(t *testing.T) {
	tr := mustGenerate(t, Microsoft, Options{Noise: 0})
	p1 := tr.RateAt(10 * time.Minute)
	p2 := tr.RateAt(40 * time.Minute)
	p3 := tr.RateAt(62 * time.Minute)
	if !(p1 > p2 && p2 > p3) {
		t.Fatalf("Microsoft stages not monotone: %.2f, %.2f, %.2f", p1, p2, p3)
	}
}

func TestScalingActionsWithinTrace(t *testing.T) {
	for _, name := range All() {
		tr := mustGenerate(t, name, Options{})
		for _, a := range tr.Actions {
			if a.At <= 0 || a.At >= tr.Duration() {
				t.Errorf("%v: action at %v outside trace (0, %v)", name, a.At, tr.Duration())
			}
			if a.FromNodes == a.ToNodes {
				t.Errorf("%v: no-op scaling action %+v", name, a)
			}
			if a.FromNodes <= 0 || a.ToNodes <= 0 {
				t.Errorf("%v: non-positive node counts %+v", name, a)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := mustGenerate(t, ETC, Options{Seed: 7, Noise: 0.05})
	b := mustGenerate(t, ETC, Options{Seed: 7, Noise: 0.05})
	if len(a.Points) != len(b.Points) {
		t.Fatal("length mismatch")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs between identical seeds", i)
		}
	}
	c := mustGenerate(t, ETC, Options{Seed: 8, Noise: 0.05})
	same := true
	for i := range a.Points {
		if a.Points[i].Rate != c.Points[i].Rate {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestCustomStep(t *testing.T) {
	tr := mustGenerate(t, SYS, Options{Step: 10 * time.Second})
	if len(tr.Points) < 2 {
		t.Fatal("too few points")
	}
	if gap := tr.Points[1].At - tr.Points[0].At; gap != 10*time.Second {
		t.Fatalf("step = %v, want 10s", gap)
	}
}

func TestPeakAndMinRates(t *testing.T) {
	for _, name := range All() {
		tr := mustGenerate(t, name, Options{Noise: 0})
		peak, minRate := tr.Points[0].Rate, tr.Points[0].Rate
		for _, p := range tr.Points {
			peak, minRate = max(peak, p.Rate), min(minRate, p.Rate)
		}
		if peak <= minRate {
			t.Errorf("%v: peak %v <= min %v", name, peak, minRate)
		}
		// Every paper trace varies "considerably" — at least 1.5x.
		if peak/minRate < 1.5 {
			t.Errorf("%v: insufficient demand variation %.2fx", name, peak/minRate)
		}
	}
}

// mustGenerate is Generate for the five known names, failing the test on
// an error.
func mustGenerate(t *testing.T, name Name, opts Options) *Trace {
	t.Helper()
	tr, err := Generate(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

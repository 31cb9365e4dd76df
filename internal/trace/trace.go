// Package trace provides synthetic digitizations of the five demand traces
// the ElMem paper evaluates on (Section V-A3, Fig 5): Facebook SYS and ETC,
// an SAP enterprise-application trace, an NLANR/WITS network trace, and a
// Microsoft storage trace.
//
// The paper only consumes the normalized request rate over time — scaling
// decisions respond to rate deltas — so each generator reproduces the
// published shape (diurnal drop, spike, plateau-then-drop, ramp) as a
// piecewise series of normalized rates in [0, 1], optionally with small
// deterministic noise.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Name identifies one of the paper's demand traces.
type Name int

// The five traces of Fig 5.
const (
	SYS Name = iota + 1
	ETC
	SAP
	NLANR
	Microsoft
)

var names = map[Name]string{
	SYS:       "SYS",
	ETC:       "ETC",
	SAP:       "SAP",
	NLANR:     "NLANR",
	Microsoft: "Microsoft",
}

// String returns the canonical trace name.
func (n Name) String() string {
	if s, ok := names[n]; ok {
		return s
	}
	return fmt.Sprintf("Name(%d)", int(n))
}

// All returns the five paper traces in Fig 5 order.
func All() []Name { return []Name{SYS, ETC, SAP, NLANR, Microsoft} }

// ErrUnknownTrace is returned for a Name outside the five paper traces.
var ErrUnknownTrace = errors.New("trace: unknown trace name")

// Point is one sample of the normalized demand series.
type Point struct {
	// At is the offset from the start of the trace.
	At time.Duration
	// Rate is the normalized request rate in (0, 1].
	Rate float64
}

// Trace is a normalized demand series plus the scaling actions the paper's
// evaluation applied while replaying it (the subcaption numbers of Fig 6).
type Trace struct {
	// Name identifies the source trace.
	Name Name
	// Points is the normalized rate series, sorted by At.
	Points []Point
	// Actions are the scaling events the paper executed on this trace.
	Actions []ScalingAction
}

// ScalingAction is one scale event from the Fig 6 subcaptions.
type ScalingAction struct {
	// At is when the autoscaling decision lands.
	At time.Duration
	// FromNodes and ToNodes give the tier size before and after.
	FromNodes int
	ToNodes   int
}

// RateAt linearly interpolates the normalized rate at offset d, clamping to
// the endpoints outside the series.
func (t *Trace) RateAt(d time.Duration) float64 {
	pts := t.Points
	if len(pts) == 0 {
		return 0
	}
	if d <= pts[0].At {
		return pts[0].Rate
	}
	last := pts[len(pts)-1]
	if d >= last.At {
		return last.Rate
	}
	// Binary search for the first point at or after d.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].At >= d })
	lo, hi := pts[i-1], pts[i]
	span := hi.At - lo.At
	if span <= 0 {
		return hi.Rate
	}
	frac := float64(d-lo.At) / float64(span)
	return lo.Rate + frac*(hi.Rate-lo.Rate)
}

// Duration returns the total length of the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].At
}

// Options configure trace synthesis.
type Options struct {
	// Step is the sampling interval of the emitted series (default 1s).
	Step time.Duration
	// Noise is the relative amplitude of deterministic jitter added to the
	// shape. Zero (the default) disables jitter.
	Noise float64
	// Seed drives the jitter so generation is reproducible (default 1).
	Seed int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Step <= 0 {
		out.Step = time.Second
	}
	if out.Noise < 0 {
		out.Noise = 0
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Generate synthesizes the named trace. The shapes digitize Fig 5:
//
//   - SYS: high plateau, then a steep sustained drop around the 30-minute
//     mark (drives the 10→7 scale-in of Fig 6a).
//   - ETC: diurnal saw — gentle decline, trough, then recovery (drives the
//     10→9 scale-in and 9→10 scale-out of Fig 6b).
//   - SAP: stepped enterprise load — two distinct downward steps (10→9,
//     9→8 of Fig 6c).
//   - NLANR: network load with a mid-trace surge then decline (8→9 scale
//     out, then 9→8 scale in of Fig 6d).
//   - Microsoft: bursty storage load decaying in two stages (10→9, 9→8 of
//     Fig 6e).
func Generate(name Name, opts Options) (*Trace, error) {
	o := opts.withDefaults()
	var (
		shape   func(frac float64) float64
		total   time.Duration
		actions []ScalingAction
	)
	switch name {
	case SYS:
		total = 70 * time.Minute
		shape = sysShape
		actions = []ScalingAction{
			{At: 30 * time.Minute, FromNodes: 10, ToNodes: 7},
		}
	case ETC:
		total = 80 * time.Minute
		shape = etcShape
		actions = []ScalingAction{
			{At: 25 * time.Minute, FromNodes: 10, ToNodes: 9},
			{At: 55 * time.Minute, FromNodes: 9, ToNodes: 10},
		}
	case SAP:
		total = 80 * time.Minute
		shape = sapShape
		actions = []ScalingAction{
			{At: 25 * time.Minute, FromNodes: 10, ToNodes: 9},
			{At: 50 * time.Minute, FromNodes: 9, ToNodes: 8},
		}
	case NLANR:
		total = 80 * time.Minute
		shape = nlanrShape
		actions = []ScalingAction{
			{At: 20 * time.Minute, FromNodes: 8, ToNodes: 9},
			{At: 55 * time.Minute, FromNodes: 9, ToNodes: 8},
		}
	case Microsoft:
		total = 80 * time.Minute
		shape = microsoftShape
		actions = []ScalingAction{
			{At: 25 * time.Minute, FromNodes: 10, ToNodes: 9},
			{At: 50 * time.Minute, FromNodes: 9, ToNodes: 8},
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownTrace, int(name))
	}

	rng := rand.New(rand.NewSource(o.Seed))
	n := int(total/o.Step) + 1
	points := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * o.Step
		frac := float64(at) / float64(total)
		rate := shape(frac)
		if o.Noise > 0 {
			rate += rate * o.Noise * (2*rng.Float64() - 1)
		}
		rate = clamp01(rate)
		points = append(points, Point{At: at, Rate: rate})
	}
	return &Trace{Name: name, Points: points, Actions: actions}, nil
}

// sysShape: high plateau near 1.0 for the first ~40% of the trace, then a
// steep drop to ~0.3 that is sustained — the "sustained drop after peak
// demand" case the paper motivates (Fig 5a).
func sysShape(f float64) float64 {
	switch {
	case f < 0.40:
		return 0.95 + 0.05*math.Sin(f*18)
	case f < 0.50:
		// Steep descent over 10% of the trace.
		p := (f - 0.40) / 0.10
		return 0.95 - 0.65*smooth(p)
	default:
		return 0.30 + 0.02*math.Sin(f*25)
	}
}

// etcShape: diurnal saw — gentle decline to a trough around 40%, flat
// trough, recovery after ~65% (Fig 5b).
func etcShape(f float64) float64 {
	switch {
	case f < 0.40:
		return 0.90 - 0.45*smooth(f/0.40)
	case f < 0.65:
		return 0.45 + 0.02*math.Sin(f*40)
	default:
		p := (f - 0.65) / 0.35
		return 0.45 + 0.45*smooth(p)
	}
}

// sapShape: enterprise stepped load — plateau, step down, plateau, second
// step down (Fig 5c).
func sapShape(f float64) float64 {
	switch {
	case f < 0.28:
		return 0.88 + 0.03*math.Sin(f*30)
	case f < 0.36:
		p := (f - 0.28) / 0.08
		return 0.88 - 0.25*smooth(p)
	case f < 0.58:
		return 0.63 + 0.03*math.Sin(f*30)
	case f < 0.66:
		p := (f - 0.58) / 0.08
		return 0.63 - 0.25*smooth(p)
	default:
		return 0.38 + 0.02*math.Sin(f*30)
	}
}

// nlanrShape: moderate start, surge to a peak around 35%, then a long
// decline (Fig 5d) — drives a scale-out followed by a scale-in.
func nlanrShape(f float64) float64 {
	switch {
	case f < 0.20:
		return 0.55 + 0.04*math.Sin(f*40)
	case f < 0.40:
		p := (f - 0.20) / 0.20
		return 0.55 + 0.40*smooth(p)
	case f < 0.55:
		return 0.95 + 0.03*math.Sin(f*40)
	default:
		p := (f - 0.55) / 0.45
		return 0.95 - 0.50*smooth(p)
	}
}

// microsoftShape: bursty storage load decaying in two stages with visible
// burst texture (Fig 5e).
func microsoftShape(f float64) float64 {
	base := 0.0
	switch {
	case f < 0.30:
		base = 0.85
	case f < 0.40:
		p := (f - 0.30) / 0.10
		base = 0.85 - 0.25*smooth(p)
	case f < 0.60:
		base = 0.60
	case f < 0.70:
		p := (f - 0.60) / 0.10
		base = 0.60 - 0.25*smooth(p)
	default:
		base = 0.35
	}
	// Storage traces are bursty: superimpose a fast ripple.
	return base + 0.05*math.Sin(f*90)*math.Sin(f*13)
}

// smooth is the smoothstep easing 3p²−2p³, clamped to [0, 1].
func smooth(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return p * p * (3 - 2*p)
}

func clamp01(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 1 {
		return 1
	}
	return x
}

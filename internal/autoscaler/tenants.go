package autoscaler

import "repro/internal/stackdist"

// Multi-tenant sizing: each node runs the arbiter, which splits one node's
// pages across tenants by marginal utility. To size the *tier*, the
// AutoScaler needs the aggregate hit rate the cluster would achieve at a
// given total capacity under that same allocation policy. Compose builds
// exactly that curve from the per-tenant MRCs the arbiter already
// estimates, using the same greedy marginal-utility rule: each increment
// of capacity goes to the tenant whose weighted hit-rate gain is largest,
// so the composed curve is the upper envelope reachable by arbitration —
// not the (worse) curve of a static even split.

// TenantCurve is one tenant's input to multi-tenant sizing: its estimated
// hit-rate curve and its request rate (req/s, used as the mixing weight).
type TenantCurve struct {
	Name  string
	Curve *stackdist.Curve
	Rate  float64
}

// ComposedPoint is one point of the aggregate curve: at Items total
// capacity, the rate-weighted aggregate hit rate under greedy allocation.
type ComposedPoint struct {
	Items   int
	HitRate float64
}

// composeSteps bounds the greedy walk's resolution.
const composeSteps = 512

// Compose builds the aggregate hit-rate curve for the tenant mix by greedy
// marginal allocation. The result is monotonically non-decreasing in both
// fields and ends where no tenant's curve gains further. Tenants with zero
// rate or a nil curve contribute nothing and are skipped.
func Compose(tenants []TenantCurve) []ComposedPoint {
	type state struct {
		curve *stackdist.Curve
		rate  float64
		items int
		max   int // capacity beyond which the curve is flat
	}
	var (
		active    []state
		totalRate float64
		totalMax  int
	)
	for _, t := range tenants {
		if t.Curve == nil || t.Rate <= 0 {
			continue
		}
		caps, _ := t.Curve.Points()
		m := 0
		if len(caps) > 0 {
			m = caps[len(caps)-1]
		}
		if m == 0 {
			continue
		}
		active = append(active, state{curve: t.Curve, rate: t.Rate, max: m})
		totalRate += t.Rate
		totalMax += m
	}
	if len(active) == 0 || totalRate <= 0 {
		return nil
	}
	step := max(totalMax/composeSteps, 1)

	hitSum := 0.0 // Σ rate_i · H_i(items_i)
	points := make([]ComposedPoint, 0, composeSteps+1)
	points = append(points, ComposedPoint{Items: 0, HitRate: 0})
	total := 0
	for {
		best, bestGain := -1, 0.0
		for i := range active {
			s := &active[i]
			if s.items >= s.max {
				continue
			}
			gain := s.rate * (s.curve.HitRate(s.items+step) - s.curve.HitRate(s.items))
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 || bestGain <= 0 {
			break
		}
		active[best].items += step
		total += step
		hitSum += bestGain
		points = append(points, ComposedPoint{Items: total, HitRate: hitSum / totalRate})
	}
	return points
}

// itemsForHitRate finds the smallest composed capacity reaching target, or
// ok=false when even the full curve falls short.
func itemsForHitRate(points []ComposedPoint, target float64) (int, bool) {
	for _, p := range points {
		if p.HitRate >= target {
			return p.Items, true
		}
	}
	return 0, false
}

// DecideTenants sizes the tier for a multi-tenant workload: the Eq. (1)
// bound is computed for the combined request rate r, and the capacity that
// achieves it is read off the composed per-tenant curve (the allocation an
// arbitrated cluster actually realizes). currentNodes and the Config
// clamps behave exactly as in AutoScaler.Decide.
func (c Config) DecideTenants(tenants []TenantCurve, r float64, currentNodes int) (Decision, error) {
	if err := c.validate(); err != nil {
		return Decision{}, err
	}
	return c.decide(r, currentNodes, func(target float64) (int, float64, bool) {
		points := Compose(tenants)
		items, ok := itemsForHitRate(points, target)
		maxHit := 0.0
		if len(points) > 0 {
			maxHit = points[len(points)-1].HitRate
		}
		return items, maxHit, ok
	})
}

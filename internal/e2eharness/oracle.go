package e2eharness

import (
	"fmt"
	"math/rand"

	"repro/internal/client"
)

// Oracle is the acked-write ground truth: every Set acknowledged by the
// cluster is recorded, and Check later re-reads the cluster. A cache may
// lose keys (evictions, crashes without snapshots), so absence is only
// degradation — but a key that is present MUST carry the acked bytes;
// any mismatch is corruption and fails the scenario.
type Oracle struct {
	acked map[string][]byte
	rng   *rand.Rand
}

// NewOracle returns an oracle drawing value sizes from the seeded rng.
func NewOracle(seed int64) *Oracle {
	return &Oracle{
		acked: make(map[string][]byte),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// value derives a deterministic payload for key of the given size.
func (o *Oracle) value(key string, size int) []byte {
	v := make([]byte, size)
	vr := rand.New(rand.NewSource(int64(len(key)) + int64(key[len(key)-1])*7919 + o.seedOf(key)))
	vr.Read(v)
	return v
}

func (o *Oracle) seedOf(key string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ int64(key[i])) * 1099511628211
	}
	return h
}

// Populate writes n keys with the given prefix through cl, sizes in
// [minSize, maxSize], recording each acknowledged write.
func (o *Oracle) Populate(cl *client.Cluster, prefix string, n, minSize, maxSize int) error {
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-%06d", prefix, i)
		size := minSize
		if maxSize > minSize {
			size += o.rng.Intn(maxSize - minSize)
		}
		val := o.value(key, size)
		if err := cl.Set(key, val); err != nil {
			return fmt.Errorf("populate %s: %w", key, err)
		}
		o.acked[key] = val
	}
	return nil
}

// Acked returns the number of acknowledged writes on record.
func (o *Oracle) Acked() int { return len(o.acked) }

// CheckResult summarizes an integrity pass over the acked set.
type CheckResult struct {
	Checked    int
	Present    int
	Mismatched int
	Errors     int
}

// PresentFraction is the share of acked keys still served.
func (r CheckResult) PresentFraction() float64 {
	if r.Checked == 0 {
		return 0
	}
	return float64(r.Present) / float64(r.Checked)
}

// Check re-reads every acked key through cl and compares served bytes
// against the acked bytes.
func (o *Oracle) Check(cl *client.Cluster) CheckResult {
	var res CheckResult
	for key, want := range o.acked {
		res.Checked++
		got, hit, err := cl.Get(key)
		if err != nil {
			res.Errors++
			continue
		}
		if !hit {
			continue
		}
		res.Present++
		if string(got) != string(want) {
			res.Mismatched++
		}
	}
	return res
}

// CheckMembers runs Check against a freshly built client over members —
// the post-scale membership a repointed web tier would use.
func (o *Oracle) CheckMembers(members []string) (CheckResult, error) {
	cl, err := client.New(members)
	if err != nil {
		return CheckResult{}, err
	}
	defer cl.Close()
	return o.Check(cl), nil
}

// MustCheck is CheckMembers with scenario-failure semantics: any client
// construction error, read error, or value mismatch fails the scenario,
// and presence below minPresent fails it too.
func (o *Oracle) MustCheck(t *T, members []string, minPresent float64) CheckResult {
	res, err := o.CheckMembers(members)
	if err != nil {
		t.Fatalf("oracle check: %v", err)
	}
	t.Logf("oracle: %d/%d present (%.1f%%), %d mismatched, %d errors",
		res.Present, res.Checked, 100*res.PresentFraction(), res.Mismatched, res.Errors)
	if res.Mismatched > 0 {
		t.Fatalf("integrity violation: %d of %d served keys returned bytes that were never acked", res.Mismatched, res.Present)
	}
	if res.Errors > 0 {
		t.Fatalf("oracle check hit %d read errors", res.Errors)
	}
	if res.PresentFraction() < minPresent {
		t.Fatalf("presence %.3f below required %.3f (%d/%d keys)",
			res.PresentFraction(), minPresent, res.Present, res.Checked)
	}
	return res
}

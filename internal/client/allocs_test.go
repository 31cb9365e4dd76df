package client

import (
	"fmt"
	"testing"
)

// TestClientAllocs is the allocation budget of the caller-goroutine request
// path (make allocs): a Get hit pays for the value copy and little else, a
// Set encodes into the connection's buffer, and a multi-get that one node
// serves spawns nothing and copies one value per key.
func TestClientAllocs(t *testing.T) {
	cl, _ := testCluster(t, 1)
	const group = 8
	keys := make([]string, group)
	value := []byte("0123456789abcdef0123456789abcdef")
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%d", i)
		if err := cl.Set(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"Get hit", 4, func() error {
			_, hit, err := cl.Get(keys[0])
			if err == nil && !hit {
				err = fmt.Errorf("miss")
			}
			return err
		}},
		{"Set", 2, func() error { return cl.Set(keys[0], value) }},
		{"MultiGet 8 keys, one owner", group + 3, func() error {
			got, err := cl.MultiGet(keys)
			if err == nil && len(got) != group {
				err = fmt.Errorf("%d of %d keys", len(got), group)
			}
			return err
		}},
	} {
		var err error
		got := testing.AllocsPerRun(200, func() {
			if e := tc.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", tc.name, got, tc.max)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", tc.name, got, tc.max)
		}
	}
}

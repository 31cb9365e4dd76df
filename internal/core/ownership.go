package core

import (
	"fmt"
	"slices"

	"repro/internal/hashring"
)

// Serve-through scaling: instead of one global membership flip at the end
// of a migration, the Master maintains a versioned ownership table
// (hashring.Table) and walks it through a per-segment handover:
//
//	settled table
//	  │ BeginHandover(newMembers)      announce v+1 (segments in-flight)
//	  ▼
//	phases 1–3 run                      clients read incoming-first with
//	  │                                 fallback, dual-apply writes
//	  ▼
//	CommitSegments per wave             announce each wave (epoch bumps)
//	  │
//	  ▼
//	Settle                              announce settled table
//	  │
//	  ▼
//	release                             surviving senders drop what they
//	                                    no longer own
//
// Any phase failure before Settle announces Rollback instead, restoring
// the old routing in one version bump; no key has left its old owner yet.

// DefaultHandoverWaves is how many commit waves a handover's in-flight
// segments are spread across.
const DefaultHandoverWaves = 8

// OwnershipListener observes ownership-table updates. Listeners must
// install a table only when its version exceeds the one they hold, so
// delivery order across listeners cannot matter.
type OwnershipListener interface {
	OwnershipChanged(t *hashring.Table)
}

type segmentWavesOption int

func (o segmentWavesOption) apply(opts *masterOptions) { opts.waves = int(o) }

// WithSegmentWaves sets how many commit waves a handover uses (default
// DefaultHandoverWaves; 1 commits everything at once).
func WithSegmentWaves(n int) Option { return segmentWavesOption(n) }

type phaseHookOption struct{ hook func(phase string) }

func (o phaseHookOption) apply(opts *masterOptions) { opts.phaseHook = o.hook }

// WithPhaseHook installs a callback fired synchronously at deterministic
// points of a scaling action: after the handover is announced
// ("prepare"), after each successful migration phase (its name), and
// after the table settles ("handover"). The chaos harness uses it to
// interleave client traffic into migration at reproducible points.
func WithPhaseHook(hook func(phase string)) Option { return phaseHookOption{hook: hook} }

// OwnershipTable returns the current ownership table.
func (m *Master) OwnershipTable() *hashring.Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table
}

// setTable installs a new table and announces it to every listener,
// outside the lock.
func (m *Master) setTable(t *hashring.Table) {
	m.mu.Lock()
	m.table = t
	notify := slices.Clone(m.listeners)
	m.mu.Unlock()
	for _, s := range notify {
		s.l.OwnershipChanged(t)
	}
}

// callHook fires the phase hook if one is installed.
func (m *Master) callHook(phase string) {
	if m.phaseHook != nil {
		m.phaseHook(phase)
	}
}

// beginHandover starts the per-segment handover toward newMembers and
// announces the in-flight table. It returns the sorted moving segments.
func (m *Master) beginHandover(newMembers []string) ([]int, error) {
	m.mu.Lock()
	t := m.table
	m.mu.Unlock()
	nt, moving, err := t.BeginHandover(newMembers)
	if err != nil {
		return nil, fmt.Errorf("core: begin handover: %w", err)
	}
	m.setTable(nt)
	return moving, nil
}

// rollbackHandover abandons an in-progress handover, restoring the old
// routing in one announced version bump. Safe to call when already
// settled (a failure before beginHandover): it is then a no-op.
func (m *Master) rollbackHandover() {
	m.mu.Lock()
	t := m.table
	m.mu.Unlock()
	if t.Settled() {
		return
	}
	m.setTable(t.Rollback())
}

// commitAndSettle walks the moving segments through commit waves — each
// wave announced separately, so clients flip routing segment group by
// segment group rather than all at once — then settles the table.
// It returns the number of waves run.
func (m *Master) commitAndSettle(moving []int) (int, error) {
	waves := m.waves
	if waves < 1 {
		waves = 1
	}
	if waves > len(moving) {
		waves = len(moving)
	}
	committed := 0
	for w := 0; w < waves; w++ {
		lo := len(moving) * w / waves
		hi := len(moving) * (w + 1) / waves
		if lo == hi {
			continue
		}
		m.mu.Lock()
		t := m.table
		m.mu.Unlock()
		nt, err := t.CommitSegments(moving[lo:hi])
		if err != nil {
			return committed, fmt.Errorf("core: commit wave %d: %w", w, err)
		}
		m.setTable(nt)
		committed++
	}
	m.mu.Lock()
	t := m.table
	m.mu.Unlock()
	st, err := t.Settle()
	if err != nil {
		return committed, fmt.Errorf("core: settle: %w", err)
	}
	m.setTable(st)
	return committed, nil
}

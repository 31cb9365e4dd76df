package core

import (
	"fmt"
	"slices"

	"repro/internal/hashring"
)

// Serve-through scaling: instead of one global membership flip at the end
// of a migration, the Master maintains a versioned ownership table
// (hashring.Table) and walks it through a handover:
//
//	settled table
//	  │ BeginHandover(newMembers)      announce v+1: keys whose owner
//	  ▼                                changes are in flight
//	phases 1–3 run                      clients read incoming-first with
//	  │                                 fallback, dual-apply writes
//	  ▼
//	Settle                              announce v+2: the new ring alone
//	  │
//	  ▼
//	release                             surviving senders drop what they
//	                                    no longer own
//
// Any phase failure before Settle announces Rollback instead, restoring
// the old routing in one version bump; no key has left its old owner yet,
// and every write since BeginHandover reached the old owner too.

// OwnershipListener observes ownership-table updates. Listeners must
// install a table only when its version exceeds the one they hold, so
// delivery order across listeners cannot matter.
type OwnershipListener interface {
	OwnershipChanged(t *hashring.Table)
}

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

// beginHandover starts the handover toward newMembers and announces the
// in-flight table. It returns how many of the circle's 1024 arcs hold a
// key that changes owner.
func (m *Master) beginHandover(newMembers []string) (int, error) {
	nt, moved, err := m.OwnershipTable().BeginHandover(newMembers)
	if err != nil {
		return 0, fmt.Errorf("core: begin handover: %w", err)
	}
	m.setTable(nt)
	return moved, nil
}

// rollbackHandover abandons an in-progress handover, restoring the old
// routing in one announced version bump. Safe to call when already
// settled (a failure before beginHandover): it is then a no-op.
func (m *Master) rollbackHandover() {
	if t := m.OwnershipTable(); !t.Settled() {
		m.setTable(t.Rollback())
	}
}

// settleHandover completes the handover: the incoming ring alone routes
// from the announced version on.
func (m *Master) settleHandover() error {
	st, err := m.OwnershipTable().Settle()
	if err != nil {
		return fmt.Errorf("core: settle: %w", err)
	}
	m.setTable(st)
	return nil
}

package invariants

// The five checked properties, each tied to the paper mechanism it guards:
//
//  I1 — No hot item selected by FuseCache is lost (Section III-D:
//       "migrate the hot data of that node to the rest of the Memcached
//       servers"). Every item the oracle's FuseCache selection picks must
//       reside on its target after a completed action, with its value and
//       MRU timestamp intact; a missing item is tolerated only when the
//       target evicted it as the coldest of its class.
//  I2 — Batch import preserves MRU order (Section V-A1: imports prepend
//       at the MRU head so "the migrated data is placed at the MRU end").
//       Within one sender's import set, per (shard, tenant) MRU list,
//       list position must be non-increasing in timestamp — a replayed or
//       duplicated push that re-hoists an item shows up here as an
//       inversion.
//  I3 — Retries never double-apply (the RPC layer's at-least-once
//       delivery must compose with idempotent imports). Checked by the
//       sweep: a completed faulty run's final state must equal the gold
//       run's, byte for byte.
//  I4 — Reports are consistent with the observed cluster: a completed
//       report names the right membership and exactly the oracle's
//       ItemsMigrated; an aborted report names a real phase, leaves the
//       membership untouched, and claims no migration before data moved.
//  I5 — The cluster converges to a consistent hash ring (Section III-A):
//       after completion every resident key sits on the ring owner the
//       final membership implies, and no key is resident twice.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fusecache"
	"repro/internal/hashring"
)

// itemInfo is one resident item's identity for comparisons.
type itemInfo struct {
	ts    time.Time
	class int
	vhash uint64
}

// nodeState is one node's snapshot: per-class MRU-ordered metadata plus a
// key index and the capacity numbers the oracle needs.
type nodeState struct {
	byClass map[int][]cache.ItemMeta
	keys    map[string]itemInfo
	absorb  map[int]int
	pages   int
	chunks  []int
}

// snapshot captures one node's state as seen through owned (nil = every
// resident item). The harness passes each node's hot-key owned-filter so
// replica-held copies — which the migration deliberately skips — stay
// invisible to the oracle and the checks, exactly as they are to the
// node's agent.
func snapshot(c *cache.Cache, owned func(string) bool) *nodeState {
	st := &nodeState{
		byClass: make(map[int][]cache.ItemMeta),
		keys:    make(map[string]itemInfo),
		absorb:  make(map[int]int),
		pages:   int(c.Capacity() / cache.PageSize),
		chunks:  c.ChunkSizes(),
	}
	for classID := range st.chunks {
		st.absorb[classID] = c.ClassAbsorbCapacity(classID)
	}
	for _, classID := range c.PopulatedClasses() {
		metas, err := c.DumpClass(classID, owned)
		if err != nil {
			continue
		}
		st.byClass[classID] = metas
		for _, mt := range metas {
			val, ok := c.Peek(mt.Key)
			if !ok {
				continue
			}
			st.keys[mt.Key] = itemInfo{ts: mt.LastAccess, class: classID, vhash: valueHash(val)}
		}
	}
	return st
}

func snapshotAll(caches map[string]*cache.Cache, hot *hotStage) map[string]*nodeState {
	out := make(map[string]*nodeState, len(caches))
	for name, c := range caches {
		out[name] = snapshot(c, hot.owned(name))
	}
	return out
}

func valueHash(v []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(v)
	return h.Sum64()
}

// minClassTS returns the coldest resident timestamp of the class (zero
// time when the class is empty). byClass lists are MRU-merged, so the
// minimum is the last entry.
func (st *nodeState) minClassTS(classID int) (time.Time, bool) {
	metas := st.byClass[classID]
	if len(metas) == 0 {
		return time.Time{}, false
	}
	return metas[len(metas)-1].LastAccess, true
}

// migrated is one oracle-expected transfer: the MRU-ordered items one
// sender ships to one target for one slab class.
type migrated struct {
	sender, target string
	class          int
	metas          []cache.ItemMeta
}

// expectation is the oracle's full prediction for the action.
type expectation struct {
	moved        []migrated
	total        int
	finalMembers []string
}

func toList(metas []cache.ItemMeta) fusecache.List {
	l := make(fusecache.List, len(metas))
	for i, m := range metas {
		l[i] = m.LastAccess.UnixNano()
	}
	return l
}

func sortedClasses(m map[int][]cache.ItemMeta) []int {
	out := make([]int, 0, len(m))
	for classID := range m {
		out = append(out, classID)
	}
	sort.Ints(out)
	return out
}

// expectMigration mirrors core's migrate for senders moving toward
// newMembers, recomputing centrally and fault-free what the distributed
// phases 1–2 should decide: route every sender's items by consistent hash
// over newMembers (an item that stays with its sender is not offered), run
// FuseCache per (receiver, class) over the offering senders' lists plus
// the receiver's own with the same absorb capacity the agent would use,
// and take the winning head counts. Receivers are the new members that are
// not senders. Valid because phases 1–2 move no data — the agents consult
// exactly the snapshotted pre-state.
func expectMigration(pre map[string]*nodeState, senders, newMembers []string) (*expectation, error) {
	ring, err := hashring.New(newMembers)
	if err != nil {
		return nil, err
	}
	// offered: target → sender → class → the sender's items, MRU order.
	offered := make(map[string]map[string]map[int][]cache.ItemMeta)
	for _, sender := range senders {
		st := pre[sender]
		for _, classID := range sortedClasses(st.byClass) {
			for _, mt := range st.byClass[classID] {
				owner, err := ring.Get(mt.Key)
				if err != nil {
					return nil, err
				}
				if owner == sender {
					continue
				}
				if offered[owner] == nil {
					offered[owner] = make(map[string]map[int][]cache.ItemMeta)
				}
				if offered[owner][sender] == nil {
					offered[owner][sender] = make(map[int][]cache.ItemMeta)
				}
				offered[owner][sender][classID] = append(offered[owner][sender][classID], mt)
			}
		}
	}
	exp := &expectation{finalMembers: newMembers}
	for _, target := range newMembers {
		bySender := offered[target]
		if len(bySender) == 0 || slices.Contains(senders, target) {
			continue // no offer reaches it, or a sender: no phase 2 runs
		}
		var offering []string
		var classes []int
		for sender, byClass := range bySender {
			offering = append(offering, sender)
			for classID := range byClass {
				if !slices.Contains(classes, classID) {
					classes = append(classes, classID)
				}
			}
		}
		sort.Strings(offering)
		sort.Ints(classes)
		tst := pre[target]
		for _, classID := range classes {
			lists := make([]fusecache.List, 0, len(offering)+1)
			for _, sender := range offering {
				lists = append(lists, toList(bySender[sender][classID]))
			}
			own := tst.byClass[classID]
			lists = append(lists, toList(own))
			n := tst.absorb[classID]
			if n < len(own) {
				n = len(own)
			}
			res, err := fusecache.TopN(lists, n)
			if err != nil {
				return nil, fmt.Errorf("oracle fusecache class %d: %w", classID, err)
			}
			for i, sender := range offering {
				if take := res.Take[i]; take > 0 {
					exp.moved = append(exp.moved, migrated{
						sender: sender, target: target, class: classID,
						metas: bySender[sender][classID][:take],
					})
					exp.total += take
				}
			}
		}
	}
	return exp, nil
}

// runCtx bundles everything the checks compare.
type runCtx struct {
	direction string
	senders   []string
	initial   []string
	caches    map[string]*cache.Cache
	pre       map[string]*nodeState
	post      map[string]*nodeState
	exp       *expectation
	report    *core.ScaleReport
	master    *core.Master
	runErr    error
	hot       *hotStage
	live      *liveStage
}

// runChecks runs every applicable invariant and returns the violations.
func runChecks(rc *runCtx) []string {
	rc.post = snapshotAll(rc.caches, rc.hot)
	v := checkReport(rc)
	if rc.runErr == nil {
		v = append(v, checkSelectedSurvive(rc)...)
		v = append(v, checkImportOrder(rc)...)
		v = append(v, checkRing(rc)...)
		v = append(v, checkLive(rc)...)
	} else {
		v = append(v, checkAbortSafety(rc)...)
		if rc.live != nil {
			// Final-owner placement is meaningless after an abort, but the
			// mid-run read-plan assertions that did fire still count.
			v = append(v, rc.live.violations...)
		}
	}
	v = append(v, checkHotKeys(rc)...)
	return v
}

// checkSelectedSurvive is I1: every oracle-selected item must reside on
// its target with value and timestamp intact, unless the target provably
// evicted it as the coldest of its class.
func checkSelectedSurvive(rc *runCtx) []string {
	var v []string
	for _, mig := range rc.exp.moved {
		post := rc.post[mig.target]
		for _, mt := range mig.metas {
			info, ok := post.keys[mt.Key]
			if !ok {
				if slices.Contains(rc.exp.finalMembers, mig.sender) && rc.caches[mig.sender].Contains(mt.Key) {
					v = append(v, fmt.Sprintf("I1: %s expected on %s but still resident on %s", mt.Key, mig.target, mig.sender))
					continue
				}
				if min, populated := post.minClassTS(mig.class); populated && !min.Before(mt.LastAccess) {
					continue // evicted as the coldest of the class: legal
				}
				v = append(v, fmt.Sprintf("I1: hot item %s (class %d) selected for %s was lost", mt.Key, mig.class, mig.target))
				continue
			}
			if !info.ts.Equal(mt.LastAccess) {
				v = append(v, fmt.Sprintf("I1: %s on %s has timestamp %v, want %v", mt.Key, mig.target, info.ts, mt.LastAccess))
			}
			if want := rc.pre[mig.sender].keys[mt.Key].vhash; info.vhash != want {
				v = append(v, fmt.Sprintf("I1: %s on %s has corrupted value", mt.Key, mig.target))
			}
		}
	}
	return v
}

// checkImportOrder is I2: within one sender's import set, each target
// shard's list order must be non-increasing in timestamp — a replayed
// import that re-hoists an item to the MRU head breaks this.
func checkImportOrder(rc *runCtx) []string {
	var v []string
	for _, mig := range rc.exp.moved {
		keys := make(map[string]struct{}, len(mig.metas))
		for _, mt := range mig.metas {
			keys[mt.Key] = struct{}{}
		}
		shards, err := rc.caches[mig.target].ClassOrderByShard(mig.class)
		if err != nil {
			v = append(v, fmt.Sprintf("I2: dump %s class %d: %v", mig.target, mig.class, err))
			continue
		}
		for si, list := range shards {
			var prev time.Time
			prevKey := ""
			for _, it := range list { // head (MRU end) first
				if _, ok := keys[it.Key]; !ok {
					continue
				}
				if prevKey != "" && it.LastAccess.After(prev) {
					v = append(v, fmt.Sprintf("I2: MRU inversion on %s class %d run %d: %s(%v) sits behind %s(%v)",
						mig.target, mig.class, si, it.Key, it.LastAccess, prevKey, prev))
				}
				prev, prevKey = it.LastAccess, it.Key
			}
		}
	}
	return v
}

// checkReport is I4: the ScaleReport must match the observed outcome.
func checkReport(rc *runCtx) []string {
	var v []string
	if rc.report == nil {
		if rc.runErr == nil {
			v = append(v, "I4: completed action returned no report")
		}
		return v
	}
	r := rc.report
	wantDir := rc.direction
	if r.Direction != wantDir {
		v = append(v, fmt.Sprintf("I4: report direction %q, want %q", r.Direction, wantDir))
	}
	if rc.runErr == nil {
		if r.Aborted != "" {
			v = append(v, fmt.Sprintf("I4: completed run reports aborted phase %q", r.Aborted))
		}
		if !equalStrings(r.Members, rc.exp.finalMembers) {
			v = append(v, fmt.Sprintf("I4: report members %v, want %v", r.Members, rc.exp.finalMembers))
		}
		if !equalStrings(rc.master.Members(), rc.exp.finalMembers) {
			v = append(v, fmt.Sprintf("I4: master members %v, want %v", rc.master.Members(), rc.exp.finalMembers))
		}
		if r.ItemsMigrated != rc.exp.total {
			v = append(v, fmt.Sprintf("I4: report migrated %d items, oracle expects %d", r.ItemsMigrated, rc.exp.total))
		}
		return v
	}
	// Only a phase before settle rolls back. A release that exhausts its
	// retries leaves the action settled, which this harness's retry budget
	// makes a violation too.
	valid := map[string]bool{"metadata": true, "fusecache": true, "data": true}
	if !valid[r.Aborted] {
		v = append(v, fmt.Sprintf("I4: aborted run names phase %q, not a migration phase", r.Aborted))
	}
	if !equalStrings(rc.master.Members(), sortedCopy(rc.initial)) {
		v = append(v, fmt.Sprintf("I4: abort changed membership to %v", rc.master.Members()))
	}
	if (r.Aborted == "metadata" || r.Aborted == "fusecache") && r.ItemsMigrated != 0 {
		v = append(v, fmt.Sprintf("I4: aborted in %s yet reports %d items migrated", r.Aborted, r.ItemsMigrated))
	}
	return v
}

// checkAbortSafety is I1's abort side: a clean abort must lose nothing.
// No sender drops a key before the table settles, so after the rollback
// every sender still holds everything it held before. Receivers may have
// evicted cold items to make room for imports; a key found only on a
// receiver — a newcomer the rollback discards — counts as lost.
func checkAbortSafety(rc *runCtx) []string {
	var v []string
	for _, sender := range rc.senders {
		post := rc.post[sender]
		for key, info := range rc.pre[sender].keys {
			got, ok := post.keys[key]
			if !ok {
				v = append(v, fmt.Sprintf("I1: aborted scale-%s lost %s from sender %s", rc.direction, key, sender))
				continue
			}
			if got.vhash != info.vhash {
				v = append(v, fmt.Sprintf("I1: aborted scale-%s corrupted %s on %s", rc.direction, key, sender))
			}
		}
	}
	return v
}

// checkRing is I5: after completion the membership converges, every
// resident key sits on its consistent-hash owner — a surviving sender has
// released what it no longer owns — and no key is resident on two members.
func checkRing(rc *runCtx) []string {
	var v []string
	final := rc.master.Members()
	ring, err := hashring.New(final)
	if err != nil {
		return []string{fmt.Sprintf("I5: final membership %v invalid: %v", final, err)}
	}
	holder := make(map[string]string)
	for _, node := range final {
		for key := range rc.post[node].keys {
			if other, dup := holder[key]; dup {
				v = append(v, fmt.Sprintf("I5: %s resident on both %s and %s", key, other, node))
				continue
			}
			holder[key] = node
		}
	}
	for key, node := range holder {
		if owner, err := ring.Get(key); err != nil || owner != node {
			v = append(v, fmt.Sprintf("I5: %s resident on %s, ring owner is %s", key, node, owner))
		}
	}
	return v
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// stateHash digests the cluster's externally observable state — the
// membership plus every member's resident (key, timestamp, class, value)
// set. Two runs that converge to the same state hash identically; MRU
// positions are deliberately excluded (I2 checks order structurally).
func stateHash(caches map[string]*cache.Cache, members []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "members|%v\n", members)
	for _, node := range sortedCopy(members) {
		st := snapshot(caches[node], nil)
		keys := make([]string, 0, len(st.keys))
		for k := range st.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			info := st.keys[k]
			fmt.Fprintf(h, "%s|%s|%d|%d|%016x\n", node, k, info.ts.UnixNano(), info.class, info.vhash)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

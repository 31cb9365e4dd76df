package cache

// refList is an intrusive doubly-linked list of chunks kept in
// Most-Recently-Used order: head is the hottest item, tail the coldest.
// Memcached stores each slab class's items this way so that LRU eviction
// is O(1) — delete the tail (Section II-A). The links are not pointers:
// prev/next are itemRefs stored in the chunk headers themselves, so the
// list contributes nothing to the GC's pointer graph.
type refList struct {
	head itemRef
	tail itemRef
	size int
}

// pushFront inserts a chunk at the MRU head.
func (l *refList) pushFront(p *pagePool, ref itemRef) {
	ch := p.chunkAt(ref)
	setChPrev(ch, nilRef)
	setChNext(ch, l.head)
	if l.head != nilRef {
		setChPrev(p.chunkAt(l.head), ref)
	}
	l.head = ref
	if l.tail == nilRef {
		l.tail = ref
	}
	l.size++
}

// remove unlinks a chunk from the list.
func (l *refList) remove(p *pagePool, ref itemRef) {
	ch := p.chunkAt(ref)
	prev, next := chPrev(ch), chNext(ch)
	if prev != nilRef {
		setChNext(p.chunkAt(prev), next)
	} else {
		l.head = next
	}
	if next != nilRef {
		setChPrev(p.chunkAt(next), prev)
	} else {
		l.tail = prev
	}
	setChPrev(ch, nilRef)
	setChNext(ch, nilRef)
	l.size--
}

// moveToFront relinks an existing member at the head. It is the hottest
// list operation (every Get promotes), so the unlink and relink are fused:
// a non-head member always has a live prev, and the old head is always
// live, which drops several nil checks and redundant link writes that the
// remove+pushFront composition would pay.
func (l *refList) moveToFront(p *pagePool, ref itemRef) {
	if l.head == ref {
		return
	}
	ch := p.chunkAt(ref)
	prev, next := chPrev(ch), chNext(ch)
	setChNext(p.chunkAt(prev), next)
	if next != nilRef {
		setChPrev(p.chunkAt(next), prev)
	} else {
		l.tail = prev
	}
	setChPrev(ch, nilRef)
	setChNext(ch, l.head)
	setChPrev(p.chunkAt(l.head), ref)
	l.head = ref
}

// each walks the list head→tail, calling fn with each ref and its resolved
// chunk; it stops early if fn returns false. fn may unlink the current
// chunk (the successor is captured first) but must not unlink others.
func (l *refList) each(p *pagePool, fn func(ref itemRef, ch []byte) bool) {
	for ref := l.head; ref != nilRef; {
		ch := p.chunkAt(ref)
		next := chNext(ch)
		if !fn(ref, ch) {
			return
		}
		ref = next
	}
}

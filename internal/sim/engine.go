// Package sim provides the discrete-event simulation kernel used by every
// timed model in the repository.
//
// Time is an integer count of picoseconds. An integer base avoids the drift
// a float64 clock accumulates over billions of events and makes simulations
// bit-reproducible across machines. One picosecond resolves every JEDEC
// timing in the DDR4/DDR5/HBM generations (the finest is a fraction of a
// 0.357 ns DDR5-5600 clock) without rounding.
//
// # Fast path
//
// The kernel is built for the workload the Mess sweep produces: millions of
// short-horizon events (DDR command timing, pacing, completion callbacks)
// per curve point. Three mechanisms keep the per-event cost down:
//
//   - a free-list event pool: event records are recycled as soon as they
//     fire or are swept, so steady-state simulation schedules without
//     allocating. Handles carry a generation counter, making Cancel on an
//     already-fired (and possibly recycled) event a safe no-op;
//   - a calendar timer wheel in front of the heap: events within the wheel
//     horizon (1024 buckets × 256 ps ≈ 262 ns — which covers DDR timing,
//     issue pacing and completion latencies) are placed in O(1) buckets
//     found again via an occupancy bitmap; only far-future events (refresh
//     epochs, coarse pacing ladders) pay for the binary heap;
//   - cancellation by tombstone: Cancel marks the event dead in O(1) and
//     the sweep recycles it when its position drains, instead of restoring
//     heap shape on every cancel.
//
// Steady-rate components should hold a Timer (re-armable one-shot with a
// fixed callback) or a Ticker (fixed-period recurring event) instead of
// scheduling fresh closures, which removes the remaining per-event closure
// allocations from their paths.
//
// # Determinism
//
// Events fire in strictly increasing (deadline, schedule order): equal-time
// events run exactly in the order they were scheduled, regardless of which
// internal structure (active list, wheel bucket, overflow heap) held them.
// Two runs that schedule the same events in the same order execute
// identically — Steps(), Now() and every callback interleaving match. The
// wheel is an internal routing layer only; it never reorders events with
// respect to the (at, seq) total order the original heap implemented.
package sim

import "math/bits"

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units, expressed in the picosecond base.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanoseconds converts a float64 nanosecond count to a Time, rounding to
// the nearest picosecond.
func FromNanoseconds(ns float64) Time { return Time(ns*float64(Nanosecond) + 0.5) }

// Timer-wheel geometry. Buckets span 2^granBits picoseconds; the wheel
// covers wheelSize buckets. Events within the horizon are bucketed in O(1);
// events beyond it go to the overflow heap and cascade into the wheel as
// the cursor approaches them.
const (
	granBits  = 8                     // 256 ps per bucket
	wheelBits = 10                    // 1024 buckets
	wheelSize = int64(1) << wheelBits // slots covered by the wheel window
	wheelMask = wheelSize - 1         //
	occWords  = int(wheelSize / 64)   // occupancy bitmap words
)

// event is one scheduled callback record. Records are pooled: after firing
// (or after a cancelled record is swept) the record returns to the engine's
// free list with its generation bumped, which invalidates every Handle that
// still points at it.
type event struct {
	at    Time
	key   Time   // schedule instant (or ScheduleTimedSent's instant): first tie-break
	seq   uint64 // final tie-break so equal-(at, key, tag) events run in schedule order
	gen   uint64 // bumped on recycle; Handles must match to act
	tag   int32  // scheduling entity (0 = default); orders (at, key) ties across entities
	dead  bool   // cancelled tombstone, swept lazily
	inCur bool   // resident in the active run (drives tombstone compaction)
	fn    func()
	tfn   func(Time) // timed variant: called with the deadline
	next  *event     // free-list link
}

// Handle identifies one scheduled event. The zero Handle is valid and inert.
// Handles are values: copying one copies the right to cancel.
type Handle struct {
	eng *Engine
	ev  *event
	gen uint64
}

// live reports whether the handle still names a pending event.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen && !h.ev.dead }

// Pending reports whether the handle still names a queued event: false once
// the event has fired, was cancelled, or for the zero Handle. Components
// that retain handles to their own scheduled work (the DRAM controller's
// completion ring) use it to prune records that the engine already served.
func (h Handle) Pending() bool { return h.live() }

// Cancel removes the pending event in O(1). Cancelling an event that has
// already fired, was already cancelled, or was never scheduled (the zero
// Handle) is a no-op: the generation counter detects a recycled record, so
// a stale handle can never cancel an unrelated future event.
func (h Handle) Cancel() {
	if !h.live() {
		return
	}
	h.ev.dead = true
	h.ev.fn, h.ev.tfn = nil, nil
	h.eng.live--
	if h.ev.inCur {
		h.eng.curDead++
	}
}

// Engine is a single-threaded discrete-event scheduler. It is intentionally
// not safe for concurrent use: every simulation instance owns one engine and
// runs on one goroutine; experiments parallelize across engines.
type Engine struct {
	now    Time
	seq    uint64
	nsteps uint64
	live   int // pending, non-cancelled events

	// cur is the active sorted run: every queued event whose slot is
	// ≤ wslot, ordered by (at, seq) and served from curPos. New events
	// landing at or before the cursor are merge-inserted here. curDead
	// counts tombstones resident in the unserved tail: when they dominate
	// it, insertCur compacts instead of memmoving over dead records —
	// without this, schedule+cancel churn at the cursor degenerates to
	// O(n) per insert.
	cur     []*event
	curPos  int
	curDead int

	wslot   int64 // wheel cursor: absolute slot (at >> granBits)
	wheelN  int   // events resident in buckets
	buckets [wheelSize][]*event
	occ     [occWords]uint64

	overflow []*event // min-heap by (at, seq): events beyond the horizon

	pool *event // free list of recycled records

	bound    Time // active RunUntil target, for RunBound
	hasBound bool
}

// New returns an Engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending reports the number of live queued events. Cancelled events never
// count here, even while their tombstones await sweeping.
func (e *Engine) Pending() int { return e.live }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) fires the event at Now; the kernel never runs time backwards.
func (e *Engine) Schedule(at Time, fn func()) Handle { return e.add(at, fn, nil) }

// After queues fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func()) Handle { return e.add(e.now+d, fn, nil) }

// ScheduleTimed queues fn to run at absolute time at, invoked with that
// deadline. It exists for the completion-callback pattern
// Schedule(at, func() { done(at) }): storing the func(Time) directly makes
// the hot completion path allocation-free (no capturing closure).
func (e *Engine) ScheduleTimed(at Time, fn func(Time)) Handle { return e.add(at, nil, fn) }

// AfterTimed queues fn to run d picoseconds from now, invoked with its
// deadline.
func (e *Engine) AfterTimed(d Time, fn func(Time)) Handle { return e.add(e.now+d, nil, fn) }

func (e *Engine) add(at Time, fn func(), tfn func(Time)) Handle {
	return e.addKeyed(at, e.now, 0, fn, tfn)
}

// ScheduleTagged is Schedule with an explicit entity tag: equal-(deadline,
// schedule instant) events fire in tag order before falling back to
// schedule order. DRAM channels schedule with tag i+1 and device models
// with their device tag, so a same-instant tie between two entities
// resolves by entity rather than by which one happened to schedule first.
// The release CSVs and the charz/v3 fingerprint are defined by this order.
func (e *Engine) ScheduleTagged(at Time, tag int32, fn func()) Handle {
	return e.addKeyed(at, e.now, tag, fn, nil)
}

// ScheduleTimedTagged is ScheduleTimed with an explicit entity tag.
func (e *Engine) ScheduleTimedTagged(at Time, tag int32, fn func(Time)) Handle {
	return e.addKeyed(at, e.now, tag, nil, fn)
}

// ScheduleTimedSent queues fn to run at absolute time at, ordered among
// equal-deadline events as if it had been scheduled at instant sent with
// tag tag. Equal-deadline events fire in (schedule instant, tag, schedule
// order), so an explicit sent instant places the event ahead of or behind
// local schedules targeting the same deadline. Trace replay uses it with
// a sentinel instant so its bounded dispatch window fires each record
// exactly where pre-scheduling the whole trace would have.
func (e *Engine) ScheduleTimedSent(at, sent Time, tag int32, fn func(Time)) Handle {
	return e.addKeyed(at, sent, tag, nil, fn)
}

func (e *Engine) addKeyed(at, key Time, tag int32, fn func(), tfn func(Time)) Handle {
	if at < e.now {
		at = e.now
	}
	// Keep the wheel cursor abreast of the clock while no events reside in
	// buckets. RunUntil (and far-future cascades) can advance the clock many
	// horizons past wslot; without this catch-up, every short-delta schedule
	// after such a jump computes slot-wslot ≥ wheelSize and detours through
	// the overflow heap — the pathology that made cancel-heavy churn pay
	// O(log n) heap traffic for deadlines only nanoseconds away. The jump is
	// safe exactly when the buckets are empty: cur entries are served
	// regardless of the cursor, and every pending overflow event has a
	// deadline ≥ now, so its slot stays ahead of (or lands on) the new
	// cursor and cascades normally.
	if e.wheelN == 0 {
		if nowSlot := int64(e.now) >> granBits; nowSlot > e.wslot {
			e.wslot = nowSlot
		}
	}
	ev := e.alloc()
	ev.at, ev.key, ev.tag, ev.seq, ev.fn, ev.tfn = at, key, tag, e.seq, fn, tfn
	e.seq++
	e.live++
	switch slot := int64(at) >> granBits; {
	case slot <= e.wslot:
		e.insertCur(ev)
	case slot-e.wslot < wheelSize:
		e.bucketAdd(slot, ev)
	default:
		e.heapPush(ev)
	}
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// less is the kernel's total event order: deadline, then schedule instant
// (the explicit instant for ScheduleTimedSent), then entity tag, then
// schedule order. For plain schedules key is the nondecreasing engine
// clock and tag is 0, so among them the order coincides with the
// historical (at, seq) order. The key lets trace replay's sentinel
// instant sort ahead of local schedules; the tag orders same-instant ties
// across DRAM channels and devices by entity. Two events tying on all of
// (at, key, tag) come from one entity and fire in its schedule order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.seq < b.seq
}

// insertCur merge-inserts ev into the unserved tail of the active run. The
// new event carries the highest seq, so it lands after every queued event
// with an equal or earlier deadline — exactly the (at, seq) order.
func (e *Engine) insertCur(ev *event) {
	if e.curDead >= 64 && 2*e.curDead >= len(e.cur)-e.curPos {
		e.compactCur()
	}
	ev.inCur = true
	lo, hi := e.curPos, len(e.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e.cur[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.cur = append(e.cur, nil)
	copy(e.cur[lo+1:], e.cur[lo:])
	e.cur[lo] = ev
}

// compactCur sweeps tombstones out of the unserved tail of the active run,
// preserving the order of the survivors. Triggered when dead records are
// about to dominate insert cost; amortized O(1) per cancel.
func (e *Engine) compactCur() {
	out := e.curPos
	for i := e.curPos; i < len(e.cur); i++ {
		ev := e.cur[i]
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.cur[out] = ev
		out++
	}
	for i := out; i < len(e.cur); i++ {
		e.cur[i] = nil
	}
	e.cur = e.cur[:out]
	e.curDead = 0
}

func (e *Engine) bucketAdd(slot int64, ev *event) {
	ev.inCur = false
	idx := slot & wheelMask
	e.buckets[idx] = append(e.buckets[idx], ev)
	e.occ[idx>>6] |= 1 << (uint(idx) & 63)
	e.wheelN++
}

// peek returns the next live event without consuming it, advancing the
// wheel cursor and cascading overflow as needed. It returns nil when the
// queue is empty (sweeping any remaining tombstones on the way).
func (e *Engine) peek() *event {
	for {
		for e.curPos < len(e.cur) {
			ev := e.cur[e.curPos]
			if ev.dead {
				e.curPos++
				e.curDead--
				e.recycle(ev)
				continue
			}
			return ev
		}
		if len(e.cur) > 0 || e.curPos > 0 {
			e.cur, e.curPos = e.cur[:0], 0
		}
		if e.wheelN == 0 && len(e.overflow) == 0 {
			return nil
		}
		// Cascade: pull overflow events inside the horizon into the wheel;
		// with an empty wheel, jump the cursor straight to the overflow
		// minimum. Heap pops come out in (at, seq) order, so events landing
		// directly in cur arrive sorted.
		for len(e.overflow) > 0 {
			os := int64(e.overflow[0].at) >> granBits
			if os-e.wslot >= wheelSize {
				if e.wheelN > 0 {
					break
				}
				e.wslot = os
			}
			ev := e.heapPop()
			if slot := int64(ev.at) >> granBits; slot <= e.wslot {
				ev.inCur = true
				if ev.dead {
					e.curDead++
				}
				e.cur = append(e.cur, ev)
			} else {
				e.bucketAdd(slot, ev)
			}
		}
		if len(e.cur) > 0 {
			continue
		}
		// Advance to the next occupied bucket and make it the active run.
		// Tombstones are swept here, before sorting: a cancel-heavy burst
		// can fill a bucket with dead records, and ordering them first
		// would waste the whole sort on events that fire nothing.
		e.wslot += e.nextOccupied()
		idx := e.wslot & wheelMask
		e.cur, e.buckets[idx] = e.buckets[idx], e.cur[:0]
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
		e.wheelN -= len(e.cur)
		out := 0
		for _, ev := range e.cur {
			if ev.dead {
				e.recycle(ev)
				continue
			}
			ev.inCur = true
			e.cur[out] = ev
			out++
		}
		for i := out; i < len(e.cur); i++ {
			e.cur[i] = nil
		}
		e.cur = e.cur[:out]
		sortEvents(e.cur)
	}
}

// nextOccupied scans the occupancy bitmap circularly from the cursor and
// reports the distance (in slots, ≥ 1) to the nearest occupied bucket. It
// must only be called with wheelN > 0.
func (e *Engine) nextOccupied() int64 {
	cursor := (e.wslot + 1) & wheelMask
	w := int(cursor >> 6)
	word := e.occ[w] &^ (1<<(uint(cursor)&63) - 1)
	for {
		if word != 0 {
			idx := int64(w<<6 + bits.TrailingZeros64(word))
			return (idx - e.wslot) & wheelMask
		}
		w++
		if w == occWords {
			w = 0
		}
		word = e.occ[w]
	}
}

// sortEvents orders a drained bucket by (at, seq). Buckets span 256 ps and
// are appended in schedule order, so live runs are short and nearly
// sorted; insertion sort beats the generic sort here (a pdqsort fallback
// for long runs measured ~50% slower on the dense-wheel workload, because
// even crowded buckets arrive almost in order once tombstones are swept
// before sorting).
func sortEvents(evs []*event) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && less(ev, evs[j]) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}

func (e *Engine) alloc() *event {
	ev := e.pool
	if ev == nil {
		return &event{}
	}
	e.pool = ev.next
	ev.next = nil
	return ev
}

// recycle returns a served or swept record to the pool, bumping its
// generation so outstanding Handles go inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.tfn = nil, nil
	ev.dead = false
	ev.inCur = false
	ev.next = e.pool
	e.pool = ev
}

// NextDeadline reports the deadline of the earliest pending event without
// firing it; ok is false when the queue is empty. Components that pace
// themselves with recurring self-events (the DRAM decide loop) use it to
// fuse iterations: when the component's own next event would be the
// engine's next event anyway, it may run the work inline at that time
// (advancing the clock with RunUntil, which fires nothing when every
// pending deadline lies beyond the target) — the ordering is identical by
// construction, without the schedule/fire round-trip. Peeking may
// restructure internal queues (cascade overflow events, advance the wheel
// cursor) but never reorders or fires anything.
func (e *Engine) NextDeadline() (at Time, ok bool) {
	// Fast path for the fusion loop's per-iteration check: a live head in
	// the active run answers without touching the wheel.
	if e.curPos < len(e.cur) {
		if ev := e.cur[e.curPos]; !ev.dead {
			return ev.at, true
		}
	}
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Step runs the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.curPos++
	e.now = ev.at
	e.nsteps++
	e.live--
	fn, tfn, at := ev.fn, ev.tfn, ev.at
	// Recycle before invoking: the callback's own scheduling reuses the
	// record immediately, and the generation bump inertly expires any
	// handle still pointing at it.
	e.recycle(ev)
	if tfn != nil {
		tfn(at)
	} else {
		fn()
	}
	return true
}

// StepIf runs the next event only if it is exactly the event h names,
// reporting whether it fired. It is the targeted form of Step for
// components that want to absorb one of their own scheduled events inline
// (the DRAM controller batching its completions into the decide loop):
// because only the queue head can fire, the engine's (at, seq) total order
// is preserved bit-for-bit — if any foreign event sorts earlier, StepIf
// refuses and the caller falls back to the ordinary scheduled path.
func (e *Engine) StepIf(h Handle) bool {
	if h.eng != e || !h.live() {
		return false
	}
	ev := e.peek()
	if ev != h.ev || ev.gen != h.gen {
		return false
	}
	return e.Step()
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with deadlines ≤ t, then advances the clock to t.
// Events scheduled exactly at t do run. While it runs, t is visible to
// callbacks as RunBound: self-pacing components that fuse their recurring
// events inline (the DRAM decide loop) stop at the bound, so work beyond t
// stays queued exactly as it would with one event per iteration. Nested
// RunUntil calls narrow the bound for their duration and restore it.
func (e *Engine) RunUntil(t Time) {
	prevBound, prevHas := e.bound, e.hasBound
	e.bound, e.hasBound = t, true
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	e.bound, e.hasBound = prevBound, prevHas
}

// RunBound reports the target time of the innermost RunUntil currently
// executing; ok is false outside any RunUntil (Run, RunWhile, direct Step),
// where a drain has no boundary for fused work to respect.
func (e *Engine) RunBound() (t Time, ok bool) { return e.bound, e.hasBound }

// RunWhile executes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, counters cleared — while keeping its allocated capacity warm: the
// event pool, bucket slices and overflow array are retained, so a reused
// engine simulates its next run without re-allocating kernel structures.
// Every outstanding Handle, Timer and Ticker of the previous run goes
// inert. This is how the benchmark harness reuses one engine per worker
// across sweep points instead of rebuilding the kernel for each.
func (e *Engine) Reset() {
	for _, ev := range e.cur[e.curPos:] {
		e.recycle(ev)
	}
	e.cur, e.curPos = e.cur[:0], 0
	if e.wheelN > 0 {
		for i := range e.buckets {
			if len(e.buckets[i]) == 0 {
				continue
			}
			for _, ev := range e.buckets[i] {
				e.recycle(ev)
			}
			e.buckets[i] = e.buckets[i][:0]
		}
	}
	for i := range e.occ {
		e.occ[i] = 0
	}
	e.wheelN = 0
	for _, ev := range e.overflow {
		e.recycle(ev)
	}
	e.overflow = e.overflow[:0]
	e.now, e.seq, e.nsteps, e.live, e.wslot, e.curDead = 0, 0, 0, 0, 0, 0
}

// Overflow heap: a plain slice min-heap by (at, seq), hand-rolled to avoid
// the container/heap interface dispatch on the far-event path.

func (e *Engine) heapPush(ev *event) {
	ev.inCur = false
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) heapPop() *event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && less(h[l], h[min]) {
			min = l
		}
		if r < n && less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.overflow = h
	return top
}

// Timer is a re-armable one-shot timer with a fixed callback, the
// replacement for components that repeatedly schedule the same wake-up
// closure (issue pacing, controller decide events). The callback func is
// captured once at construction, so arming allocates nothing beyond the
// pooled event record. Arming an armed timer reschedules it; a timer whose
// event has fired reads as disarmed.
type Timer struct {
	eng *Engine
	fn  func()
	h   Handle
}

// NewTimer builds a timer that runs fn when it expires.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// Arm schedules the timer to fire at absolute time at, replacing any
// pending expiry.
func (t *Timer) Arm(at Time) {
	t.h.Cancel()
	t.h = t.eng.Schedule(at, t.fn)
}

// ArmAfter schedules the timer to fire d picoseconds from now.
func (t *Timer) ArmAfter(d Time) { t.Arm(t.eng.now + d) }

// Stop cancels a pending expiry; stopping a disarmed timer is a no-op.
func (t *Timer) Stop() {
	t.h.Cancel()
	t.h = Handle{}
}

// Armed reports whether an expiry is pending. Inside the timer's own
// callback the timer already reads as disarmed, so callbacks can re-arm.
func (t *Timer) Armed() bool { return t.h.live() }

// When reports the pending expiry time; ok is false when disarmed.
func (t *Timer) When() (at Time, ok bool) {
	if !t.h.live() {
		return 0, false
	}
	return t.h.ev.at, true
}

// Ticker fires a fixed callback every period, rescheduling in place: one
// event record cycles through the pool instead of a fresh closure per tick.
// The first tick fires one period after Start. The callback may call Stop
// to end the chain (the tick after a Stop is never scheduled).
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	tick    func()
	h       Handle
	running bool
}

// NewTicker builds a stopped ticker with the given period.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	// The reschedule runs after fn, matching the schedule order of the
	// callback-chain idiom this replaces. The h.live() guard keeps a
	// callback that restarts the ticker (Stop then Start) from forking a
	// second tick chain: Start already scheduled the next tick.
	t.tick = func() {
		t.fn()
		if t.running && !t.h.live() {
			t.h = t.eng.Schedule(t.eng.now+t.period, t.tick)
		}
	}
	return t
}

// Start begins ticking; the first tick fires one period from now. It is
// idempotent.
func (t *Ticker) Start() {
	if t.running {
		return
	}
	t.running = true
	t.h = t.eng.Schedule(t.eng.now+t.period, t.tick)
}

// Stop halts the ticker; a pending tick is cancelled. It is idempotent.
func (t *Ticker) Stop() {
	t.running = false
	t.h.Cancel()
	t.h = Handle{}
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.running }

package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of schedule order at %d: %v", i, order[:i+1])
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := New()
	var at Time = -1
	e.Schedule(100, func() {
		e.Schedule(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", at)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events until t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestAfterCascade(t *testing.T) {
	e := New()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(7, tick)
		}
	}
	e.After(7, tick)
	e.Run()
	for i, at := range ticks {
		if want := Time(7 * (i + 1)); at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Nanosecond.Nanoseconds() != 1 {
		t.Fatal("Nanosecond != 1 ns")
	}
	if Second.Seconds() != 1 {
		t.Fatal("Second != 1 s")
	}
	if FromNanoseconds(3.5) != 3500*Picosecond {
		t.Fatalf("FromNanoseconds(3.5) = %d", FromNanoseconds(3.5))
	}
}

func TestFromNanosecondsRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		nsVal := float64(raw) / 16.0 // up to ~2.7e8 ns with sub-ns fractions
		got := FromNanoseconds(nsVal).Nanoseconds()
		diff := got - nsVal
		if diff < 0 {
			diff = -diff
		}
		return diff <= 0.001 // within a picosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepsCounts(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Steps() != 17 {
		t.Fatalf("Steps = %d, want 17", e.Steps())
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := New()
	ev := e.Schedule(10, func() { t.Fatal("cancelled event fired") })
	e.Schedule(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (cancelled events must not count)", e.Pending())
	}
	ev.Cancel() // idempotent
	if e.Pending() != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1", e.Steps())
	}
}

func TestCancelFiredEventNoOp(t *testing.T) {
	e := New()
	ev := e.Schedule(5, func() {})
	e.Schedule(10, func() {})
	e.Run()
	ev.Cancel() // already fired: must not disturb the (empty) queue
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestCancelMidQueuePreservesOrder(t *testing.T) {
	e := New()
	var order []Time
	var evs []Handle
	for i := Time(1); i <= 50; i++ {
		i := i
		evs = append(evs, e.Schedule(i, func() { order = append(order, i) }))
	}
	// Cancel every third event, including interior queue positions.
	for i := 0; i < len(evs); i += 3 {
		evs[i].Cancel()
	}
	e.Run()
	want := 0
	for i := Time(1); i <= 50; i++ {
		if (i-1)%3 == 0 {
			continue
		}
		if order[want] != i {
			t.Fatalf("event %d fired out of order: got %v", i, order[:want+1])
		}
		want++
	}
	if len(order) != want {
		t.Fatalf("fired %d events, want %d", len(order), want)
	}
}

func TestCancelInsideCallback(t *testing.T) {
	e := New()
	var late Handle
	fired := false
	e.Schedule(1, func() { late.Cancel() })
	late = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled from an earlier callback still fired")
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := New()
	count := 0
	var evs []Handle
	for i := Time(1); i <= 10; i++ {
		evs = append(evs, e.Schedule(i*10, func() { count++ }))
	}
	evs[0].Cancel()
	evs[4].Cancel()
	e.RunUntil(50)
	if count != 3 {
		t.Fatalf("ran %d events until t=50, want 3", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
}

// --- pooled-event and generation-counter invariants ---

// A handle whose event has fired must go inert even after the record is
// recycled into a new event: cancelling through the stale handle must not
// cancel (or double-fire) the record's next occupant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	h1 := e.Schedule(5, func() {})
	e.Run() // fires and recycles the record

	fired := 0
	h2 := e.Schedule(10, func() { fired++ })
	h1.Cancel() // stale: must be a no-op even if h2 reuses h1's record
	e.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1 (stale handle interfered)", fired)
	}
	_ = h2
}

// Cancelling a fired event inside a later callback — after the record has
// been recycled and re-armed — must not kill the new occupant.
func TestCancelAfterFireDuringRun(t *testing.T) {
	e := New()
	var h1 Handle
	fired := 0
	h1 = e.Schedule(1, func() {
		// Reuse the pool immediately: this new event likely occupies h1's
		// record. The deferred cancel below must not touch it.
		e.Schedule(3, func() { fired++ })
		e.Schedule(2, func() { h1.Cancel() })
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("recycled event fired %d times, want 1", fired)
	}
}

// A cancelled-then-swept record must be reusable without double-firing.
func TestNoDoubleFireAfterCancelAndReuse(t *testing.T) {
	e := New()
	h := e.Schedule(5, func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	fired := 0
	e.Schedule(6, func() { fired++ })
	e.Run()
	h.Cancel() // stale again
	e.Schedule(7, func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
	if e.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2 (cancelled events must not count)", e.Steps())
	}
}

// --- wheel/overflow path invariants ---

// horizonT is a duration safely beyond the timer-wheel horizon, forcing the
// overflow-heap path.
const horizonT = Time(wheelSize<<granBits) * 4

// Events beyond the wheel horizon must still interleave with near events in
// exact (at, seq) order as the cursor reaches them.
func TestOverflowCascadeOrdering(t *testing.T) {
	e := New()
	var order []int
	// Far events first (lower seq), then near events, then a pump that
	// schedules an equal-time rival of a far event via the wheel path.
	e.Schedule(horizonT, func() { order = append(order, 1) })   // overflow, seq 0
	e.Schedule(horizonT+7, func() { order = append(order, 3) }) // overflow, seq 1
	e.Schedule(3, func() { order = append(order, 0) })          // near
	e.Schedule(horizonT-5, func() {
		// Scheduled once time is near the horizon event: lands via the
		// wheel/cur path at the same deadline as the first far event, but
		// with a higher seq — must fire after it.
		e.Schedule(horizonT, func() { order = append(order, 2) })
	})
	e.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("overflow/wheel interleave out of order: %v", order)
		}
	}
}

// RunUntil boundaries on the wheel path: stopping between buckets, exactly
// on a deadline in a wheel bucket, and exactly on an overflow deadline.
func TestRunUntilBoundariesOnWheel(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(100, func() { count++ })           // near bucket
	e.Schedule(100, func() { count++ })           // same bucket, same time
	e.Schedule(50*Nanosecond, func() { count++ }) // later bucket
	e.Schedule(horizonT, func() { count++ })      // overflow

	e.RunUntil(99)
	if count != 0 || e.Now() != 99 {
		t.Fatalf("RunUntil(99): count=%d now=%d, want 0, 99", count, e.Now())
	}
	e.RunUntil(100) // exact deadline: both equal-time events run
	if count != 2 || e.Now() != 100 {
		t.Fatalf("RunUntil(100): count=%d now=%d, want 2, 100", count, e.Now())
	}
	e.RunUntil(50 * Nanosecond) // exact deadline in a far bucket
	if count != 3 || e.Now() != 50*Nanosecond {
		t.Fatalf("RunUntil(50ns): count=%d now=%d, want 3", count, e.Now())
	}
	e.RunUntil(horizonT - 1) // stop just short of the overflow event
	if count != 3 || e.Now() != horizonT-1 {
		t.Fatalf("RunUntil(horizon-1): count=%d now=%d, want 3", count, e.Now())
	}
	e.RunUntil(horizonT) // exact overflow deadline
	if count != 4 || e.Now() != horizonT {
		t.Fatalf("RunUntil(horizon): count=%d now=%d, want 4", count, e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// Scheduling behind an advanced wheel cursor (RunUntil moved the clock far
// forward with the next event even further out) must still fire in order.
func TestScheduleBehindCursor(t *testing.T) {
	e := New()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.Schedule(horizonT, rec)
	// peek inside RunUntil advances the cursor toward horizonT.
	e.RunUntil(10 * Nanosecond)
	// Now schedule events earlier than the materialized far event.
	e.Schedule(20*Nanosecond, rec)
	e.Schedule(15*Nanosecond, rec)
	e.Run()
	want := []Time{15 * Nanosecond, 20 * Nanosecond, horizonT}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunWhile(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i, func() { count++ })
	}
	e.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Fatalf("RunWhile ran %d events, want 4", count)
	}
	e.Run()
	if count != 10 {
		t.Fatalf("drain ran %d events, want 10", count)
	}
}

// --- determinism ---

// chaoticRun exercises every kernel structure: cascades, equal-time ties,
// cancels, timers, and spans from sub-bucket to far beyond the horizon. It
// returns the exact fire sequence.
func chaoticRun(e *Engine) (order []uint64, steps uint64) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	var handles []Handle
	var id uint64
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		myID := id
		id++
		return func() {
			order = append(order, myID)
			if depth >= 6 {
				return
			}
			n := int(next(4))
			for i := 0; i < n; i++ {
				d := Time(next(uint64(horizonT)))
				h := e.After(d, spawn(depth+1))
				if next(5) == 0 {
					handles = append(handles, h)
				}
			}
			if len(handles) > 0 && next(3) == 0 {
				handles[int(next(uint64(len(handles))))].Cancel()
			}
		}
	}
	for i := 0; i < 40; i++ {
		e.Schedule(Time(next(1000)), spawn(0))
	}
	e.Run()
	return order, e.Steps()
}

func TestDeterministicReplay(t *testing.T) {
	o1, s1 := chaoticRun(New())
	o2, s2 := chaoticRun(New())
	if s1 != s2 {
		t.Fatalf("Steps differ across identical runs: %d vs %d", s1, s2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("event counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("event order diverges at step %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

// A Reset engine must behave exactly like a fresh one — same fire order,
// same step count — with the pool warm.
func TestResetMatchesFreshEngine(t *testing.T) {
	e := New()
	o1, s1 := chaoticRun(e)
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
	e.Reset()
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left state: now=%d steps=%d pending=%d", e.Now(), e.Steps(), e.Pending())
	}
	o2, s2 := chaoticRun(e)
	if s1 != s2 || len(o1) != len(o2) {
		t.Fatalf("reused engine diverged: steps %d vs %d, events %d vs %d", s1, s2, len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("reused engine order diverges at %d", i)
		}
	}
}

func TestResetDropsPendingEvents(t *testing.T) {
	e := New()
	e.Schedule(10, func() { t.Fatal("event survived Reset") })
	e.Schedule(horizonT, func() { t.Fatal("overflow event survived Reset") })
	h := e.Schedule(20, func() { t.Fatal("event survived Reset") })
	e.Reset()
	h.Cancel() // stale post-reset handle: no-op
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("post-reset event did not fire")
	}
}

// --- ScheduleTimed / Timer / Ticker ---

func TestScheduleTimedPassesDeadline(t *testing.T) {
	e := New()
	var got Time
	e.ScheduleTimed(42, func(at Time) { got = at })
	e.Run()
	if got != 42 {
		t.Fatalf("timed callback got %d, want 42", got)
	}
	e.AfterTimed(8, func(at Time) { got = at })
	e.Run()
	if got != 50 {
		t.Fatalf("AfterTimed callback got %d, want 50", got)
	}
}

func TestTimerArmStopRearm(t *testing.T) {
	e := New()
	var fires []Time
	tm := e.NewTimer(func() { fires = append(fires, e.Now()) })
	if tm.Armed() {
		t.Fatal("new timer reads armed")
	}
	tm.Arm(10)
	if !tm.Armed() {
		t.Fatal("armed timer reads disarmed")
	}
	if at, ok := tm.When(); !ok || at != 10 {
		t.Fatalf("When = %d,%v want 10,true", at, ok)
	}
	tm.Arm(5) // re-arm earlier: replaces, not duplicates
	e.Run()
	if len(fires) != 1 || fires[0] != 5 {
		t.Fatalf("fires = %v, want [5]", fires)
	}
	if tm.Armed() {
		t.Fatal("fired timer reads armed")
	}
	tm.ArmAfter(7)
	tm.Stop()
	e.Run()
	if len(fires) != 1 {
		t.Fatalf("stopped timer fired: %v", fires)
	}
	tm.ArmAfter(3) // rearm after stop
	e.Run()
	if len(fires) != 2 || fires[1] != 8 {
		t.Fatalf("fires = %v, want [5 8]", fires)
	}
}

func TestTimerRearmInsideCallback(t *testing.T) {
	e := New()
	var fires []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		fires = append(fires, e.Now())
		if tm.Armed() {
			t.Fatal("timer reads armed inside its own callback")
		}
		if len(fires) < 3 {
			tm.ArmAfter(4)
		}
	})
	tm.Arm(4)
	e.Run()
	want := []Time{4, 8, 12}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := New()
	var ticks []Time
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 4 {
			tk.Stop()
		}
	})
	tk.Start()
	tk.Start() // idempotent
	e.Run()
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if tk.Running() {
		t.Fatal("stopped ticker reads running")
	}
	// Restart keeps working.
	tk.Start()
	e.RunUntil(e.Now() + 25)
	if len(ticks) != 6 {
		t.Fatalf("restarted ticker ticked %d times total, want 6", len(ticks))
	}
	tk.Stop()
	e.Run()
}

// A callback that restarts its own ticker (Stop then Start, e.g. to
// resynchronize phase) must not fork a second tick chain.
func TestTickerRestartInsideCallbackSingleChain(t *testing.T) {
	e := New()
	var ticks []Time
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 2 {
			tk.Stop()
			tk.Start() // re-sync: next tick 10 from now, one chain only
		}
	})
	tk.Start()
	e.RunUntil(60)
	tk.Stop()
	e.Run()
	want := []Time{10, 20, 30, 40, 50, 60}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v (restart forked a chain?)", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopOutsideCallbackCancelsPending(t *testing.T) {
	e := New()
	n := 0
	tk := e.NewTicker(10, func() { n++ })
	tk.Start()
	e.RunUntil(25)
	tk.Stop()
	e.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestNextDeadline(t *testing.T) {
	e := New()
	if _, ok := e.NextDeadline(); ok {
		t.Fatal("empty engine reports a deadline")
	}
	e.Schedule(40, func() {})
	e.Schedule(15, func() {})
	if at, ok := e.NextDeadline(); !ok || at != 15 {
		t.Fatalf("NextDeadline = %d,%v, want 15,true", at, ok)
	}
	// Peeking consumes nothing and fires nothing.
	if at, ok := e.NextDeadline(); !ok || at != 15 {
		t.Fatalf("second NextDeadline = %d,%v, want 15,true", at, ok)
	}
	if e.Steps() != 0 || e.Pending() != 2 {
		t.Fatalf("peek executed events: steps=%d pending=%d", e.Steps(), e.Pending())
	}
	e.Step()
	if at, ok := e.NextDeadline(); !ok || at != 40 {
		t.Fatalf("NextDeadline after step = %d,%v, want 40,true", at, ok)
	}
	// A cancelled head is skipped, not reported.
	h := e.Schedule(20, func() {})
	_ = h
	h2 := e.Schedule(25, func() {})
	h.Cancel()
	_ = h2
	if at, ok := e.NextDeadline(); !ok || at != 25 {
		t.Fatalf("NextDeadline over tombstone = %d,%v, want 25,true", at, ok)
	}
	e.Run()
	if _, ok := e.NextDeadline(); ok {
		t.Fatal("drained engine reports a deadline")
	}
}

// NextDeadline must see events in every internal structure: the active run,
// the wheel buckets, and the overflow heap.
func TestNextDeadlineAcrossStructures(t *testing.T) {
	e := New()
	e.Schedule(5*Microsecond, func() {}) // far beyond the horizon: overflow
	if at, ok := e.NextDeadline(); !ok || at != 5*Microsecond {
		t.Fatalf("overflow-only NextDeadline = %d,%v", at, ok)
	}
	e.Schedule(100*Nanosecond, func() {}) // within the horizon: bucket
	if at, ok := e.NextDeadline(); !ok || at != 100*Nanosecond {
		t.Fatalf("bucket NextDeadline = %d,%v", at, ok)
	}
	e.Schedule(0, func() {}) // at/before the cursor: active run
	if at, ok := e.NextDeadline(); !ok || at != 0 {
		t.Fatalf("cur NextDeadline = %d,%v", at, ok)
	}
	e.Run()
}

// RunUntil advancing the clock across an empty wheel must not strand the
// cursor behind the clock: short-delta schedules after the jump belong in
// wheel buckets, and the (at, seq) order must hold across the boundary.
func TestShortDeltaAfterClockJumpStaysOrdered(t *testing.T) {
	e := New()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.Schedule(10, rec)
	e.Run()
	e.RunUntil(3 * Microsecond) // ≫ the wheel horizon, queue empty
	e.Schedule(e.Now()+300, rec)
	e.Schedule(e.Now()+100, rec)
	e.Schedule(e.Now()+200, rec)
	e.Run()
	want := []Time{10, e.Now() - 200, e.Now() - 100, e.Now()}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Cancel-heavy churn with periodic drains — the DRAM decide pattern at
// steady state — must neither allocate per op nor detour through the
// overflow heap. This pins the kernel/schedule_cancel trajectory fix: the
// pathology was the wheel cursor lagging the clock after each drain, which
// sent every subsequent short-delta schedule to the heap.
func TestCancelHeavySteadyStateAllocs(t *testing.T) {
	e := New()
	nop := func() {}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			h := e.Schedule(e.Now()+Time(100+i%211), nop)
			h.Cancel()
			if i%1024 == 1023 {
				e.RunUntil(e.Now() + 300*Nanosecond)
			}
		}
		e.Run()
	}
	// Warm the pool and the bucket arrays. Each 1024-op drain cycle
	// advances the clock more than a full wheel revolution, so successive
	// cycles land in different bucket positions; covering all 1024 of them
	// (growing each backing array once) takes on the order of a million
	// ops before the steady state is allocation-free.
	churn(1 << 20)
	const ops = 16384
	allocs := testing.AllocsPerRun(5, func() { churn(ops) })
	if per := allocs / ops; per >= 0.01 {
		t.Fatalf("cancel churn allocates %.4f/op at steady state, want ~0", per)
	}
}

// TestScheduleTimedSentOrder pins the keyed total order: equal-deadline
// events fire by (schedule/send instant, entity tag, schedule order), and
// plain schedules carry the current clock as their instant.
func TestScheduleTimedSentOrder(t *testing.T) {
	eng := New()
	var order []int
	rec := func(id int) func(Time) {
		return func(Time) { order = append(order, id) }
	}
	// All inserted at now=0 for deadline 100, in an order chosen to
	// disagree with every tie-break level.
	eng.ScheduleTimedSent(100, 5, 0, rec(5)) // latest instant: last
	eng.ScheduleTimedSent(100, 3, 2, rec(4)) // instant 3, tag 2
	eng.ScheduleTimedSent(100, 3, 1, rec(2)) // instant 3, tag 1, first scheduled
	eng.ScheduleTimedSent(100, 3, 1, rec(3)) // same instant+tag: schedule order
	eng.ScheduleTimed(100, rec(1))           // local: instant = now = 0, first
	eng.Run()
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("fire order %v, want [1 2 3 4 5]", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}

	// Channel tags: DRAM channel i schedules with tag i+1, so two channels
	// whose events tie on (deadline, schedule instant) fire in channel
	// order even when the higher channel scheduled first.
	order = order[:0]
	eng.ScheduleTagged(200, 3, func() { order = append(order, 3) })
	eng.ScheduleTagged(200, 2, func() { order = append(order, 2) })
	eng.ScheduleTimedTagged(200, 1, rec(1))
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("tagged fire order %v, want [1 2 3]", order)
	}
}

package sim

import "testing"

// TestPoolReusesEvents checks the free list actually recycles: a long
// run of schedule-execute cycles should settle on a handful of event
// allocations rather than one per event.
func TestPoolReusesEvents(t *testing.T) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			s.After(0.001, tick)
		}
	}
	s.After(0, tick)
	allocs := testing.AllocsPerRun(1, func() {
		s.Run(1e9)
	})
	if n != 10000 {
		t.Fatalf("ran %d ticks, want 10000", n)
	}
	// 10k events through the loop; without pooling this is ~10k allocs.
	// TestScheduleRunZeroAlloc pins the steady state at zero; this
	// keeps the coarse bound for a cold simulator.
	if allocs > 15000 {
		t.Fatalf("%v allocs for 10k recycled events", allocs)
	}
}

// TestStaleTimerStopCannotKillRecycledEvent is the safety property the
// generation counter exists for: a Timer whose event already fired must
// not cancel the unrelated event now occupying the same allocation.
func TestStaleTimerStopCannotKillRecycledEvent(t *testing.T) {
	s := New(1)
	var fired1, fired2 bool
	t1 := s.At(1, func() { fired1 = true })
	s.Run(2)
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	// Reschedule: with pooling this reuses t1's event allocation.
	t2 := s.At(3, func() { fired2 = true })
	if t1.id != t2.id {
		t.Fatal("free list did not recycle the event slot")
	}
	if t1.Stop() {
		t.Fatal("stale Stop reported success")
	}
	s.Run(4)
	if !fired2 {
		t.Fatal("stale Stop cancelled the recycled event")
	}
	if !t2.Stop() == false {
		t.Fatal("Stop after firing should report false")
	}
}

// TestStopStillCancelsLiveRecycledEvent checks a fresh Timer on a
// recycled event still cancels normally.
func TestStopStillCancelsLiveRecycledEvent(t *testing.T) {
	s := New(1)
	s.At(1, func() {})
	s.Run(2)
	fired := false
	t2 := s.At(3, func() { fired = true })
	if !t2.Stop() {
		t.Fatal("Stop on live recycled event failed")
	}
	s.Run(4)
	if fired {
		t.Fatal("stopped event fired anyway")
	}
}

// TestRecycleDuringCallbackRescheduling checks the hot path the pool is
// built for: a callback rescheduling itself reuses its own event and a
// timer captured across the reschedule stays inert.
func TestRecycleDuringCallbackRescheduling(t *testing.T) {
	s := New(1)
	var timers []Timer
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 100 {
			timers = append(timers, s.After(0.01, tick))
		}
	}
	s.After(0, tick)
	s.Run(1e9)
	if n != 100 {
		t.Fatalf("ran %d ticks, want 100", n)
	}
	for i, tm := range timers {
		if tm.Stop() {
			t.Fatalf("timer %d: Stop succeeded on a fired, recycled event", i)
		}
	}
}

// BenchmarkEventSchedule measures allocs/op of the schedule→execute
// cycle — the sim hot path that bounds campaign events/sec. The event
// is recycled through the free list and the Timer handle is a value, so
// the cycle allocates nothing.
func BenchmarkEventSchedule(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(0.001, tick)
		}
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run(1e18)
}

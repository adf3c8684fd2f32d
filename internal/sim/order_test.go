package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the reference model's view of one scheduled callback: the
// (time, insertion sequence) key it must run at and what has happened
// to it so far.
type refEvent struct {
	key     Key
	tm      Timer
	ran     bool
	stopped bool
}

func (e *refEvent) pending() bool { return !e.ran && !e.stopped }

func keyLess(a, b Key) bool { return a.At < b.At || (a.At == b.At && a.Seq < b.Seq) }

// TestRandomizedOrderMatchesReference drives the queue with random
// schedules full of exact time ties, Stop on live, fired and recycled
// timers, Reschedule in both directions, callbacks that schedule at the
// current instant, and virtual events, then checks every step against a
// reference kept here: each event runs once at its (time, sequence)
// key, in key order, unless it was stopped first; Stop reports exactly
// whether the event was pending; Passed agrees with the key order.
func TestRandomizedOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkRandomOrder(t, seed)
	}
}

func checkRandomOrder(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := New(seed)
	var (
		evs      []*refEvent
		virtuals []Key
		log      []Key
		seq      uint64 // mirrors the simulator's insertion counter
		budget   = 3000
	)
	// Times sit on a quarter-second grid so ties are the common case.
	tick := func() float64 { return float64(rng.Intn(6)) / 4 }
	var schedule func(at float64)
	var fire func(e *refEvent)
	schedule = func(at float64) {
		budget--
		e := &refEvent{key: Key{At: at, Seq: seq}}
		seq++
		evs = append(evs, e)
		e.tm = s.At(at, func() { fire(e) })
	}
	stopRandom := func() {
		e := evs[rng.Intn(len(evs))]
		want := e.pending()
		if got := e.tm.Stop(); got != want {
			t.Fatalf("seed %d: Stop of %+v = %v, want %v", seed, e.key, got, want)
		}
		if want {
			e.stopped = true
		}
	}
	rescheduleRandom := func() {
		old := evs[rng.Intn(len(evs))]
		if old.pending() {
			old.stopped = true
		}
		budget--
		e := &refEvent{key: Key{At: s.Now() + tick(), Seq: seq}}
		seq++
		evs = append(evs, e)
		e.tm = s.Reschedule(old.tm, e.key.At, func() { fire(e) })
	}
	fire = func(e *refEvent) {
		if !e.pending() {
			t.Fatalf("seed %d: event %+v ran again or after Stop", seed, e.key)
		}
		if s.Now() != e.key.At {
			t.Fatalf("seed %d: event %+v ran at %v", seed, e.key, s.Now())
		}
		e.ran = true
		log = append(log, e.key)
		for _, v := range virtuals {
			if got, want := s.Passed(v), keyLess(v, e.key); got != want {
				t.Fatalf("seed %d: Passed(%+v) in %+v = %v, want %v", seed, v, e.key, got, want)
			}
		}
		for n := rng.Intn(4); n > 0 && budget > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				schedule(s.Now()) // same instant, later sequence
			case 1, 2:
				schedule(s.Now() + tick())
			case 3:
				stopRandom()
			case 4:
				rescheduleRandom()
			case 5:
				virtuals = append(virtuals, s.Virtual(s.Now()+tick()))
				seq++
			}
		}
	}

	for i := 0; i < 200; i++ {
		schedule(tick())
	}
	for i := 0; i < 20; i++ {
		stopRandom()
	}
	// Run in segments so the horizon path, and Passed outside Run, are
	// exercised too.
	for _, until := range []float64{0.5, 0.75, 2, 1e9} {
		s.Run(until)
		v := s.Virtual(s.Now())
		seq++
		if s.Passed(v) {
			t.Fatalf("seed %d: a virtual event taken after Run(%v) has already passed", seed, until)
		}
		for _, e := range evs {
			if e.pending() && e.key.At <= until {
				t.Fatalf("seed %d: event %+v still pending after Run(%v)", seed, e.key, until)
			}
		}
	}
	want := make([]Key, 0, len(log))
	for _, e := range evs {
		if e.ran {
			want = append(want, e.key)
		}
	}
	sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
	if len(want) != len(log) {
		t.Fatalf("seed %d: %d events ran, reference expects %d", seed, len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("seed %d: step %d ran %+v, reference order has %+v", seed, i, log[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events pending after the final run", seed, s.Pending())
	}
}

// TestRescheduleLaterKeepsEagerOrder pins the lazy path of Reschedule:
// an event moved later keeps its old heap slot, yet runs at the key a
// Stop+At at the time of the move would have given it — after an event
// scheduled before the move at the same instant, before one scheduled
// after it.
func TestRescheduleLaterKeepsEagerOrder(t *testing.T) {
	s := New(1)
	var order []string
	tm := s.At(1, func() { order = append(order, "early") })
	s.At(2, func() { order = append(order, "before") })
	tm = s.Reschedule(tm, 2, func() { order = append(order, "moved") })
	s.At(2, func() { order = append(order, "after") })
	s.Run(10)
	want := []string{"before", "moved", "after"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if tm.Stop() {
		t.Fatal("Stop after the rescheduled event ran reported true")
	}
}

// TestScheduleRunZeroAlloc is the allocation guard for the event path:
// once the heap and the free list have grown, scheduling and running
// events — fire-and-forget callbacks and a timer whose deadline keeps
// sliding forward and is sometimes pulled in — allocates nothing.
func TestScheduleRunZeroAlloc(t *testing.T) {
	s := New(1)
	var tick, deadline func()
	var tm Timer
	n := 0
	deadline = func() {}
	tick = func() {
		n++
		s.After(0.001, tick)
		if n%8 == 0 {
			tm = s.Reschedule(tm, s.Now()+0.0005, deadline) // earlier
		} else {
			tm = s.Reschedule(tm, s.Now()+0.01, deadline) // later
		}
	}
	for i := 0; i < 64; i++ {
		s.At(float64(i)*1e-5, tick)
	}
	s.Run(1)
	allocs := testing.AllocsPerRun(20, func() { s.Run(s.Now() + 0.1) })
	if allocs != 0 {
		t.Fatalf("schedule-and-run cycle allocated %v times per run, want 0", allocs)
	}
}

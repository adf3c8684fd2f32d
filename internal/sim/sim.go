// Package sim provides a deterministic discrete-event simulation engine.
//
// All experiments in this repository run in virtual time on top of this
// engine: a 4-ary min-heap event queue ordered by (time, insertion
// sequence) so that simultaneous events execute in a stable, reproducible
// order, and a single seeded random source per simulation so every run is
// bit-for-bit repeatable. Scheduling and running an event allocates
// nothing in steady state: events live in a reused arena, heap entries
// hold their keys by value, and timer handles are plain values.
package sim

import (
	"fmt"
	"math/rand"

	"pccproteus/internal/trace"
)

// event is a scheduled callback. Events are ordered by time; ties break
// on the order in which they were scheduled.
//
// Events live by value in the simulator's arena and are reused: once
// executed (or popped dead) an event's slot returns to a free list for
// later At calls. gen counts reuses so an outstanding Timer can tell
// "my event" from "a stranger now living in the same slot".
type event struct {
	fn func()
	// at and seq are the key the event runs at. After a Reschedule to a
	// later time they are ahead of the key of the heap entry holding
	// the event, queued at queuedAt, and the loop requeues the event
	// when that entry comes up instead of running it.
	at       float64
	seq      uint64
	queuedAt float64
	gen      uint64
	dead     bool
}

// entry is one heap element. It carries its key by value and names its
// event by arena index, so sifting compares contiguous memory, never
// follows a pointer, and writes no pointer the garbage collector must
// track.
type entry struct {
	at  float64
	seq uint64
	id  uint32
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Timer is a handle to a scheduled event that can be cancelled. It is a
// plain value: copying it is free and the zero Timer is a valid handle
// to nothing.
type Timer struct {
	s   *Sim
	gen uint64
	id  uint32
}

// pending returns the timer's event while it is still pending, else nil.
func (t *Timer) pending() *event {
	if t == nil || t.s == nil {
		return nil
	}
	ev := &t.s.events[t.id]
	if ev.gen != t.gen || ev.dead {
		return nil
	}
	return ev
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer — including one whose event slot has since been
// reused for an unrelated callback; it reports whether the event was
// still pending.
func (t *Timer) Stop() bool {
	ev := t.pending()
	if ev == nil {
		return false
	}
	ev.dead = true
	ev.fn = nil
	return true
}

// Key is a position in the event order: time, then insertion sequence.
type Key struct {
	At  float64
	Seq uint64
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Sim struct {
	now     float64
	seq     uint64
	heap    []entry
	events  []event  // arena, indexed by entry.id
	free    []uint32 // reusable arena slots
	rng     *rand.Rand
	running bool
	stopped bool
	rec     *trace.Recorder
	// ran is the position the loop has reached: every event ordered
	// before it has run and none at or after it has.
	ran Key
}

// New returns a simulator with its clock at zero and randomness derived
// from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Rand returns the simulation's random source. All stochastic models
// (loss, jitter, workload arrivals) must draw from it so runs stay
// deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetTrace attaches a flight recorder. Components built on this
// simulation (links, senders, controllers) pick it up through Trace
// and FlowTracer; with no recorder attached they run at full speed
// with zero telemetry overhead. Attach before starting flows: senders
// bind their tracer at Start.
func (s *Sim) SetTrace(r *trace.Recorder) { s.rec = r }

// Trace returns the attached flight recorder, or nil when disabled.
func (s *Sim) Trace() *trace.Recorder { return s.rec }

// FlowTracer returns the per-flow emission handle for flow id
// (trace.NopTracer when no recorder is attached).
func (s *Sim) FlowTracer(flow int) trace.Tracer { return s.rec.Tracer(flow) }

// next checks that t is not in the past and takes the next insertion
// sequence number.
func (s *Sim) next(t float64) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", t, s.now))
	}
	s.seq++
	return s.seq - 1
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (s *Sim) At(t float64, fn func()) Timer {
	seq := s.next(t)
	var id uint32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = uint32(len(s.events))
		s.events = append(s.events, event{})
	}
	ev := &s.events[id]
	ev.fn, ev.at, ev.seq, ev.queuedAt, ev.dead = fn, t, seq, t, false
	s.push(entry{at: t, seq: seq, id: id})
	return Timer{s: s, gen: ev.gen, id: id}
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Reschedule makes tm run fn at time t instead and returns the handle to
// use from now on. The result is exactly tm.Stop() followed by At(t, fn):
// tm no longer controls anything, and the event takes the next insertion
// sequence, so its place in the event order is the same. Moving a
// pending event no earlier than its heap entry costs no heap operation:
// the event keeps its entry and is requeued at its new key when the
// entry comes up. That makes a deadline that keeps sliding forward (a
// retransmission timer) cheap.
func (s *Sim) Reschedule(tm Timer, t float64, fn func()) Timer {
	ev := tm.pending()
	if ev == nil || t < ev.queuedAt {
		tm.Stop()
		return s.At(t, fn)
	}
	seq := s.next(t)
	// Bumping gen retires tm, as Stop would: only the returned handle
	// controls the moved event.
	ev.gen++
	ev.fn, ev.at, ev.seq = fn, t, seq
	tm.gen = ev.gen
	return tm
}

// Virtual takes the next insertion sequence for a virtual event at time
// t: one that is never queued and has no callback. Its owner applies the
// event's effect lazily, once Passed reports the loop has run past its
// key, and so keeps the eager event's exact place in the order without
// paying for it.
func (s *Sim) Virtual(t float64) Key {
	return Key{At: t, Seq: s.next(t)}
}

// Passed reports whether an event at key k would already have run: it
// is ordered before the event now executing or, outside Run, before
// every event still queued.
func (s *Sim) Passed(k Key) bool {
	return k.At < s.ran.At || (k.At == s.ran.At && k.Seq < s.ran.Seq)
}

// Stop halts the event loop after the currently executing event returns.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of live events in the queue.
func (s *Sim) Pending() int {
	n := 0
	for i := range s.heap {
		if !s.events[s.heap[i].id].dead {
			n++
		}
	}
	return n
}

// Run executes events in order until the queue is empty, Stop is called,
// or the clock would pass until. The clock is then left at until; if the
// horizon is reached, remaining events stay queued.
func (s *Sim) Run(until float64) {
	if s.running {
		panic("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for len(s.heap) > 0 && !s.stopped {
		top := s.heap[0]
		ev := &s.events[top.id]
		if ev.dead {
			s.pop()
			s.recycle(top.id)
			continue
		}
		if top.at > until {
			s.now = until
			s.ran = Key{At: until, Seq: s.seq}
			return
		}
		if top.seq != ev.seq {
			// Rescheduled later: requeue at the new key; nothing runs.
			ev.queuedAt = ev.at
			s.siftDown(entry{at: ev.at, seq: ev.seq, id: top.id})
			continue
		}
		s.pop()
		s.now = top.at
		s.ran = Key{At: top.at, Seq: top.seq}
		fn := ev.fn
		// Recycle before running fn so a callback that immediately
		// reschedules (pacing, timer restart) reuses this slot. ev is
		// not touched again: At may grow the arena under it.
		s.recycle(top.id)
		fn()
	}
	if s.now < until {
		s.now = until
	}
	if !s.stopped {
		// Every event up to until has run; anything scheduled from
		// here on takes a later sequence number. After Stop, events
		// between the last one run and until stay unrun.
		s.ran = Key{At: s.now, Seq: s.seq}
	}
}

// recycle returns a popped event's slot to the free list. Bumping gen
// first invalidates any Timer still naming this slot, so a stale Stop
// cannot cancel whatever the slot is reused for next.
func (s *Sim) recycle(id uint32) {
	ev := &s.events[id]
	ev.gen++
	ev.fn = nil
	ev.dead = true
	s.free = append(s.free, id)
}

// The queue is a 4-ary min-heap: entry i's children are 4i+1 … 4i+4.
// Against a binary heap it halves the depth a pop sifts through, and
// the four children it compares share a cache line or two.

// push adds x to the heap.
func (s *Sim) push(x entry) {
	s.heap = append(s.heap, x)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the minimum entry.
func (s *Sim) pop() {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(last)
	}
}

// siftDown replaces the minimum entry with x and restores heap order.
func (s *Sim) siftDown(x entry) {
	h := s.heap
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

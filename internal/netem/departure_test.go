package netem

import (
	"math/rand"
	"testing"

	"pccproteus/internal/sim"
)

// A packet leaves the queue at the end of its serialization. The link
// applies departures lazily, but must order each one exactly as an
// event scheduled at txEnd when the packet was sent: an event at the
// same instant scheduled before the send runs before the departure and
// sees the packet still queued; one scheduled after it sees it gone.

// tieLink is a one-packet queue draining one MTU per second, so a
// packet sent at t=0 finishes serializing at exactly t=1.
func tieLink() (*sim.Sim, *Link) {
	s := sim.New(1)
	l := NewLink(s, 0, MTU, 0)
	l.SetRate(MTU)
	return s, l
}

type tieView struct {
	queue    int
	sent     int64
	accepted bool
}

// observeAtTxEnd sends one packet at t=0 and, at exactly its txEnd,
// reads the queue and offers a second packet. probeFirst schedules the
// probe before the first send.
func observeAtTxEnd(t *testing.T, probeFirst bool) tieView {
	t.Helper()
	s, l := tieLink()
	var v tieView
	probe := func() {
		if s.Now() != 1 {
			t.Fatalf("probe ran at %v, want exactly the txEnd 1", s.Now())
		}
		v.queue = l.QueueBytes()
		v.sent = l.Stats().SentBytes
		v.accepted = l.Send(&Packet{FlowID: 1, Seq: 1, Size: MTU}, func(*Packet, float64) {})
	}
	send := func() {
		if !l.Send(&Packet{FlowID: 1, Seq: 0, Size: MTU}, func(*Packet, float64) {}) {
			t.Fatal("first packet tail-dropped on an empty queue")
		}
	}
	if probeFirst {
		s.At(1, probe)
		s.At(0, send)
	} else {
		s.At(0, func() {
			send()
			s.At(1, probe)
		})
	}
	s.Run(10)
	return v
}

func TestDepartureTieProbeScheduledFirst(t *testing.T) {
	v := observeAtTxEnd(t, true)
	want := tieView{queue: MTU, sent: 0, accepted: false}
	if v != want {
		t.Fatalf("probe scheduled before the send saw %+v, want %+v (departure not yet run)", v, want)
	}
}

func TestDepartureTieProbeScheduledAfter(t *testing.T) {
	v := observeAtTxEnd(t, false)
	want := tieView{queue: 0, sent: MTU, accepted: true}
	if v != want {
		t.Fatalf("probe scheduled after the send saw %+v, want %+v (departure already run)", v, want)
	}
}

// Outside Run the same rule holds: a Run that stops at a packet's txEnd
// has run its departure, while a packet sent between runs, finishing at
// the current instant, is still queued until the next Run.
func TestDepartureBetweenRuns(t *testing.T) {
	s, l := tieLink()
	l.Send(&Packet{FlowID: 1, Size: MTU}, func(*Packet, float64) {})
	if q := l.QueueBytes(); q != MTU {
		t.Fatalf("queue %d before any Run, want %d", q, MTU)
	}
	s.Run(1)
	if q, sent := l.QueueBytes(), l.Stats().SentBytes; q != 0 || sent != MTU {
		t.Fatalf("after Run to txEnd: queue %d sent %d, want 0 and %d", q, sent, MTU)
	}
	l.SetRate(1e308) // the next packet serializes within the instant
	l.Send(&Packet{FlowID: 1, Seq: 1, Size: MTU}, func(*Packet, float64) {})
	if q := l.QueueBytes(); q != MTU {
		t.Fatalf("queue %d for a packet sent outside Run, want %d until the next Run", q, MTU)
	}
	s.Run(1)
	if q := l.QueueBytes(); q != 0 {
		t.Fatalf("queue %d after the next Run, want 0", q)
	}
}

// TestDepartureMatchesEagerReference drives a link with sends and reads
// on a time grid full of exact ties and checks every queue reading,
// SentBytes reading and tail-drop decision against a reference kept
// here that accounts each departure with a real event at txEnd.
func TestDepartureMatchesEagerReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		const queueCap = 3 * MTU
		l := NewLink(s, 0, queueCap, 0)
		l.SetRate(4 * MTU) // an MTU every 1/4 s, half an MTU every 1/8 s
		var (
			refQueue  int
			refSent   int64
			refBusy   float64
			remaining = 2000
		)
		send := func() {
			size := MTU
			if rng.Intn(2) == 0 {
				size = MTU / 2
			}
			// The reference decides and schedules its departure just
			// before the link's, so both sit at the same place relative
			// to every event of this test.
			refAccept := refQueue+size <= queueCap
			if refAccept {
				start := s.Now()
				if refBusy > start {
					start = refBusy
				}
				refBusy = start + float64(size)/l.Rate
				refQueue += size
				s.At(refBusy, func() {
					refQueue -= size
					refSent += int64(size)
				})
			}
			if got := l.Send(&Packet{FlowID: 1, Size: size}, func(*Packet, float64) {}); got != refAccept {
				t.Fatalf("seed %d t=%v: Send accepted=%v, reference %v", seed, s.Now(), got, refAccept)
			}
		}
		check := func() {
			if q := l.QueueBytes(); q != refQueue {
				t.Fatalf("seed %d t=%v: QueueBytes %d, reference %d", seed, s.Now(), q, refQueue)
			}
			if sent := l.Stats().SentBytes; sent != refSent {
				t.Fatalf("seed %d t=%v: SentBytes %d, reference %d", seed, s.Now(), sent, refSent)
			}
		}
		var step func()
		step = func() {
			for n := 1 + rng.Intn(3); n > 0 && remaining > 0; n-- {
				remaining--
				switch rng.Intn(4) {
				case 0, 1:
					send()
				case 2:
					check()
				case 3:
					s.At(s.Now()+float64(rng.Intn(3))/8, step)
				}
			}
		}
		for i := 0; i < 40; i++ {
			s.At(float64(rng.Intn(16))/8, step)
		}
		s.Run(1e9)
		check()
	}
}

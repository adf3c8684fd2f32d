// Package dash emulates DASH adaptive video streaming over the
// transport: a BOLA bitrate-adaptation agent (Spiteri et al., INFOCOM
// '16 — the algorithm the paper's Proteus-H evaluation uses), a playback
// buffer with startup, stall, and rebuffer accounting, and the §4.4
// cross-layer rules that drive the Proteus-H switching threshold
// (sufficient-rate, buffer-limit, and emergency).
//
// The receiver-side player mirrors the paper's methodology: the client
// consumes received bytes into an emulated playback buffer and uses a
// side channel (in-process calls) to tell the sender the requested
// bitrate, when to stop and resume, and the hybrid threshold.
package dash

import (
	"math"
	"math/rand"

	"pccproteus/internal/core"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

// Video describes one title: a bitrate ladder and chunked timing.
type Video struct {
	Name     string
	Ladder   []float64 // available bitrates in Mbps, ascending
	ChunkDur float64   // seconds of media per chunk
	Chunks   int
}

// MaxBitrate returns the top rung of the ladder.
func (v Video) MaxBitrate() float64 { return v.Ladder[len(v.Ladder)-1] }

// ChunkBytes returns the size of one chunk at ladder index q.
func (v Video) ChunkBytes(q int) int64 {
	return int64(v.Ladder[q] * 1e6 / 8 * v.ChunkDur)
}

// FourKLadder is a representative 4K ladder (top rung > 40 Mbps, §6.3).
var FourKLadder = []float64{2.5, 5, 8, 12, 18, 25, 32, 45}

// HDLadder is a representative 1080P ladder (top rung > 10 Mbps, §6.3).
var HDLadder = []float64{0.6, 1.2, 2.5, 4.5, 7, 11}

// Corpus generates the paper's evaluation corpus: n4k 4K titles and nHD
// 1080P titles, 3-second chunks, at least 3 minutes long, with the top
// bitrates perturbed slightly per title.
func Corpus(n4k, nHD int, rng *rand.Rand) []Video {
	var out []Video
	mk := func(name string, base []float64, i int) Video {
		ladder := make([]float64, len(base))
		scale := 0.95 + 0.1*rng.Float64()
		for j, b := range base {
			ladder[j] = b * scale
		}
		return Video{Name: name, Ladder: ladder, ChunkDur: 3, Chunks: 70 + rng.Intn(30)}
	}
	for i := 0; i < n4k; i++ {
		out = append(out, mk("4k", FourKLadder, i))
	}
	for i := 0; i < nHD; i++ {
		out = append(out, mk("1080p", HDLadder, i))
	}
	return out
}

// ABR chooses the ladder index for the next chunk given the playback
// buffer level in seconds.
type ABR interface {
	Choose(bufferSec float64, v Video) int
}

// BOLA is the buffer-based Lyapunov ABR of Spiteri et al., in its BOLA-
// BASIC form: choose the quality m maximizing (V·(v_m + γp) − Q)/S_m,
// with utilities v_m = ln(S_m/S_1) and control parameters derived from
// the buffer capacity.
type BOLA struct {
	BufferCap float64 // seconds
	GammaP    float64 // γ·p utility offset; 5 is the dash.js default
}

// NewBOLA returns a BOLA agent for the given playback buffer capacity.
func NewBOLA(bufferCap float64) *BOLA { return &BOLA{BufferCap: bufferCap, GammaP: 5} }

// Choose implements ABR.
func (b *BOLA) Choose(bufferSec float64, v Video) int {
	// Utilities relative to the lowest rung.
	n := len(v.Ladder)
	util := make([]float64, n)
	for m := 1; m < n; m++ {
		util[m] = math.Log(v.Ladder[m] / v.Ladder[0])
	}
	// V chosen so the top quality is selected exactly when the buffer is
	// nearly full (Spiteri et al. §III).
	qMax := b.BufferCap / v.ChunkDur
	vParam := (qMax - 1) / (util[n-1] + b.GammaP)
	q := bufferSec / v.ChunkDur
	best, bestScore := 0, negInf
	for m := 0; m < n; m++ {
		score := (vParam*(util[m]+b.GammaP) - q) / (v.Ladder[m] * v.ChunkDur)
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// ForceMax always requests the top rung (the Figure 13 stress test).
type ForceMax struct{}

// Choose implements ABR.
func (ForceMax) Choose(float64, Video) int { return -1 } // -1 = top rung

const negInf = -1e308

// Metrics accumulates playback quality-of-experience counters.
type Metrics struct {
	ChunksPlayed  int
	BitrateSum    float64 // Mbps·chunk
	PlayTime      float64
	StallTime     float64
	StartupTime   float64
	Rebuffers     int
	HighestChunks int // chunks fetched at the top rung
}

// AvgBitrate returns mean requested chunk bitrate in Mbps.
func (m Metrics) AvgBitrate() float64 {
	if m.ChunksPlayed == 0 {
		return 0
	}
	return m.BitrateSum / float64(m.ChunksPlayed)
}

// RebufferRatio returns stall time as a fraction of watch time.
func (m Metrics) RebufferRatio() float64 {
	total := m.PlayTime + m.StallTime
	if total == 0 {
		return 0
	}
	return m.StallTime / total
}

// Player streams one video over a sender. It owns the sender's pacing
// via chunk-sized Extend calls plus Pause/Resume, and optionally drives
// a Proteus-H utility's switching threshold via the §4.4 rules.
type Player struct {
	Sim    *sim.Sim
	Sender *transport.Sender
	Video  Video
	ABR    ABR

	// BufferCap is the playback buffer capacity in seconds.
	BufferCap float64
	// StartupChunks is how many chunks must arrive before playback
	// starts (dash.js begins quickly; 1 chunk is its effective minimum).
	StartupChunks int
	// Hybrid, when set, receives threshold updates per §4.4: the
	// sufficient-rate rule (G=1.5), the buffer-limit rule, and the
	// emergency rule on rebuffering.
	Hybrid *core.Hybrid
	// SufficientRateG is the sufficient-rate margin (1.5 in the paper).
	SufficientRateG float64

	buffer    float64 // seconds of media buffered
	lastT     float64
	started   bool
	playing   bool
	ended     bool // playback finished (all chunks fetched and played)
	nextChunk int
	pending   bool // a chunk request is in flight
	met       Metrics
	full      bool
	dryTimer  sim.Timer
}

// NewPlayer assembles a player. Call Start to begin streaming.
func NewPlayer(s *sim.Sim, snd *transport.Sender, v Video, abr ABR, bufferCap float64) *Player {
	p := &Player{
		Sim: s, Sender: snd, Video: v, ABR: abr,
		BufferCap: bufferCap, StartupChunks: 1, SufficientRateG: 1.5,
	}
	snd.OnComplete = p.onChunkDone
	return p
}

// Metrics returns a snapshot of the player's QoE counters, settling
// playback time up to the current instant.
func (p *Player) Metrics() Metrics {
	p.advance(p.Sim.Now())
	return p.met
}

// Start begins streaming at the current simulation time.
func (p *Player) Start() {
	p.lastT = p.Sim.Now()
	p.requestNext()
	p.Sender.Start()
}

// advance settles playback between events.
func (p *Player) advance(now float64) {
	dt := now - p.lastT
	if dt <= 0 {
		return
	}
	p.lastT = now
	if p.ended {
		return
	}
	if !p.started {
		p.met.StartupTime += dt
		return
	}
	if p.playing {
		if p.buffer >= dt {
			p.buffer -= dt
			p.met.PlayTime += dt
		} else {
			p.met.PlayTime += p.buffer
			p.playing = false
			if p.Done() {
				// End of stream: the buffer played out with nothing
				// left to fetch — that is not a stall.
				p.buffer = 0
				p.ended = true
				return
			}
			p.met.StallTime += dt - p.buffer
			p.buffer = 0
			p.met.Rebuffers++
			// Emergency rule: on rebuffering the threshold is infinite
			// (pure primary) until the video resumes.
			if p.Hybrid != nil {
				p.Hybrid.SetThreshold(math.Inf(1))
			}
		}
		p.armDryTimer()
	} else {
		p.met.StallTime += dt
	}
}

func (p *Player) requestNext() {
	if p.pending || p.nextChunk >= p.Video.Chunks {
		return
	}
	now := p.Sim.Now()
	p.advance(now)
	// The client only requests when there is space in the buffer.
	if p.BufferCap-p.buffer < p.Video.ChunkDur {
		p.waitForSpace()
		return
	}
	q := p.ABR.Choose(p.buffer, p.Video)
	if q < 0 || q >= len(p.Video.Ladder) {
		q = len(p.Video.Ladder) - 1
	}
	p.updateThreshold(q)
	p.pending = true
	p.met.BitrateSum += p.Video.Ladder[q]
	p.met.ChunksPlayed++
	if q == len(p.Video.Ladder)-1 {
		p.met.HighestChunks++
	}
	p.Sender.Extend(p.Video.ChunkBytes(q))
	p.Sender.Resume()
}

// updateThreshold applies §4.4 rules 1 and 2.
func (p *Player) updateThreshold(q int) {
	if p.Hybrid == nil {
		return
	}
	if !p.started || !p.playing {
		// Emergency rule holds until playback (re)starts.
		p.Hybrid.SetThreshold(math.Inf(1))
		return
	}
	thr := p.SufficientRateG * p.Video.MaxBitrate()
	free := (p.BufferCap - p.buffer) / p.Video.ChunkDur
	if free < 2 {
		if lim := 1 / (2 - free) * p.Video.Ladder[q]; lim < thr {
			thr = lim
		}
	}
	p.Hybrid.SetThreshold(thr)
}

// waitForSpace pauses the transport until the playback buffer has room
// for one more chunk.
func (p *Player) waitForSpace() {
	if p.full {
		return
	}
	p.full = true
	p.Sender.Pause()
	wait := p.buffer - (p.BufferCap - p.Video.ChunkDur)
	if wait < 0.01 {
		wait = 0.01
	}
	p.Sim.After(wait, func() {
		p.full = false
		p.requestNext()
	})
}

func (p *Player) onChunkDone(now float64) {
	p.advance(now)
	p.pending = false
	p.nextChunk++
	p.buffer += p.Video.ChunkDur
	if !p.started && p.nextChunk >= p.StartupChunks {
		p.started = true
		p.playing = true
	}
	if p.started && !p.playing && p.buffer >= p.Video.ChunkDur {
		p.playing = true // resume after rebuffer
	}
	p.armDryTimer()
	p.requestNext()
}

// armDryTimer schedules a wakeup at the moment the playback buffer would
// run dry, so stalls (and the §4.4 emergency rule) take effect exactly
// when they happen rather than at the next chunk arrival.
func (p *Player) armDryTimer() {
	p.dryTimer.Stop()
	if !p.playing || p.Done() {
		return
	}
	p.dryTimer = p.Sim.After(p.buffer+1e-9, func() {
		p.advance(p.Sim.Now())
	})
}

// Done reports whether the whole video has been fetched.
func (p *Player) Done() bool { return p.nextChunk >= p.Video.Chunks }

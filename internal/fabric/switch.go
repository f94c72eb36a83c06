package fabric

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ring is a fixed-capacity FIFO of destination host indices. Fabric queues
// are bounded by construction (PFC exists to keep them from overflowing),
// so the buffer never grows: a full ring at a push site is a drop, counted
// by the caller and flagged by the lossless audit invariant.
type ring struct {
	buf  []int32
	head int
	n    int
}

func newRing(capacity int) ring { return ring{buf: make([]int32, capacity)} }

func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) push(v int32) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring) pop() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *ring) peek() int32 { return r.buf[r.head] }

// SwitchConfig describes the ToR switch.
type SwitchConfig struct {
	// Ports is the number of host-facing ports (defaults to the fabric's
	// host count).
	Ports int
	// LinePeriod is the per-cacheline serialization time at port speed
	// (5120 ps = 100 Gbps). Both the ingress forwarding engine and each
	// egress port are paced at this rate.
	LinePeriod sim.Time
	// ForwardLatency is the ingress-to-egress pipeline delay (cut-through
	// lookup + crossbar transit).
	ForwardLatency sim.Time
	// IngressCap and EgressCap bound the per-port queues, in lines.
	IngressCap, EgressCap int
	// PauseHi/PauseLo are the ingress-occupancy PFC thresholds toward the
	// attached host's TX (XOFF at hi, XON at lo). IngressCap - PauseHi must
	// cover the lines a sender launches during PauseDelay plus the wire
	// propagation, or the lossless invariant trips.
	PauseHi, PauseLo int
	// PauseDelay is the pause-frame propagation + reaction time for pauses
	// the switch asserts toward a host TX.
	PauseDelay sim.Time
}

// DefaultSwitchConfig sizes a 100 Gbps ToR with 64 KB per-port buffering
// each way and headroom-checked PFC thresholds.
func DefaultSwitchConfig(ports int) SwitchConfig {
	return SwitchConfig{
		Ports:          ports,
		LinePeriod:     5120 * sim.Picosecond, // 100 Gbps
		ForwardLatency: 300 * sim.Nanosecond,
		IngressCap:     1024,
		EgressCap:      1024,
		PauseHi:        512,
		PauseLo:        128,
		PauseDelay:     600 * sim.Nanosecond,
	}
}

// port is one host-facing switch port: an ingress queue feeding the
// forwarding engine and an egress queue draining onto the host-bound wire.
type port struct {
	sw  *Switch
	idx int
	nic *NIC

	in  ring // ingress: lines received from the host, awaiting forwarding
	out ring // egress: lines awaiting serialization toward the host

	fwdNextAt sim.Time // ingress forwarding pacing (one line per LinePeriod)
	fwdArmed  bool     // a pacing kick event is pending
	hol       bool     // head-of-line blocked on a full egress
	reserved  int      // egress slots promised to lines in the forwarding pipeline
	egrBusy   bool     // egress wire currently serializing a line
	paused    bool     // attached host's NIC asserted PFC (post-propagation)
	down      bool     // link flap: the host-facing wire is down
	txPause   bool     // PFC XOFF asserted toward the attached host's TX

	// Probes.
	InOcc, OutOcc       *telemetry.Integrator
	HoLFrac             *telemetry.FracTimer
	Forwarded, Egressed *telemetry.Counter
}

// Switch is the single ToR connecting every host of a Fabric. Routing is a
// one-level lookup (destination host index == port index); Route is the
// seam where a fat-tree would map NodeID to an uplink instead.
type Switch struct {
	eng *sim.Engine
	cfg SwitchConfig

	ports       []*port
	holRot      int   // round-robin cursor for egress-slot arbitration
	fwdInFlight int64 // lines in the forwarding pipeline (popped, not yet at egress)
	dropTotal   int64 // never reset; conservation term

	// Dropped counts ingress overruns in the current measurement window.
	// PFC exists to keep this at zero.
	Dropped *telemetry.Counter

	fwdKickFn, fwdArriveFn, egrDoneFn, txPauseFn sim.EventFunc
}

// NewSwitch builds the switch and registers its invariants with aud.
func NewSwitch(eng *sim.Engine, cfg SwitchConfig, aud *audit.Auditor) *Switch {
	if cfg.Ports <= 0 {
		panic("fabric: switch needs at least one port")
	}
	if cfg.PauseLo >= cfg.PauseHi || cfg.PauseHi > cfg.IngressCap {
		panic("fabric: switch PFC thresholds must satisfy lo < hi <= ingress cap")
	}
	s := &Switch{eng: eng, cfg: cfg, Dropped: telemetry.NewCounter(eng)}
	s.fwdKickFn = s.fwdKickEvent
	s.fwdArriveFn = s.fwdArriveEvent
	s.egrDoneFn = s.egrDoneEvent
	s.txPauseFn = s.txPauseEvent
	s.ports = make([]*port, cfg.Ports)
	for i := range s.ports {
		p := &port{
			sw:        s,
			idx:       i,
			in:        newRing(cfg.IngressCap),
			out:       newRing(cfg.EgressCap),
			InOcc:     telemetry.NewIntegrator(eng),
			OutOcc:    telemetry.NewIntegrator(eng),
			HoLFrac:   telemetry.NewFracTimer(eng),
			Forwarded: telemetry.NewCounter(eng),
			Egressed:  telemetry.NewCounter(eng),
		}
		s.ports[i] = p
		if aud.Enabled() {
			dom := fmt.Sprintf("switch/port%d", i)
			aud.Gauge(dom, "ingress_occ", p.InOcc, func() int { return p.in.n })
			aud.Gauge(dom, "egress_occ", p.OutOcc, func() int { return p.out.n })
			aud.Bounds(dom, "ingress", 0, int64(cfg.IngressCap), func() int64 { return int64(p.in.n) })
			aud.Bounds(dom, "egress", 0, int64(cfg.EgressCap), func() int64 { return int64(p.out.n + p.reserved) })
			aud.Check(dom, "pfc", func() (bool, string) {
				// updateTxPause runs after every ingress mutation, so at event
				// boundaries the hysteresis state matches the occupancy.
				if p.txPause && p.in.n <= cfg.PauseLo {
					return false, fmt.Sprintf("XOFF asserted with ingress %d <= PauseLo %d", p.in.n, cfg.PauseLo)
				}
				if !p.txPause && p.in.n >= cfg.PauseHi {
					return false, fmt.Sprintf("XOFF clear with ingress %d >= PauseHi %d", p.in.n, cfg.PauseHi)
				}
				return true, ""
			})
		}
	}
	eng.Register(s)
	if aud.Enabled() {
		aud.Check("switch", "lossless", func() (bool, string) {
			if s.dropTotal != 0 {
				return false, fmt.Sprintf("%d lines dropped at switch ingress on a lossless (PFC) fabric", s.dropTotal)
			}
			return true, ""
		})
	}
	return s
}

// attach wires a NIC to its port; the fabric calls this at assembly.
func (s *Switch) attach(i int, n *NIC) { s.ports[i].nic = n }

// Route maps a destination host index to the egress port carrying it. On a
// single ToR this is the identity; a fat-tree extension would consult the
// destination NodeID here to pick an uplink.
func (s *Switch) Route(dstHost int) int { return dstHost }

// Arrive lands one line from host port src destined for host dst.
func (s *Switch) Arrive(src int, dst int32) {
	p := s.ports[src]
	if p.in.full() {
		// PFC headroom was insufficient; count the loss rather than hide it.
		s.dropTotal++
		s.Dropped.Inc()
		return
	}
	p.in.push(dst)
	p.InOcc.Add(1)
	s.updateTxPause(p)
	s.tryForward(p)
}

// tryForward moves lines from port p's ingress into the forwarding
// pipeline, paced at LinePeriod, stopping on a full egress (head-of-line
// blocking: the queue is a FIFO, so a blocked head parks the whole port).
func (s *Switch) tryForward(p *port) {
	for p.in.n > 0 {
		now := s.eng.Now()
		if p.fwdNextAt > now {
			if !p.fwdArmed {
				p.fwdArmed = true
				s.eng.AtFunc(p.fwdNextAt, s.fwdKickFn, p)
			}
			return
		}
		dst := s.ports[s.Route(int(p.in.peek()))]
		if dst.out.n+dst.reserved >= s.cfg.EgressCap {
			if !p.hol {
				p.hol = true
				p.HoLFrac.Set(true)
			}
			return
		}
		if p.hol {
			p.hol = false
			p.HoLFrac.Set(false)
		}
		p.in.pop()
		p.InOcc.Add(-1)
		dst.reserved++
		s.fwdInFlight++
		p.Forwarded.Inc()
		p.fwdNextAt = now + s.cfg.LinePeriod
		s.eng.AfterFunc(s.cfg.ForwardLatency, s.fwdArriveFn, dst)
		s.updateTxPause(p)
	}
}

func (s *Switch) fwdKickEvent(arg any) {
	p := arg.(*port)
	p.fwdArmed = false
	s.tryForward(p)
}

// fwdArriveEvent lands a line at its egress queue after the pipeline delay.
func (s *Switch) fwdArriveEvent(arg any) {
	dst := arg.(*port)
	s.fwdInFlight--
	dst.reserved--
	dst.out.push(int32(dst.idx))
	dst.OutOcc.Add(1)
	s.tryEgress(dst)
}

// tryEgress starts serializing the egress head onto the host-bound wire.
// The line occupies its queue slot until serialization completes, and a
// pause landing mid-line lets the line finish, as a real MAC would.
func (s *Switch) tryEgress(p *port) {
	if p.egrBusy || p.paused || p.down || p.out.n == 0 {
		return
	}
	p.egrBusy = true
	s.eng.AfterFunc(s.cfg.LinePeriod, s.egrDoneFn, p)
}

func (s *Switch) egrDoneEvent(arg any) {
	p := arg.(*port)
	p.egrBusy = false
	p.out.pop()
	p.OutOcc.Add(-1)
	p.Egressed.Inc()
	p.nic.wireDeliver()
	// An egress slot freed: grant it round-robin across the HoL-blocked
	// ingress ports, advancing the cursor past the winner so contenders
	// alternate — a fixed kick order would be strict priority and starve
	// high-indexed senders into permanent pause.
	nports := len(s.ports)
	for k := 0; k < nports; k++ {
		idx := (s.holRot + k) % nports
		q := s.ports[idx]
		if !q.hol {
			continue
		}
		before := q.in.n
		s.tryForward(q)
		if q.in.n < before {
			s.holRot = (idx + 1) % nports
			break
		}
	}
	s.tryEgress(p)
}

// updateTxPause runs the ingress-occupancy PFC hysteresis toward the
// attached host's TX, applying changes after PauseDelay. The apply event
// reads the state current at fire time, so a flap inside the delay settles
// to the latest value.
func (s *Switch) updateTxPause(p *port) {
	want := p.txPause
	if !want && p.in.n >= s.cfg.PauseHi {
		want = true
	} else if want && p.in.n <= s.cfg.PauseLo {
		want = false
	}
	if want != p.txPause {
		p.txPause = want
		s.eng.AfterFunc(s.cfg.PauseDelay, s.txPauseFn, p)
	}
}

func (s *Switch) txPauseEvent(arg any) {
	p := arg.(*port)
	p.nic.setTxPaused(p.txPause)
}

// setEgressPause is the host-side PFC landing at the switch: the NIC calls
// it (after its own propagation delay) to stop or resume the egress drain
// toward that host.
func (s *Switch) setEgressPause(portIdx int, on bool) {
	p := s.ports[portIdx]
	p.paused = on
	if !on {
		s.tryEgress(p)
	}
}

// setPortDown models the host-facing wire going down (link flap): egress
// stops; ingress keeps forwarding (the host has stopped transmitting).
func (s *Switch) setPortDown(portIdx int, down bool) {
	p := s.ports[portIdx]
	p.down = down
	if !down {
		s.tryEgress(p)
	}
}

// queued reports lines held in switch queues and the forwarding pipeline
// (a conservation term).
func (s *Switch) queued() int64 {
	total := s.fwdInFlight
	for _, p := range s.ports {
		total += int64(p.in.n + p.out.n)
	}
	return total
}

// ResetStats starts a fresh measurement window on every switch probe.
func (s *Switch) ResetStats() {
	s.Dropped.Reset()
	for _, p := range s.ports {
		p.InOcc.Reset()
		p.OutOcc.Reset()
		p.HoLFrac.Reset()
		p.Forwarded.Reset()
		p.Egressed.Reset()
	}
}

// PortInOccAvg reports the time-average ingress occupancy of port i.
func (s *Switch) PortInOccAvg(i int) float64 { return s.ports[i].InOcc.Avg() }

// PortOutOccAvg reports the time-average egress occupancy of port i.
func (s *Switch) PortOutOccAvg(i int) float64 { return s.ports[i].OutOcc.Avg() }

// PortHoLFrac reports the fraction of the window port i's ingress spent
// head-of-line blocked.
func (s *Switch) PortHoLFrac(i int) float64 { return s.ports[i].HoLFrac.Frac() }

// PortTxPaused reports whether the switch currently holds port i's host TX
// paused (pre-propagation hysteresis state).
func (s *Switch) PortTxPaused(i int) bool { return s.ports[i].txPause }

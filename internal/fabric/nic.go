package fabric

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NICConfig describes a fabric-attached NIC (one per host).
type NICConfig struct {
	// LinePeriod is the TX wire serialization time per cacheline (5220 ps
	// ~ 98 Gbps, the rate the paper's ConnectX-5 sustains).
	LinePeriod sim.Time
	// QueueCapLines bounds RX buffering (lossless via PFC).
	QueueCapLines int
	// PauseHi/PauseLo are the RX-occupancy PFC thresholds toward the switch
	// egress (XOFF at hi, XON at lo).
	PauseHi, PauseLo int
	// PauseDelay is the pause-frame propagation + reaction time for pauses
	// this NIC asserts toward the switch.
	PauseDelay sim.Time
	// PropDelay is the host<->ToR wire propagation time, paid by every line
	// in both directions and by nothing else.
	PropDelay sim.Time
	// BufBytes sizes the per-host DMA target ring the RX side writes into.
	BufBytes int64
}

// DefaultNICConfig sizes a ~98 Gbps NIC with 128 KB of RX buffering.
func DefaultNICConfig() NICConfig {
	return NICConfig{
		LinePeriod:    5220 * sim.Picosecond,
		QueueCapLines: 2048,
		PauseHi:       1024,
		PauseLo:       256,
		PauseDelay:    600 * sim.Nanosecond,
		PropDelay:     250 * sim.Nanosecond,
		BufBytes:      1 << 30,
	}
}

// Flow is one unidirectional cacheline stream from this NIC to a
// destination host, offered at a fixed fraction of line rate.
type Flow struct {
	nic     *NIC
	dst     int32    // destination host index
	period  sim.Time // offered inter-line period (LinePeriod / rate)
	pending bool     // a line is offered and waiting for the TX wire
}

// NIC is a host's fabric attachment: a TX side multiplexing flows onto one
// wire toward the ToR (backpressured by switch PFC) and an RX side
// buffering arrivals and DMA-writing them through the host's IIO — the P2M
// path whose credits, not the ToR, should bottleneck a well-provisioned
// incast.
type NIC struct {
	eng  *sim.Engine
	cfg  NICConfig
	io   *iio.IIO
	sw   *Switch
	port int
	id   NodeID

	// TX state.
	flows    []*Flow
	txFreeAt sim.Time
	txRot    int     // round-robin cursor over flows
	txPaused bool    // switch ingress PFC (post-propagation)
	linkDown bool    // fault: wire down, no emission
	lineMult float64 // fault: lane degrade stretches serialization (>= 1)
	txWaker  *sim.Waker
	wireTx   int64 // lines serialized, still on the host->switch wire

	// RX state.
	rxQ      ring
	rxXoff   bool  // pause asserted toward the switch
	storm    bool  // fault: pause storm pins XOFF
	waiting  bool  // registered for an IIO credit wake-up
	wireRx   int64 // lines serialized off the switch egress, still on the wire
	inHost   int64 // lines popped into the IIO, DMA not yet complete
	nextLine int64
	bufBase  mem.Addr

	// Never-reset totals (conservation terms).
	sentTotal, deliveredTotal, dropTotal int64

	wake        func() // IIO credit callback, created once
	deliverDone func() // IIO completion callback, created once
	flowTickFn  sim.EventFunc
	txArriveFn  sim.EventFunc
	rxArriveFn  sim.EventFunc
	rxPauseFn   sim.EventFunc

	// Probes.
	Sent        *telemetry.Counter
	Delivered   *telemetry.Counter
	Dropped     *telemetry.Counter
	TxPauseFrac *telemetry.FracTimer
	RxPauseFrac *telemetry.FracTimer
	RxQueueOcc  *telemetry.Integrator
}

// NewNIC builds the NIC for host `portIdx`, DMA-targeting bufBase, and
// registers its invariants with aud under "h<portIdx>/nic".
func NewNIC(eng *sim.Engine, cfg NICConfig, io *iio.IIO, sw *Switch, portIdx int, id NodeID, bufBase mem.Addr, aud *audit.Auditor) *NIC {
	if cfg.PauseLo >= cfg.PauseHi || cfg.PauseHi > cfg.QueueCapLines {
		panic("fabric: NIC PFC thresholds must satisfy lo < hi <= cap")
	}
	n := &NIC{
		eng:         eng,
		cfg:         cfg,
		io:          io,
		sw:          sw,
		port:        portIdx,
		id:          id,
		lineMult:    1,
		rxQ:         newRing(cfg.QueueCapLines),
		bufBase:     bufBase,
		Sent:        telemetry.NewCounter(eng),
		Delivered:   telemetry.NewCounter(eng),
		Dropped:     telemetry.NewCounter(eng),
		TxPauseFrac: telemetry.NewFracTimer(eng),
		RxPauseFrac: telemetry.NewFracTimer(eng),
		RxQueueOcc:  telemetry.NewIntegrator(eng),
	}
	eng.Register(n)
	n.txWaker = sim.NewWaker(eng, n.kickTx)
	n.wake = func() { n.waiting = false; n.pump() }
	n.deliverDone = func() {
		n.inHost--
		n.deliveredTotal++
		n.Delivered.Inc()
	}
	n.flowTickFn = n.flowTickEvent
	n.txArriveFn = n.txArriveEvent
	n.rxArriveFn = n.rxArriveEvent
	n.rxPauseFn = n.rxPauseEvent
	if aud.Enabled() {
		dom := fmt.Sprintf("h%d/nic", portIdx)
		aud.Gauge(dom, "rx_queue_occ", n.RxQueueOcc, func() int { return n.rxQ.n })
		aud.Bounds(dom, "rx_queue", 0, int64(cfg.QueueCapLines), func() int64 { return int64(n.rxQ.n) })
		aud.Check(dom, "pfc", func() (bool, string) {
			if n.rxXoff != n.RxPauseFrac.On() {
				return false, fmt.Sprintf("xoff=%v but RxPauseFrac.On()=%v", n.rxXoff, n.RxPauseFrac.On())
			}
			if n.storm {
				if !n.rxXoff {
					return false, "pause storm active but XOFF clear"
				}
				return true, ""
			}
			if n.rxXoff && n.rxQ.n <= cfg.PauseLo {
				return false, fmt.Sprintf("XOFF asserted with queue %d <= PauseLo %d", n.rxQ.n, cfg.PauseLo)
			}
			if !n.rxXoff && n.rxQ.n >= cfg.PauseHi {
				return false, fmt.Sprintf("XOFF clear with queue %d >= PauseHi %d", n.rxQ.n, cfg.PauseHi)
			}
			return true, ""
		})
		aud.Check(dom, "lossless", func() (bool, string) {
			if n.dropTotal != 0 {
				return false, fmt.Sprintf("%d lines dropped on a lossless (PFC) NIC", n.dropTotal)
			}
			return true, ""
		})
		aud.Check(dom, "tx_pause", func() (bool, string) {
			if n.txPaused != n.TxPauseFrac.On() {
				return false, fmt.Sprintf("txPaused=%v but TxPauseFrac.On()=%v", n.txPaused, n.TxPauseFrac.On())
			}
			return true, ""
		})
	}
	return n
}

// ID reports the NIC's fabric address.
func (n *NIC) ID() NodeID { return n.id }

// AddFlow offers a stream to host dst at `rate` (a fraction of line rate in
// (0, 1]), starting immediately. The flow is closed-loop: each emitted line
// schedules the next offer, so backpressure (PFC pause, wire contention)
// defers rather than accumulates offered load.
func (n *NIC) AddFlow(dst int, rate float64) *Flow {
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("fabric: flow rate %v outside (0, 1]", rate))
	}
	f := &Flow{nic: n, dst: int32(dst), period: sim.Time(float64(n.cfg.LinePeriod) / rate)}
	n.flows = append(n.flows, f)
	n.eng.AtFunc(n.eng.Now(), n.flowTickFn, f)
	return f
}

func (n *NIC) flowTickEvent(arg any) {
	arg.(*Flow).pending = true
	n.kickTx()
}

func (n *NIC) anyPending() bool {
	for _, f := range n.flows {
		if f.pending {
			return true
		}
	}
	return false
}

// kickTx serializes at most one pending line onto the TX wire, round-robin
// across flows, and re-arms the waker while offers remain.
func (n *NIC) kickTx() {
	if n.txPaused || n.linkDown {
		return
	}
	now := n.eng.Now()
	if n.txFreeAt > now {
		if n.anyPending() {
			n.txWaker.WakeAt(n.txFreeAt)
		}
		return
	}
	nf := len(n.flows)
	for k := 0; k < nf; k++ {
		f := n.flows[(n.txRot+k)%nf]
		if !f.pending {
			continue
		}
		n.txRot = (n.txRot + k + 1) % nf
		f.pending = false
		period := n.txLinePeriod()
		n.txFreeAt = now + period
		n.sentTotal++
		n.wireTx++
		n.Sent.Inc()
		n.eng.AfterFunc(period+n.cfg.PropDelay, n.txArriveFn, f)
		n.eng.AfterFunc(f.period, n.flowTickFn, f)
		break
	}
	if n.anyPending() {
		n.txWaker.WakeAt(n.txFreeAt)
	}
}

// txLinePeriod is the serialization time under the current lane state.
func (n *NIC) txLinePeriod() sim.Time {
	if n.lineMult == 1 {
		return n.cfg.LinePeriod
	}
	return sim.Time(float64(n.cfg.LinePeriod) * n.lineMult)
}

func (n *NIC) txArriveEvent(arg any) {
	f := arg.(*Flow)
	n.wireTx--
	n.sw.Arrive(n.port, f.dst)
}

// setTxPaused lands switch-asserted PFC at the TX (post-propagation).
func (n *NIC) setTxPaused(v bool) {
	if v == n.txPaused {
		return
	}
	n.txPaused = v
	n.TxPauseFrac.Set(v)
	if !v {
		n.kickTx()
	}
}

// wireDeliver is called by the switch when a line finishes serializing off
// the egress port; the line spends PropDelay on the wire before landing.
func (n *NIC) wireDeliver() {
	n.wireRx++
	n.eng.AfterFunc(n.cfg.PropDelay, n.rxArriveFn, nil)
}

// rxArriveEvent lands one line in the RX buffer after the wire propagation.
func (n *NIC) rxArriveEvent(any) {
	n.wireRx--
	if n.rxQ.full() {
		// PFC should have stopped the switch egress before headroom ran out.
		n.dropTotal++
		n.Dropped.Inc()
	} else {
		n.rxQ.push(0)
		n.RxQueueOcc.Add(1)
	}
	n.updateRxPFC()
	n.pump()
}

// pump DMA-writes buffered lines through the host's IIO. The done callback
// is the one bound at construction, so the loop allocates nothing.
func (n *NIC) pump() {
	for n.rxQ.n > 0 {
		addr := n.bufBase + mem.Addr((n.nextLine*mem.LineSize)%n.cfg.BufBytes)
		if !n.io.TryWrite(addr, 0, n.deliverDone) {
			if !n.waiting {
				n.waiting = true
				n.io.NotifyWrite(n.wake)
			}
			return
		}
		n.nextLine++
		n.rxQ.pop()
		n.inHost++
		n.RxQueueOcc.Add(-1)
		n.updateRxPFC()
	}
}

// updateRxPFC runs the RX-occupancy hysteresis toward the switch egress,
// applying changes after PauseDelay. A pause-storm fault pins XOFF; when it
// clears, the occupancy thresholds decide.
func (n *NIC) updateRxPFC() {
	want := n.rxXoff
	if !want && n.rxQ.n >= n.cfg.PauseHi {
		want = true
	} else if want && n.rxQ.n <= n.cfg.PauseLo {
		want = false
	}
	if n.storm {
		want = true
	}
	if want != n.rxXoff {
		n.rxXoff = want
		n.RxPauseFrac.Set(want)
		n.eng.AfterFunc(n.cfg.PauseDelay, n.rxPauseFn, nil)
	}
}

func (n *NIC) rxPauseEvent(any) {
	n.sw.setEgressPause(n.port, n.rxXoff)
}

// FaultSetLinkDown implements fault.NIC: the host-facing wire drops in both
// directions — the TX stops emitting and the switch stops egressing toward
// this host. Lines already on the wire land (the physical layer stops, it
// does not overrun); buffered lines keep draining into the host.
func (n *NIC) FaultSetLinkDown(down bool) {
	n.linkDown = down
	n.sw.setPortDown(n.port, down)
	if !down {
		n.kickTx()
	}
}

// FaultSetPauseStorm implements fault.NIC: sustained pause frames pin the
// RX XOFF toward the switch, exactly as a congested downstream would.
func (n *NIC) FaultSetPauseStorm(on bool) {
	n.storm = on
	n.updateRxPFC()
}

// FaultSetLineMult implements fault.Link: lane degradation stretches TX
// serialization by mult (>= 1); mult <= 1 restores the configured rate.
func (n *NIC) FaultSetLineMult(mult float64) {
	if mult < 1 {
		mult = 1
	}
	n.lineMult = mult
}

// SentTotal reports lines emitted since construction (never reset).
func (n *NIC) SentTotal() int64 { return n.sentTotal }

// DeliveredTotal reports lines DMA-completed since construction (never reset).
func (n *NIC) DeliveredTotal() int64 { return n.deliveredTotal }

// queued reports lines this NIC currently holds on wires, in its RX buffer,
// or in flight inside the host (a conservation term).
func (n *NIC) queued() int64 { return n.wireTx + n.wireRx + int64(n.rxQ.n) + n.inHost }

// TxBytesPerSec reports emitted wire bandwidth over the window.
func (n *NIC) TxBytesPerSec() float64 { return n.Sent.BytesPerSecond() }

// RxBytesPerSec reports delivered DMA bandwidth over the window.
func (n *NIC) RxBytesPerSec() float64 { return n.Delivered.BytesPerSecond() }

// ResetStats starts a new measurement window.
func (n *NIC) ResetStats() {
	n.Sent.Reset()
	n.Delivered.Reset()
	n.Dropped.Reset()
	n.TxPauseFrac.Reset()
	n.RxPauseFrac.Reset()
	n.RxQueueOcc.Reset()
}

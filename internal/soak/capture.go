package soak

import (
	"sync"

	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// WireCapture records sealed datagrams as they enter the substrate
// during a soak run. scripts/fuzzseed uses it to harvest realistic fuzz
// corpus entries (whole encoded datagrams, and the PSP packets inside
// ILP frames) from live scenario traffic.
type WireCapture struct {
	// Max bounds the number of recorded datagrams (default 256).
	Max int

	mu  sync.Mutex
	dgs []wire.Datagram
}

func (c *WireCapture) record(dg wire.Datagram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := c.Max
	if max == 0 {
		max = 256
	}
	if len(c.dgs) >= max {
		return
	}
	cp := dg
	cp.Payload = append([]byte(nil), dg.Payload...)
	c.dgs = append(c.dgs, cp)
}

// Datagrams returns the captured datagrams (payloads are copies).
func (c *WireCapture) Datagrams() []wire.Datagram {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Datagram(nil), c.dgs...)
}

// Tap wraps a transport so every egress datagram is recorded into c.
// Pass it to lab.WithTransportWrap. BatchSender, Registrable and
// RxTracker are forwarded so the wrapped transport keeps its vectored
// path, its instruments and the runner's view of pending work.
func (c *WireCapture) Tap(tr netsim.Transport) netsim.Transport {
	return &tapTransport{Transport: tr, cap: c}
}

type tapTransport struct {
	netsim.Transport
	cap *WireCapture
}

func (t *tapTransport) Send(dg wire.Datagram) error {
	if !dg.Src.IsValid() {
		dg.Src = t.LocalAddr()
	}
	t.cap.record(dg)
	return t.Transport.Send(dg)
}

func (t *tapTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	for _, dg := range dgs {
		if !dg.Src.IsValid() {
			dg.Src = t.LocalAddr()
		}
		t.cap.record(dg)
	}
	return netsim.SendBatch(t.Transport, dgs)
}

func (t *tapTransport) RegisterTelemetry(r *telemetry.Registry) {
	if rt, ok := t.Transport.(telemetry.Registrable); ok {
		rt.RegisterTelemetry(r)
	}
}

func (t *tapTransport) RxDone(n int) {
	if rt, ok := t.Transport.(netsim.RxTracker); ok {
		rt.RxDone(n)
	}
}

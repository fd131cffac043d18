package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"net/netip"
	"sync/atomic"
	"time"

	"interedge/internal/wire"
)

// Every generated payload is self-describing so the receiver can verify
// it without trusting anything the program under test did to it:
//
//	[0:4)   CRC-32C over [4:len)
//	[4:8)   flow ID (generator<<flowGenShift | flow index)
//	[8:16)  sequence number, per generator
//	[16:32) intended destination host address
//	[32:40) scheduled send time, ns since the run epoch
//	[40:)   seeded fill
const (
	payloadHdr   = 40
	flowGenShift = 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// epoch is the run's time origin; payload timestamps are monotonic
// nanoseconds since it, so sender and receiver share one clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// encodePayload writes the header fields into buf (whose fill is already
// in place) and seals it with the checksum.
func encodePayload(buf []byte, flow uint32, seq uint64, dst wire.Addr, sched int64) {
	binary.LittleEndian.PutUint32(buf[4:], flow)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	d := dst.As16()
	copy(buf[16:32], d[:])
	binary.LittleEndian.PutUint64(buf[32:], uint64(sched))
	binary.LittleEndian.PutUint32(buf[0:], crc32.Checksum(buf[4:], castagnoli))
}

// decodePayload checks the checksum and returns the header fields.
func decodePayload(p []byte) (flow uint32, seq uint64, dst wire.Addr, sched int64, ok bool) {
	if len(p) < payloadHdr || binary.LittleEndian.Uint32(p) != crc32.Checksum(p[4:], castagnoli) {
		return 0, 0, wire.Addr{}, 0, false
	}
	var d [16]byte
	copy(d[:], p[16:32])
	return binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint64(p[8:]),
		netip.AddrFrom16(d).Unmap(), int64(binary.LittleEndian.Uint64(p[32:])), true
}

// Outcome marks stored in a tracker slot once a packet's fate is known.
const (
	markDelivered = 1 << 63
	markFailed    = 1 << 62
	markMask      = markDelivered | markFailed
)

// ringBits sizes the tracker ring: far more than the packets a generator
// keeps in flight (its window).
const ringBits = 16

// tracker follows one generator's packets from send to fate. Slot
// seq&mask holds seq+1 while the packet is in flight; whoever first
// swaps in an outcome mark — the receiver on delivery, the generator on
// send error or timeout — owns the packet's accounting, so every packet
// is counted exactly once.
type tracker struct {
	slots    []atomic.Uint64
	sched    []int64 // scheduled ns per slot; generator-owned
	next     uint64  // next sequence number; generator-owned
	lo       uint64  // every seq below lo has an outcome; generator-owned
	inflight atomic.Int64
	notify   chan struct{} // capacity 1: a pending wake-up token
}

func newTracker() *tracker {
	return &tracker{
		slots:  make([]atomic.Uint64, 1<<ringBits),
		sched:  make([]int64, 1<<ringBits),
		notify: make(chan struct{}, 1),
	}
}

func (t *tracker) slot(seq uint64) *atomic.Uint64 { return &t.slots[seq&(1<<ringBits-1)] }

// claim settles seq with the given mark; false means someone else did.
func (t *tracker) claim(seq uint64, mark uint64) bool {
	if !t.slot(seq).CompareAndSwap(seq+1, (seq+1)|mark) {
		return false
	}
	t.inflight.Add(-1)
	select {
	case t.notify <- struct{}{}:
	default:
	}
	return true
}

// delivered reports whether seq already arrived once (a duplicate).
func (t *tracker) delivered(seq uint64) bool {
	return t.slot(seq).Load() == (seq+1)|markDelivered
}

// counters are the checker's tallies, shared by every receiver.
type counters struct {
	attempted    atomic.Uint64
	delivered    atomic.Uint64
	sendErrors   atomic.Uint64
	timeouts     atomic.Uint64
	misdelivered atomic.Uint64
	duplicates   atomic.Uint64
	corrupt      atomic.Uint64
	late         atomic.Uint64
	stalls       atomic.Uint64
}

// failed counts failed operations. A corrupted packet never settles its
// slot, so it is counted once, as a timeout; corrupt is its label.
func (c *counters) failed() uint64 {
	return c.sendErrors.Load() + c.timeouts.Load() + c.misdelivered.Load() + c.duplicates.Load()
}

func (c *counters) breakdown() map[string]uint64 {
	return map[string]uint64{
		"send_error":   c.sendErrors.Load(),
		"timeout":      c.timeouts.Load(),
		"misdelivered": c.misdelivered.Load(),
		"duplicate":    c.duplicates.Load(),
		"corrupt":      c.corrupt.Load(),
		"late":         c.late.Load(),
		"stall":        c.stalls.Load(),
	}
}

// hist is a log-linear latency histogram: values below 256 ns are exact,
// above that each power of two has 128 sub-buckets (0.8% resolution).
// Observations are atomic, so any number of receivers may record.
type hist struct {
	counts [64 << 7]atomic.Uint64
	n      atomic.Uint64
	fails  atomic.Uint64 // failed packets: beyond every percentile
}

func bucketOf(v uint64) int {
	if v < 256 {
		return int(v)
	}
	shift := bits.Len64(v) - 8
	return shift<<7 + int(v>>shift)
}

func bucketMid(i int) float64 {
	if i < 256 {
		return float64(i)
	}
	shift := i>>7 - 1
	lo := uint64(i-shift<<7) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.n.Add(1)
}

// failTimeout is reported for a percentile that falls among failed
// packets: the deadline after which the checker gave up on them.
const failTimeout = time.Second

// quantileUs returns the q-quantile in microseconds, ranking failures
// above every delivered packet.
func (h *hist) quantileUs(q float64) float64 {
	n, f := h.n.Load(), h.fails.Load()
	rank := uint64(math.Ceil(q * float64(n+f)))
	if rank == 0 {
		rank = 1
	}
	if rank > n {
		return float64(failTimeout) / 1e3
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return bucketMid(i) / 1e3
		}
	}
	return float64(failTimeout) / 1e3
}

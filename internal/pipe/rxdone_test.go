package pipe

import (
	"fmt"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// TestReceiverReportsHandledDatagrams pins the Manager's half of the
// fabric's pending count (netsim.RxTracker): a datagram stays pending
// while its handler runs and is released once handling returns, on the
// inline and the sharded receive paths alike. The soak runner advances
// its clock only when nothing is pending.
func TestReceiverReportsHandledDatagrams(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := netsim.NewNetwork()
			trA, err := net.Attach(wire.MustAddr("fd00::a"))
			if err != nil {
				t.Fatal(err)
			}
			trB, err := net.Attach(wire.MustAddr("fd00::b"))
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			b := newManager(t, trB, func(c *Config) {
				c.RxWorkers = workers
				c.Handler = func(Sender, wire.Addr, wire.ILPHeader, []byte, []byte) {
					entered <- struct{}{}
					<-release
				}
			})
			a := newManager(t, trA)
			if err := a.Connect(b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			waitPending := func(want int64) {
				t.Helper()
				deadline := time.Now().Add(3 * time.Second)
				for net.Pending() != want {
					if time.Now().After(deadline) {
						t.Fatalf("pending = %d, want %d", net.Pending(), want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			waitPending(0) // the handshake frames were handled
			if err := a.Send(b.LocalAddr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("x")); err != nil {
				t.Fatal(err)
			}
			<-entered
			if got := net.Pending(); got != 1 {
				t.Fatalf("pending = %d while the handler runs, want 1", got)
			}
			close(release)
			waitPending(0)
		})
	}
}

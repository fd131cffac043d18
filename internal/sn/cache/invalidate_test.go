package cache

import (
	"testing"

	"interedge/internal/wire"
)

func TestInvalidateDestRemovesOnlyMatchingRoutes(t *testing.T) {
	c := NewSharded(64, 4)
	hop1 := wire.MustAddr("fd00::a")
	hop2 := wire.MustAddr("fd00::b")

	k1 := wire.FlowKey{Src: wire.MustAddr("fd00::1"), Service: wire.SvcEcho, Conn: 1}
	k2 := wire.FlowKey{Src: wire.MustAddr("fd00::2"), Service: wire.SvcEcho, Conn: 2}
	k3 := wire.FlowKey{Src: wire.MustAddr("fd00::3"), Service: wire.SvcEcho, Conn: 3}
	k4 := wire.FlowKey{Src: wire.MustAddr("fd00::4"), Service: wire.SvcEcho, Conn: 4}

	c.Add(k1, Action{Forward: []wire.Addr{hop1}})
	c.Add(k2, Action{Forward: []wire.Addr{hop2}})
	c.Add(k3, Action{Forward: []wire.Addr{hop2, hop1}}) // multi-dest, matches too
	c.Add(k4, Action{Drop: true})                       // no forward at all

	c.InvalidateDest(hop1)

	if _, ok := c.Lookup(k1); ok {
		t.Fatal("route through dead hop survived")
	}
	if _, ok := c.Lookup(k3); ok {
		t.Fatal("multi-dest route through dead hop survived")
	}
	if _, ok := c.Lookup(k2); !ok {
		t.Fatal("route through live hop was invalidated")
	}
	if _, ok := c.Lookup(k4); !ok {
		t.Fatal("non-forwarding entry was invalidated")
	}
}

func TestInvalidateDestDropsRulesMarkedFor(t *testing.T) {
	c := NewSharded(64, 4)
	nextSN := wire.MustAddr("fd00::a")
	moved := wire.MustAddr("fd00::100")
	stays := wire.MustAddr("fd00::101")

	k1 := wire.FlowKey{Src: wire.MustAddr("fd00::1"), Service: wire.SvcIPFwd, Conn: 1}
	k2 := wire.FlowKey{Src: wire.MustAddr("fd00::2"), Service: wire.SvcIPFwd, Conn: 1}
	c.Add(k1, Action{Forward: []wire.Addr{nextSN}, For: moved})
	c.Add(k2, Action{Forward: []wire.Addr{nextSN}, For: stays})

	// The moved host's record changed: the rule serving it through the
	// SN it used to live on goes; the other flow through that SN stays.
	c.InvalidateDest(moved)
	if _, ok := c.Lookup(k1); ok {
		t.Fatal("rule marked For the moved host survived")
	}
	if _, ok := c.Lookup(k2); !ok {
		t.Fatal("rule for another destination through the same SN was invalidated")
	}
}

func TestInvalidateDestAcrossShards(t *testing.T) {
	c := New(4096)
	hop := wire.MustAddr("fd00::a")
	alloc := 0
	next := func() wire.Addr {
		alloc++
		return wire.MustAddr("fd00::" + string(rune('1'+alloc%8)) + "00")
	}
	keys := make([]wire.FlowKey, 0, 256)
	for i := 0; i < 256; i++ {
		k := wire.FlowKey{Src: next(), Service: wire.SvcEcho, Conn: wire.ConnectionID(i)}
		keys = append(keys, k)
		c.Add(k, Action{Forward: []wire.Addr{hop}})
	}
	c.InvalidateDest(hop)
	for _, k := range keys {
		if _, ok := c.Lookup(k); ok {
			t.Fatalf("entry %v survived InvalidateDest", k)
		}
	}
}

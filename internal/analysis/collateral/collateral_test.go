package collateral

import (
	"testing"

	"repro/internal/analysis/hosts"
	"repro/internal/netgen"
)

const serverIP = 0x0b000001

func serverProfile() hosts.Profile {
	return hosts.Profile{
		IP:       serverIP,
		Kind:     hosts.KindServer,
		TopPorts: []uint32{portKey(netgen.ProtoTCP, 443)},
	}
}

func portKey(proto uint8, port uint16) uint32 { return uint32(proto)<<16 | uint32(port) }

// materialize tallies during-event packets into a pending store and
// materializes them for profiles, every event's prefix covering them all.
func materialize(profiles []hosts.Profile, add func(p *Pending)) *Result {
	p := NewPending()
	add(p)
	a := New(profiles)
	p.Materialize(a, everywhere(4))
	return a.Result()
}

func TestCollateralCountsTopPortTrafficOnly(t *testing.T) {
	res := materialize([]hosts.Profile{serverProfile(), {IP: 99, Kind: hosts.KindClient}}, func(p *Pending) {
		// Top-port traffic during event 1: 5 dropped, 3 forwarded.
		p.Add(1, serverIP, 443, netgen.ProtoTCP, true, 5)
		p.Add(1, serverIP, 443, netgen.ProtoTCP, false, 3)
		// Attack traffic on other ports must not count.
		p.Add(1, serverIP, 40000, netgen.ProtoUDP, true, 100)
		// Same port number under UDP is a different service.
		p.Add(1, serverIP, 443, netgen.ProtoUDP, true, 100)
		// Traffic to a non-server host never counts.
		p.Add(1, 99, 443, netgen.ProtoTCP, true, 100)
	})
	if res.Events != 1 {
		t.Fatalf("events = %d", res.Events)
	}
	if len(res.AllPkts) != 1 || res.AllPkts[0] != 8 {
		t.Fatalf("all = %v", res.AllPkts)
	}
	if len(res.DroppedPkts) != 1 || res.DroppedPkts[0] != 5 {
		t.Fatalf("dropped = %v", res.DroppedPkts)
	}
	if res.MaxAll != 8 {
		t.Fatalf("max = %d", res.MaxAll)
	}
}

func TestResultSorted(t *testing.T) {
	res := materialize([]hosts.Profile{serverProfile()}, func(p *Pending) {
		p.Add(1, serverIP, 443, netgen.ProtoTCP, false, 9)
		p.Add(2, serverIP, 443, netgen.ProtoTCP, false, 3)
		p.Add(3, serverIP, 443, netgen.ProtoTCP, false, 6)
	})
	if res.Events != 3 {
		t.Fatalf("events = %d", res.Events)
	}
	if res.AllPkts[0] != 3 || res.AllPkts[1] != 6 || res.AllPkts[2] != 9 {
		t.Fatalf("not sorted: %v", res.AllPkts)
	}
	if len(res.DroppedPkts) != 0 {
		t.Fatalf("dropped = %v", res.DroppedPkts)
	}
}

func TestServersWithoutTopPortsIgnored(t *testing.T) {
	res := materialize([]hosts.Profile{{IP: serverIP, Kind: hosts.KindServer}}, func(p *Pending) {
		p.Add(1, serverIP, 443, netgen.ProtoTCP, true, 5)
	})
	if res.Events != 0 {
		t.Fatalf("top-port-less server counted: %+v", res)
	}
}

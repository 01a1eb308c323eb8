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

func TestCollateralCountsTopPortTrafficOnly(t *testing.T) {
	a := New([]hosts.Profile{serverProfile(), {IP: 99, Kind: hosts.KindClient}})
	// Top-port traffic during event 1: 5 dropped, 3 forwarded.
	a.AddCounts(1, serverIP, portKey(netgen.ProtoTCP, 443), 5, 5)
	a.AddCounts(1, serverIP, portKey(netgen.ProtoTCP, 443), 3, 0)
	// Attack traffic on other ports must not count.
	a.AddCounts(1, serverIP, portKey(netgen.ProtoUDP, 40000), 100, 100)
	// Same port number under UDP is a different service.
	a.AddCounts(1, serverIP, portKey(netgen.ProtoUDP, 443), 100, 100)
	// Traffic to a non-server host never counts.
	a.AddCounts(1, 99, portKey(netgen.ProtoTCP, 443), 100, 100)

	res := a.Result()
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
	a := New([]hosts.Profile{serverProfile()})
	a.AddCounts(1, serverIP, portKey(netgen.ProtoTCP, 443), 9, 0)
	a.AddCounts(2, serverIP, portKey(netgen.ProtoTCP, 443), 3, 0)
	a.AddCounts(3, serverIP, portKey(netgen.ProtoTCP, 443), 6, 0)
	res := a.Result()
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
	a := New([]hosts.Profile{{IP: serverIP, Kind: hosts.KindServer}})
	a.AddCounts(1, serverIP, portKey(netgen.ProtoTCP, 443), 5, 5)
	if res := a.Result(); res.Events != 0 {
		t.Fatalf("top-port-less server counted: %+v", res)
	}
}

package noc_test

import (
	"fmt"

	"repro/internal/noc"
)

// Example builds a small reply network with ARI at one MC node, injects a
// read-reply packet and drains it.
func Example() {
	cfg := noc.Config{
		Mesh:      noc.Mesh{Width: 4, Height: 4},
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   noc.RouteMinAdaptive,
		MCNodes:   []int{5},
		MC:        noc.NodeConfig{NI: noc.NISplit, InjSpeedup: 4}, // the MC
	}

	net, err := noc.NewNetwork(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	net.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		fmt.Printf("delivered %s to node %d\n", pkt.Type, node)
	})
	pkt := &noc.Packet{
		Type: noc.ReadReply,
		Dst:  10,
		Size: noc.PacketSize(noc.ReadReply, cfg.LinkBits, cfg.DataBytes),
	}
	net.Inject(5, pkt)
	for net.InFlight() > 0 {
		net.Step()
	}
	// Output:
	// delivered read_reply to node 10
}

// ExamplePacketSize shows the flit arithmetic behind Table I: a 128B cache
// line on 128-bit links is a 9-flit long packet (the 36-flit NI queue holds
// four of them).
func ExamplePacketSize() {
	fmt.Println(noc.PacketSize(noc.ReadReply, 128, 128))
	fmt.Println(noc.PacketSize(noc.ReadRequest, 128, 128))
	fmt.Println(noc.PacketSize(noc.ReadReply, 256, 128))
	// Output:
	// 9
	// 1
	// 5
}

// ExampleDiamondMCPlacement lists the MC nodes of the Table I system.
func ExampleDiamondMCPlacement() {
	mesh := noc.Mesh{Width: 6, Height: 6}
	mcs := noc.DiamondMCPlacement(mesh, 8)
	fmt.Println(len(mcs), "MCs; compute nodes:", mesh.Nodes()-len(mcs))
	// Output:
	// 8 MCs; compute nodes: 28
}

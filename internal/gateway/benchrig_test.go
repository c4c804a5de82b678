package gateway

import (
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/cfifo"
	"accelshare/internal/ring"
	"accelshare/internal/sim"
)

type benchParts struct {
	in, out *cfifo.FIFO
}

func benchRig(b *testing.B, k *sim.Kernel) *benchParts {
	b.Helper()
	net, err := ring.NewDual(k, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	tile := accel.NewTile("acc", k, 1, 2)
	entryLink := accel.NewLink("e->a", k, net, 0, 1, tile.In())
	exitNI := sim.NewQueue("exit.ni", 2)
	tile.SetDownstream(accel.NewLink("a->x", k, net, 1, 2, exitNI))
	pair, err := NewPair(k, net, Config{
		Name: "bench", EntryNode: 0, ExitNode: 2,
		EntryCost: 2, ExitCost: 1,
	}, []*accel.Tile{tile}, entryLink, exitNI)
	if err != nil {
		b.Fatal(err)
	}
	in, err := cfifo.New(k, net, cfifo.Config{
		Name: "in", Capacity: 32, ProducerNode: 3, ConsumerNode: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	out, err := cfifo.New(k, net, cfifo.Config{
		Name: "out", Capacity: 32, ProducerNode: 2, ConsumerNode: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := pair.AddStream(&Stream{
		Name: "s", Block: 8, OutBlock: 8, Reconfig: 50,
		In: in, Out: out, Engines: []accel.Engine{accel.Passthrough{}},
	}); err != nil {
		b.Fatal(err)
	}
	pair.Start()
	return &benchParts{in: in, out: out}
}

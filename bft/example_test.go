package bft_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

// ExampleNewCluster is the quick start: four replicas of the kv demo
// service tolerate one Byzantine fault. Read-write operations run the
// three-phase protocol, a read-only one takes a single round trip
// (§5.1.3), and a ClientPool spreads concurrent operations over distinct
// client principals, since a principal has one operation in flight.
func ExampleNewCluster() {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 1}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	fmt.Printf("n=%d tolerates f=%d\n", cluster.Replicas(), cluster.FaultTolerance())

	ctx := context.Background()
	client := cluster.NewClient()
	for i := 0; i < 3; i++ {
		res, err := client.Invoke(ctx, kv.Incr())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("incr ->", kv.DecodeU64(res))
	}
	res, err := client.Invoke(ctx, kv.Get(), bft.ReadOnly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read-only get ->", kv.DecodeU64(res))

	pool := cluster.NewClientPool(4)
	futures := make([]*bft.Future, 4)
	for i := range futures {
		futures[i] = pool.InvokeAsync(ctx, kv.Incr())
	}
	for _, f := range futures {
		if _, err := f.Wait(ctx); err != nil {
			log.Fatal(err)
		}
	}
	res, err = client.Invoke(ctx, kv.Get(), bft.ReadOnly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after 4 pooled incrs ->", kv.DecodeU64(res))
	// Output:
	// n=4 tolerates f=1
	// incr -> 1
	// incr -> 2
	// incr -> 3
	// read-only get -> 3
	// after 4 pooled incrs -> 7
}

// ExampleWithBehavior runs a fault script on the public surface. Replica 3
// corrupts every reply and the client's reply certificates mask it. The
// primary is cut off and the backups elect a new one (view change,
// §2.3.5). The partition heals, and replica 2 recovers proactively
// (BFT-PR, §4.3). The script prints results only: how long the failover
// takes and which view the group ends in vary from run to run.
func ExampleWithBehavior() {
	cluster := bft.NewCluster(bft.Options{
		Replicas:           4,
		StateSize:          kv.MinStateSize,
		CheckpointInterval: 8,
		LogWindow:          16,
		ViewChangeTimeout:  150 * time.Millisecond,
		MaxRetries:         30,
		Seed:               1,
	}, kv.Factory, bft.WithBehavior(3, bft.WrongResult))
	cluster.Start()
	defer cluster.Stop()

	client := cluster.NewClient()
	incr := func(step string) {
		res, err := client.Invoke(context.Background(), kv.Incr())
		if err != nil {
			fmt.Println(step, "failed:", err)
			return
		}
		fmt.Printf("%s: counter = %d\n", step, kv.DecodeU64(res))
	}

	incr("replica 3 lies")

	cluster.Isolate(0) // the primary of view 0
	incr("primary isolated")
	fmt.Println("primary replaced:", cluster.Replica(1).View() > 0)

	cluster.Heal()
	incr("healed")

	cluster.Recover(2)
	for deadline := time.Now().Add(10 * time.Second); cluster.Replica(2).Recovering() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("replica 2 recovered:", !cluster.Replica(2).Recovering())
	incr("after recovery")
	// Output:
	// replica 3 lies: counter = 1
	// primary isolated: counter = 2
	// primary replaced: true
	// healed: counter = 3
	// replica 2 recovered: true
	// after recovery: counter = 4
}

package bfs_test

// Integration: BFS running on top of the full BFT library — the
// configuration the thesis evaluates in §8.6.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/bft"
	"repro/internal/bfs"
)

func replicatedFS(t testing.TB, copts ...bft.ClusterOption) (*bft.Cluster, *bfs.Client) {
	t.Helper()
	c := bft.NewCluster(bft.Options{
		CheckpointInterval: 16,
		LogWindow:          32,
		ViewChangeTimeout:  200 * time.Millisecond,
		StateSize:          bfs.MinRegionSize(2048),
		MaxRetries:         20,
		Seed:               11,
	}, bfs.Factory, copts...)
	c.Start()
	t.Cleanup(c.Stop)
	return c, bfs.NewClient(c.NewClient())
}

func TestReplicatedFileSystem(t *testing.T) {
	_, fc := replicatedFS(t)

	dir, err := fc.Mkdir(bfs.RootIno, "docs")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("byzantine fault tolerant file content")
	ino, err := fc.WriteFile(dir.Ino, "paper.txt", content)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadFile(ino)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := fc.Readdir(dir.Ino)
	if err != nil || len(ents) != 1 || ents[0].Name != "paper.txt" {
		t.Fatalf("readdir %v %v", ents, err)
	}
	// Timestamps come from the agreed non-deterministic value.
	a, _ := fc.GetAttr(ino)
	now := uint64(time.Now().UnixNano())
	if a.Mtime == 0 || a.Mtime > now+uint64(time.Hour) {
		t.Fatalf("mtime %d implausible", a.Mtime)
	}
}

func TestReplicatedFSWithFaultyReplica(t *testing.T) {
	_, fc := replicatedFS(t, bft.WithBehavior(2, bft.WrongResult))
	dir, err := fc.Mkdir(bfs.RootIno, "d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, err := fc.WriteFile(dir.Ino, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fc.Readdir(dir.Ino)
	if err != nil || len(ents) != 5 {
		t.Fatalf("readdir with faulty replica: %v %v", ents, err)
	}
}

func TestReplicatedFSSurvivesPrimaryFailure(t *testing.T) {
	c, fc := replicatedFS(t)
	dir, err := fc.Mkdir(bfs.RootIno, "work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.WriteFile(dir.Ino, "before", []byte("pre-failure")); err != nil {
		t.Fatal(err)
	}
	c.Isolate(0) // primary of view 0 dies
	if _, err := fc.WriteFile(dir.Ino, "after", []byte("post-failure")); err != nil {
		t.Fatal(err)
	}
	a, err := fc.WalkPath("/work/before")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fc.ReadFile(a.Ino)
	if string(got) != "pre-failure" {
		t.Fatal("pre-failure file lost across view change")
	}
}

func TestReplicatedFSStrictMode(t *testing.T) {
	_, fc := replicatedFS(t)
	fc.Strict = true // BFS-strict: no read-only optimization (§8.6.2)
	dir, err := fc.Mkdir(bfs.RootIno, "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.WriteFile(dir.Ino, "f", []byte("strict")); err != nil {
		t.Fatal(err)
	}
	a, err := fc.WalkPath("/s/f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadFile(a.Ino)
	if err != nil || string(got) != "strict" {
		t.Fatalf("strict read: %q %v", got, err)
	}
}

func TestReplicatedFSRecoveryAfterCorruption(t *testing.T) {
	// An attacker corrupts one replica's file-system state; proactive
	// recovery's state check finds and repairs the damaged pages.
	c, fc := replicatedFS(t)
	dir, err := fc.Mkdir(bfs.RootIno, "data")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5C}, 8192)
	if _, err := fc.WriteFile(dir.Ino, "blob", payload); err != nil {
		t.Fatal(err)
	}
	// Push enough operations through to cross a checkpoint interval.
	for i := 0; i < 20; i++ {
		if _, err := fc.WriteFile(dir.Ino, fmt.Sprintf("pad%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for a stable checkpoint covering the writes.
	deadline := time.Now().Add(5 * time.Second)
	for c.Replica(1).LowWaterMark() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no stable checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}

	c.Replica(1).CorruptStatePage(3)
	c.Replica(1).Recover()
	deadline = time.Now().Add(10 * time.Second)
	for c.Replica(1).Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery stuck")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if m := c.Replica(1).Metrics(); m.PagesFetched == 0 {
		t.Fatal("corrupt page not repaired")
	}
	// File still reads correctly through the replicated service.
	a, err := fc.WalkPath("/data/blob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadFile(a.Ino)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("file corrupted after recovery")
	}
}

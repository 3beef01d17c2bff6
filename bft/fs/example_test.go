package fs_test

import (
	"fmt"
	"log"

	"repro/bft"
	"repro/bft/fs"
)

// Example builds a directory tree on a replicated BFS (Chapter 6), then
// writes, renames, links, reads and lists files through the typed client.
// Replica 3 corrupts every reply it sends, and the client's reply
// certificates mask it.
func Example() {
	cluster := bft.NewCluster(bft.Options{
		Replicas:  4,
		StateSize: fs.MinRegionSize(4096),
		Seed:      1,
	}, fs.Factory, bft.WithBehavior(3, bft.WrongResult))
	cluster.Start()
	defer cluster.Stop()
	fc := fs.NewClient(cluster.NewClient())

	dir, err := fc.MkdirAll("/projects/bft")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fc.WriteFile(dir, "README.md", []byte("# BFT\nByzantine fault tolerant file system\n")); err != nil {
		log.Fatal(err)
	}
	if _, err := fc.WriteFile(dir, "notes.txt", []byte("scratch")); err != nil {
		log.Fatal(err)
	}
	if err := fc.Rename(dir, "notes.txt", dir, "notes.old"); err != nil {
		log.Fatal(err)
	}
	if _, err := fc.Symlink(dir, "latest", "/projects/bft/README.md"); err != nil {
		log.Fatal(err)
	}

	attr, err := fc.WalkPath("/projects/bft/README.md")
	if err != nil {
		log.Fatal(err)
	}
	content, err := fc.ReadFile(attr.Ino)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("README.md, %d bytes:\n%s", attr.Size, content)

	ents, err := fc.Readdir(dir)
	if err != nil {
		log.Fatal(err)
	}
	kind := map[uint8]string{fs.TypeFile: "file", fs.TypeDir: "dir", fs.TypeSymlink: "link"}
	for _, e := range ents {
		a, err := fc.GetAttr(e.Ino)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s, %d bytes\n", e.Name, kind[a.Type], a.Size)
	}
	// Output:
	// README.md, 43 bytes:
	// # BFT
	// Byzantine fault tolerant file system
	// README.md: file, 43 bytes
	// latest: link, 23 bytes
	// notes.old: file, 7 bytes
}

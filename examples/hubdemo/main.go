// Hubdemo: the Fig 6 workflow — build all three PEPA-family containers on
// the CentOS build host, push them to a hub, list the collection, and pull
// each image with digest verification on every host profile.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/hub"
)

func main() {
	fw := core.New()
	srv := hub.NewServer(hub.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	client := hub.NewClient("http://" + addr)

	pub, err := fw.Publish(context.Background(), client)
	if err != nil {
		log.Fatal(err)
	}
	digests := pub.Digests
	fmt.Printf("hub at http://%s\n\ncollection %q:\n", addr, fw.Collection)
	entries, err := client.List(fw.Collection)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("  %s:%s  %s  %d bytes\n", e.Container, e.Tag, e.Digest[:19], e.Size)
	}

	fmt.Println("\npulling every container on every host profile:")
	for _, name := range hostenv.Names() {
		host, err := hostenv.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := host.InstallSingularity(); err != nil {
			log.Fatal(err)
		}
		for _, tool := range core.Tools() {
			_, d, err := client.Pull(fw.Collection, string(tool), "latest", digests[tool])
			if err != nil {
				log.Fatalf("pull %s on %s: %v", tool, name, err)
			}
			fmt.Printf("  %-24s %-8s pulled, digest verified %s...\n", name, tool, d[:19])
		}
	}
	fmt.Println("\nall pulls verified — the containers are bit-identical everywhere.")
}

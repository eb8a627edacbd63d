// Anomaly: the paper's Figure 1 / §3.1 scenario, end to end, across three
// provenance layers and three machines.
//
// A Kepler workflow runs on a workstation, reading the Provenance
// Challenge inputs from one NFS file server and writing its outputs to a
// second one, with intermediates on the local disk. Between two runs, a
// colleague silently modifies one input file directly on the first server.
// The second run's output differs; only the INTEGRATED provenance — Kepler
// operators + local files + both servers' files, joined in one graph —
// can show why. The program exits non-zero if the joined ancestry does not
// reach the modified input's new version through the workflow operators.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"passv2/internal/kepler"
	"passv2/internal/vfs"
	"passv2/pass"
)

func main() {
	// The workstation and the two file servers of Figure 1.
	ws := pass.NewMachine(pass.Config{Provenance: true})
	if _, err := ws.AddVolume("/scratch", 1); err != nil {
		log.Fatal(err)
	}
	srvIn, err := pass.NewFileServer(11, ws.Clock, vfs.DefaultCostModel())
	must(err)
	defer srvIn.Close()
	srvOut, err := pass.NewFileServer(12, ws.Clock, vfs.DefaultCostModel())
	must(err)
	defer srvOut.Close()
	must(ws.MountNFS("/mnt/inputs", srvIn.Addr()))
	must(ws.MountNFS("/mnt/outputs", srvOut.Addr()))
	// Registered after the server defers so it runs first: Server.Close
	// waits for its connection handlers, which only exit once the
	// workstation's NFS clients disconnect.
	defer ws.Close()

	// Seed the challenge inputs on the input server.
	seed := ws.Spawn("seed", nil, nil)
	must(seed.MkdirAll("/mnt/inputs/fmri"))
	for _, name := range kepler.ChallengeInputs() {
		fd, err := seed.Open("/mnt/inputs/fmri/"+name, vfs.OCreate|vfs.ORdWr)
		must(err)
		seed.Write(fd, []byte("scan-data:"+name))
		seed.Close(fd)
	}
	seed.Exit()

	run := func(label string) []byte {
		eng := ws.Spawn("kepler", []string{"kepler", "challenge.xml"}, nil)
		defer eng.Exit()
		must(eng.MkdirAll("/mnt/outputs/results"))
		e := kepler.NewEngine(eng)
		e.AddRecorder(kepler.NewPASSRecorder(eng, "/scratch"))
		wf := kepler.BuildChallenge(kepler.ChallengeConfig{
			Input: "/mnt/inputs/fmri",
			Work:  "/scratch",
			Out:   "/mnt/outputs/results",
		})
		must(e.Run(wf))
		fd, err := eng.Open("/mnt/outputs/results/atlas-x.gif", vfs.ORdOnly)
		must(err)
		buf := make([]byte, 256)
		n, _ := eng.Read(fd, buf)
		eng.Close(fd)
		fmt.Printf("%s: atlas-x.gif = %x...\n", label, buf[:min(n, 8)])
		return append([]byte(nil), buf[:n]...)
	}

	monday := run("Monday   ")

	// Tuesday: unbeknownst to us, a colleague modifies an input — on the
	// server directly, invisible to Kepler.
	colleague := ws.Spawn("colleague", nil, nil)
	fd, err := colleague.Open("/mnt/inputs/fmri/anatomy2.img", vfs.OCreate|vfs.OTrunc|vfs.ORdWr)
	must(err)
	colleague.Write(fd, []byte("RESCANNED-SUBJECT-2"))
	colleague.Close(fd)
	colleague.Exit()

	wednesday := run("Wednesday")

	if bytes.Equal(monday, wednesday) {
		log.Fatal("outputs should differ after the input changed")
	}
	fmt.Println("\nThe Wednesday output differs. Why?")

	// Without layering: Kepler's own provenance shows two identical
	// executions (same operators, same parameters). The change is
	// invisible at the workflow layer.
	fmt.Println("\nWithout layering: Kepler's records for both runs are identical —")
	fmt.Println("same operators, same parameters. No explanation.")

	// With layering: join the workstation's provenance with both
	// servers' and walk the output's ancestry. The modified input
	// appears as a *new version* of anatomy2.img, reached through the
	// workflow operators.
	inDB, err := srvIn.DB()
	must(err)
	outDB, err := srvOut.DB()
	must(err)
	res, err := ws.QueryWith(`
		select Ancestor
		from Provenance.file as Atlas
		     Atlas.input* as Ancestor
		where Atlas.name = "/mnt/outputs/results/atlas-x.gif"`,
		inDB, outDB)
	must(err)
	fmt.Println("\nWith layering (client + both servers joined):")
	ancestry := res.Format()
	fmt.Print(ancestry)
	for _, want := range []string{"anatomy2.img", "softmean", "@v2"} {
		if !strings.Contains(ancestry, want) {
			log.Fatalf("the joined ancestry misses %q", want)
		}
	}

	// Pinpoint the culprit: an ancestor file on the input server with
	// more than one version.
	fmt.Println("Input files with multiple versions (the modified ones):")
	modified := false
	for _, pn := range inDB.AllPNodes() {
		if vs := inDB.Versions(pn); len(vs) > 1 {
			if name, ok := inDB.NameOf(pn); ok {
				fmt.Printf("  %s: versions %v  ← modified between runs\n", name, vs)
				modified = modified || strings.HasSuffix(name, "/anatomy2.img")
			}
		}
	}
	if !modified {
		log.Fatal("the modified input anatomy2.img has no version history")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

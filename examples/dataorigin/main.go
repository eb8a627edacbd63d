// Dataorigin: the §3.3 "Determining Data Origin" use case. A thermography
// group's plot script reads ~400 XML experiment logs but uses only the
// ones matching a stress classification. PASS alone says the plot derives
// from ALL the files; PA-Python alone knows the documents but not their
// files. Layered, the query reports exactly the XML documents that
// contributed — and the files they came from. The program exits non-zero
// if the disclosed inputs are not exactly the documents the script used.
package main

import (
	"fmt"
	"log"
	"strings"

	"passv2/internal/pnode"
	"passv2/internal/pyprov"
	"passv2/pass"
)

func main() {
	m := pass.NewMachine(pass.Config{Provenance: true})
	if _, err := m.AddVolume("/lab", 1); err != nil {
		log.Fatal(err)
	}

	py := m.Spawn("python", []string{"python", "plot_heating.py"}, nil)
	rt := pyprov.New(py, "/lab")

	// The data acquisition system produced 400 experiment logs.
	if err := pyprov.GenerateLogs(rt, "/lab/xml", 400); err != nil {
		log.Fatal(err)
	}
	// Plot crack heating for the "high" vibrational-stress class.
	res, err := pyprov.AnalyzeCrackHeating(rt, "/lab/xml", "/lab/plot.dat", "high", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Script read %d XML files, used %d of them.\n\n", res.TotalRead, res.Used)

	if err := m.Drain(); err != nil {
		log.Fatal(err)
	}
	db := m.Waldo.DB
	plotPN := db.ByName("/lab/plot.dat")[0]
	v, _ := db.LatestVersion(plotPN)
	plotRef := pnode.Ref{PNode: plotPN, Version: v}

	// System layer only (what PASSv2 alone would say): every XML file is
	// an ancestor, because the python process read them all.
	g := m.Graph()
	all := 0
	for _, a := range g.Ancestors(plotRef) {
		if name, ok := db.NameOf(a.PNode); ok && strings.HasPrefix(name, "/lab/xml/") {
			all++
		}
	}
	fmt.Printf("PASS alone (full ancestry through the process): %d XML files — useless.\n", all)

	// Layered: the plot's DIRECT dependencies, disclosed by PA-Python,
	// name exactly the used documents.
	used := 0
	var sample []string
	for _, in := range db.Inputs(plotRef) {
		if name, ok := db.NameOf(in.PNode); ok && strings.HasPrefix(name, "/lab/xml/") {
			used++
			if len(sample) < 5 {
				sample = append(sample, name)
			}
		}
	}
	fmt.Printf("Layered PA-Python/PASSv2 (disclosed dependencies): %d XML files.\n", used)
	if used != res.Used {
		log.Fatalf("disclosed %d direct XML inputs, want the %d used", used, res.Used)
	}
	fmt.Println("First few:")
	for _, s := range sample {
		fmt.Println("  ", s)
	}

	// And the invocation chain is queryable: how often did the wrapped
	// routine run?
	q2, err := m.Query(`
		select count(I) as estimate_calls
		from Provenance.invocation as I
		where I.name = "estimate_heating"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nWrapped-routine invocations recorded:")
	fmt.Print(q2.Format())
}

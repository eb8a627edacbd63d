// Validation: the §3.3 "Process Validation" use case. A Python library
// upgrade introduced a bug in a calculation routine; the group must find
// which results are tainted. PASS alone can tell which outputs used the
// new library; PA-Python alone which used the routine; the layered join
// identifies outputs that descend from BOTH — exactly the incorrect data.
// The program exits non-zero if a verdict is wrong.
package main

import (
	"fmt"
	"log"

	"passv2/internal/pnode"
	"passv2/internal/pyprov"
	"passv2/internal/record"
	"passv2/pass"
)

func main() {
	m := pass.NewMachine(pass.Config{Provenance: true})
	if _, err := m.AddVolume("/lab", 1); err != nil {
		log.Fatal(err)
	}

	py := m.Spawn("python", []string{"python", "analysis.py"}, nil)
	rt := pyprov.New(py, "/lab")
	if err := pyprov.GenerateLogs(rt, "/lab/xml", 60); err != nil {
		log.Fatal(err)
	}

	// Three analysis runs: two before the library upgrade, one after.
	runs := []struct {
		out   string
		buggy bool
	}{
		{"/lab/results/january.dat", false},
		{"/lab/results/february.dat", false},
		{"/lab/results/march.dat", true}, // after the upgrade
	}
	py.MkdirAll("/lab/results")
	for _, r := range runs {
		if _, err := pyprov.AnalyzeCrackHeating(rt, "/lab/xml", r.out, "high", r.buggy); err != nil {
			log.Fatal(err)
		}
	}

	if err := m.Drain(); err != nil {
		log.Fatal(err)
	}
	db := m.Waldo.DB

	// Each run wrapped its own estimate_heating function object; the
	// third run's is the buggy one (installed with the new library).
	var fns []pnode.PNode
	for _, pn := range db.ByName("estimate_heating") {
		if typ, ok := db.TypeOf(pn); ok && typ == record.TypeFunction {
			fns = append(fns, pn)
		}
	}
	if len(fns) != 3 {
		log.Fatalf("expected 3 estimate_heating function objects, got %d", len(fns))
	}
	buggy := fns[2]
	fmt.Printf("Buggy routine object: estimate_heating (%s)\n\n", pnode.Ref{PNode: buggy, Version: 1})

	// Which results descend from an invocation of the buggy routine?
	g := m.Graph()
	fmt.Println("Result validation:")
	for _, r := range runs {
		pns := db.ByName(r.out)
		if len(pns) != 1 {
			log.Fatalf("%s missing from database", r.out)
		}
		v, _ := db.LatestVersion(pns[0])
		tainted := false
		for _, a := range g.Ancestors(pnode.Ref{PNode: pns[0], Version: v}) {
			if a.PNode == buggy {
				tainted = true
				break
			}
		}
		verdict := "OK        (used the old routine)"
		if tainted {
			verdict = "RECOMPUTE (descends from the buggy routine)"
		}
		fmt.Printf("  %-28s %s\n", r.out, verdict)
		if tainted != r.buggy {
			log.Fatalf("provenance verdict wrong for %s", r.out)
		}
	}
	fmt.Println("\nOnly march.dat descends from both the new library's routine and")
	fmt.Println("the calculation — the layered join neither layer could do alone.")
}

package bench

import (
	"fmt"

	"passv2/internal/graph"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// queryChain is the ancestry-chain length of the synthetic query workload:
// files link input-edges in blocks of this size, so one selective ancestor
// query touches a bounded closure while the naive evaluator still has to
// expand a closure per file in the database.
const queryChain = 8

// QueryDataset builds a synthetic provenance database of at least the given
// record count (NAME + TYPE + chained INPUT records per file), and returns
// the database, the graph over it, and the paper-shaped selective ancestor
// query the benchmarks run (§3.1 attribution: all ancestry of one named
// file).
func QueryDataset(records int) (*waldo.DB, *graph.Graph, string) {
	// Each file emits NAME + TYPE, and every file except a chain head (1
	// in queryChain) emits an INPUT: 3f - ceil(f/queryChain) records from
	// f files. Solve for f so the total meets the request.
	files := (records*queryChain + 3*queryChain - 2) / (3*queryChain - 1)
	if files < queryChain {
		files = queryChain
	}
	db := waldo.NewDB()
	batch := make([]record.Record, 0, 3*1024)
	flush := func() {
		db.ApplyBatch(batch)
		batch = batch[:0]
	}
	for i := 1; i <= files; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(i), Version: 1}
		batch = append(batch,
			record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/q/f%d", i))),
			record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
		if (i-1)%queryChain != 0 {
			batch = append(batch, record.Input(ref, pnode.Ref{PNode: pnode.PNode(i - 1), Version: 1}))
		}
		if len(batch) >= 3*1024 {
			flush()
		}
	}
	flush()
	// Target the last file of a complete chain so the closure is full-depth.
	target := (files / queryChain) * queryChain
	q := fmt.Sprintf(`select A from Provenance.file as F F.input* as A where F.name = "/q/f%d"`, target)
	return db, graph.New(db), q
}

package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"passv2/internal/pnode"
	"passv2/internal/record"
)

// stream is every input a run derives from one seed, as bytes: the DAG,
// one lane of each write shape, a marker, the query texts and the draws.
func stream(seed int64) []byte {
	var b []byte
	obj := pnode.Ref{PNode: pnode.PNode(uint64(0xFFFE)<<48 | 1), Version: 1}
	d := NewDAG(seed, 5000, VolDAG, "dag")
	for _, r := range d.Records {
		b = record.AppendRecord(b, r)
	}
	for _, f := range d.Files {
		b = append(b, f...)
	}
	for _, v := range Visits(seed, 3, 64) {
		for _, r := range v.Records(obj) {
			b = record.AppendRecord(b, r)
		}
	}
	for _, w := range Wides(seed, 900, 64) {
		for _, r := range w.Records(obj) {
			b = record.AppendRecord(b, r)
		}
	}
	recs, name := Marker(seed, 7)
	for _, r := range recs {
		b = record.AppendRecord(b, r)
	}
	b = append(b, name...)
	b = append(b, SessionName(seed, 3, 9)...)
	q := NewQueries(seed, d, 1000, 4096)
	for c := range q.Texts {
		for _, t := range q.Texts[c] {
			b = append(b, t...)
		}
	}
	for _, draw := range q.Draws {
		b = append(b, byte(draw), byte(draw>>8), byte(draw>>16), byte(draw>>24))
	}
	return b
}

// TestSeedPinsStream pins the bytes seed 1 generates. A change to this
// hash changes what every later benchmark run measures: it belongs in a
// change of its own, with the baseline measured again.
func TestSeedPinsStream(t *testing.T) {
	const want = "bf5ef31ec0d8e472e3b169620068ce41b2b43ff2dc4ddcc074533dc904368831"
	sum := sha256.Sum256(stream(1))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("seed 1 generates a stream hashing to %s, pinned is %s", got, want)
	}
	if again := sha256.Sum256(stream(1)); again != sum {
		t.Fatal("the same seed generated two different streams")
	}
}

func TestSeedsDiffer(t *testing.T) {
	if sha256.Sum256(stream(1)) == sha256.Sum256(stream(2)) {
		t.Fatal("seeds 1 and 2 generate the same stream")
	}
}

// TestSeedKeepsShape holds the generator to its promise that a seed
// changes names and values but not the amount of work: the same subjects
// and attributes in the same order, the same number of files, and the
// same encoded size.
func TestSeedKeepsShape(t *testing.T) {
	a, b := NewDAG(1, 5000, VolDAG, "dag"), NewDAG(2, 5000, VolDAG, "dag")
	if len(a.Records) != len(b.Records) || len(a.Files) != len(b.Files) {
		t.Fatalf("shape differs by seed: %d/%d records, %d/%d files", len(a.Records), len(b.Records), len(a.Files), len(b.Files))
	}
	var sa, sb int
	for i := range a.Records {
		if a.Records[i].Attr != b.Records[i].Attr || a.Records[i].Subject != b.Records[i].Subject {
			t.Fatalf("record %d differs in shape: %v vs %v", i, a.Records[i], b.Records[i])
		}
		sa += len(record.AppendRecord(nil, a.Records[i]))
		sb += len(record.AppendRecord(nil, b.Records[i]))
	}
	if sa != sb {
		t.Fatalf("encoded size differs by seed: %d vs %d bytes", sa, sb)
	}
}

func TestChunks(t *testing.T) {
	d := NewDAG(1, 1000, VolDAG, "dag")
	chunks := Chunks(d.Records)
	if len(chunks) != 4 || len(chunks[0]) != BulkChunk || len(chunks[3]) != 1000-3*BulkChunk {
		t.Fatalf("1000 records chunked as %d chunks, first %d, last %d", len(chunks), len(chunks[0]), len(chunks[len(chunks)-1]))
	}
}

// TestImportsStayOutOfBench checks that neither this package nor the
// benchmark's main package imports internal/bench or internal/workload: a
// later change may edit those, and may not thereby edit the benchmark.
func TestImportsStayOutOfBench(t *testing.T) {
	for _, dir := range []string{".", ".."} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "passv2/internal/bench") || strings.HasPrefix(path, "passv2/internal/workload") {
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
	}
}

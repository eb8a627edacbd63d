// Package gen makes every input the benchmark sends to the daemon — the
// provenance DAG, the three write shapes and the query list — from a seed
// alone. It imports nothing under internal/bench or internal/workload, so
// a later change to those cannot change what the benchmark measures.
//
// The seed decides every name, string value, identifier and draw order.
// It does not decide the shape: how many files a job reads, how long a
// project runs, which rank of the query list is hot and how large that
// query's closure is are drawn from a fixed shape source, so two seeds do
// statistically identical work and a run-to-run difference is the
// daemon's, not the dice's.
package gen

import (
	"fmt"
	"math/rand"

	"passv2/internal/pnode"
	"passv2/internal/record"
)

// Volume prefixes the generated identities live in. Each is distinct from
// the daemon's phantom-object volume (0xFFFE), so a generated pnode never
// collides with one the daemon mints.
const (
	VolDAG    uint16 = 0x0101 // the preloaded DAG every workload queries
	VolBulk   uint16 = 0x0102 // ingest-bulk's window records
	VolPage   uint16 = 0x0103 // pages the disclose shapes point INPUT edges at
	VolMarker uint16 = 0x0104 // freshness-probe markers
)

// shapeSeed fixes the DAG topology and the query ranks for every seed.
const shapeSeed = 0x70617373 // "pass"

// BulkChunk is the record count of one handle-less bulk write: the
// distributor-sink shape.
const BulkChunk = 256

func ref(vol uint16, n uint64) pnode.Ref {
	return pnode.Ref{PNode: pnode.PNode(uint64(vol)<<48 | n), Version: 1}
}

// DAG is a generated provenance graph in disclosure order.
type DAG struct {
	Records []record.Record
	Files   []string // names of the FILE objects wholly inside Records
	Tag     string   // PROC names are Tag + a tool number in [0,tools) + "-" + 8 hex digits
}

// projectJobs gives the length, in jobs, of the i-th project. A job reads
// only files of its own project, so a project bounds an ancestry closure:
// most are a handful of jobs, every 32nd is 96 and every 256th is 320,
// which gives closures a median of a few dozen references and a tail in
// the high hundreds.
func projectJobs(i int) int {
	switch {
	case i%256 == 40:
		return 320
	case i%32 == 8:
		return 96
	}
	return [...]int{4, 8, 12, 16, 24, 32}[i%6]
}

const tools = 32

// NewDAG generates at least n records' worth of jobs in volume vol and
// cuts the stream at exactly n. A job is one PROC (NAME, TYPE, ARGV, PID)
// that reads 1–8 files of its project, chosen Zipf by recency, and writes
// 1–3 new FILEs (NAME, TYPE, INPUT from the PROC). File names begin with
// "/"+tag and PROC names with tag, so two DAGs with different tags share
// no name and a scan of one's tools never counts the other's.
func NewDAG(seed int64, n int, vol uint16, tag string) *DAG {
	shape := rand.New(rand.NewSource(shapeSeed + int64(vol)))
	val := rand.New(rand.NewSource(seed ^ int64(vol)<<32))
	d := &DAG{Records: make([]record.Record, 0, n+32), Tag: tag}

	type file struct {
		ref  pnode.Ref
		name string
		end  int // len(Records) once the file's records are all emitted
	}
	var (
		next     uint64
		files    []file
		project  []int // indices into files
		jobsLeft int
		projects int
	)
	for len(d.Records) < n {
		if jobsLeft == 0 {
			jobsLeft = projectJobs(projects)
			projects++
			project = project[:0]
		}
		jobsLeft--

		next++
		proc := ref(vol, next)
		d.Records = append(d.Records,
			record.New(proc, record.AttrName, record.StringVal(fmt.Sprintf("%s%02d-%08x", tag, shape.Intn(tools), val.Uint32()))),
			record.New(proc, record.AttrType, record.StringVal(record.TypeProc)),
			record.New(proc, record.AttrArgv, record.StringVal(fmt.Sprintf("--in=%016x --out=%016x -O%d", val.Uint64(), val.Uint64(), shape.Intn(4)))),
			record.New(proc, "PID", record.Int(int64(20000+val.Intn(40000)))),
		)
		if len(project) > 0 {
			reads := 1 + shape.Intn(8)
			zipf := rand.NewZipf(shape, 1.1, 1, uint64(len(project)-1))
			seen := make(map[int]bool, reads)
			for i := 0; i < reads; i++ {
				f := project[len(project)-1-int(zipf.Uint64())]
				if seen[f] {
					continue
				}
				seen[f] = true
				d.Records = append(d.Records, record.Input(proc, files[f].ref))
			}
		}
		for i, writes := 0, 1+shape.Intn(3); i < writes; i++ {
			next++
			f := file{ref: ref(vol, next), name: fmt.Sprintf("/%s/%04x/f%07d", tag, val.Intn(1<<16), next)}
			d.Records = append(d.Records,
				record.New(f.ref, record.AttrName, record.StringVal(f.name)),
				record.New(f.ref, record.AttrType, record.StringVal(record.TypeFile)),
				record.Input(f.ref, proc),
			)
			f.end = len(d.Records)
			project = append(project, len(files))
			files = append(files, f)
		}
	}
	d.Records = d.Records[:n]
	for _, f := range files {
		if f.end <= n {
			d.Files = append(d.Files, f.name)
		}
	}
	return d
}

// Chunks splits recs into bulk writes of BulkChunk records (the last may
// be shorter).
func Chunks(recs []record.Record) [][]record.Record {
	out := make([][]record.Record, 0, len(recs)/BulkChunk+1)
	for len(recs) > BulkChunk {
		out = append(out, recs[:BulkChunk])
		recs = recs[BulkChunk:]
	}
	if len(recs) > 0 {
		out = append(out, recs)
	}
	return out
}

// Visit is one small disclosure against a session object: a VISITED_URL
// string of about 60 bytes and one INPUT edge to a page nobody else
// names. The subject is bound when it is sent, because the daemon mints
// the session's identity.
type Visit struct {
	URL  string
	Page pnode.Ref
}

// Records binds the visit to its session object.
func (v Visit) Records(obj pnode.Ref) []record.Record {
	return []record.Record{
		record.New(obj, record.AttrVisitedURL, record.StringVal(v.URL)),
		record.Input(obj, v.Page),
	}
}

// Visits generates n visits for one session lane. Lanes with different
// lane numbers never share a URL or a page.
func Visits(seed int64, lane, n int) []Visit {
	val := rand.New(rand.NewSource(seed*1000003 + int64(lane)))
	out := make([]Visit, n)
	for i := range out {
		out[i] = Visit{
			URL:  fmt.Sprintf("https://host%04x.example/l%03d/%016x/%016x", val.Intn(1<<16), lane, val.Uint64(), val.Uint64()),
			Page: ref(VolPage, uint64(lane)<<32|uint64(i+1)),
		}
	}
	return out
}

// Wide is one of the sixteen DPAPI ops a mixed-workload flush pipelines:
// four records against one session object.
type Wide struct {
	URL, Title string
	Bytes      int64
	Page       pnode.Ref
}

// Records binds the op to its session object.
func (w Wide) Records(obj pnode.Ref) []record.Record {
	return []record.Record{
		record.New(obj, record.AttrVisitedURL, record.StringVal(w.URL)),
		record.New(obj, "TITLE", record.StringVal(w.Title)),
		record.New(obj, "BYTES", record.Int(w.Bytes)),
		record.Input(obj, w.Page),
	}
}

// Wides generates n four-record ops for one flush lane; lane numbers are
// shared with Visits, so a lane is used for one shape or the other.
func Wides(seed int64, lane, n int) []Wide {
	val := rand.New(rand.NewSource(seed*1000003 + int64(lane)))
	out := make([]Wide, n)
	for i := range out {
		out[i] = Wide{
			URL:   fmt.Sprintf("https://host%04x.example/w%03d/%016x/%016x", val.Intn(1<<16), lane, val.Uint64(), val.Uint64()),
			Title: fmt.Sprintf("page %08x of %08x", val.Uint32(), val.Uint32()),
			Bytes: 1<<29 + val.Int63n(1<<29),
			Page:  ref(VolPage, uint64(lane)<<32|uint64(i+1)),
		}
	}
	return out
}

// SessionName names the k-th object of a session lane and gives its
// identity records.
func SessionName(seed int64, lane, k int) string {
	return fmt.Sprintf("/s/%08x/l%03d/o%06d", uint32(seed*2654435761), lane, k)
}

// SessionRecords are the two records a session discloses on a fresh object.
func SessionRecords(obj pnode.Ref, name string) []record.Record {
	return []record.Record{
		record.New(obj, record.AttrName, record.StringVal(name)),
		record.New(obj, record.AttrType, record.StringVal(record.TypeSession)),
	}
}

// Marker is the i-th freshness-probe marker: a uniquely named FILE and
// the point query that finds it.
func Marker(seed int64, i int) (recs []record.Record, name string) {
	r := ref(VolMarker, uint64(seed&0xFFFFFF)<<24|uint64(i+1))
	name = fmt.Sprintf("/m/%08x/%07d", uint32(seed*2654435761), i)
	return []record.Record{
		record.New(r, record.AttrName, record.StringVal(name)),
		record.New(r, record.AttrType, record.StringVal(record.TypeFile)),
	}, name
}

// Query classes, in the order Queries reports them.
const (
	Anc   = iota // F.input* by name: §3.1 attribution
	Desc         // F.input~* by name: taint tracking
	Point        // name seek
	Scan         // count over a like-filtered type scan
	Classes
)

// ClassNames names the query classes.
var ClassNames = [Classes]string{"anc", "desc", "point", "scan"}

// classShare is each class's share of the draws, in percent.
var classShare = [Classes]int{50, 15, 33, 2}

// PointQuery is the name seek for one object name.
func PointQuery(class, name string) string {
	return fmt.Sprintf(`select F from Provenance.%s as F where F.name = "%s"`, class, name)
}

// Queries is the query list of one run: distinct texts per class and a
// pre-drawn sequence over them.
type Queries struct {
	Texts [Classes][]string
	// Draws is the sequence sessions walk: class in the top 3 bits, index
	// into Texts[class] below.
	Draws []uint32
}

// Text resolves one draw.
func (q *Queries) Text(draw uint32) (class int, text string) {
	class = int(draw >> 29)
	return class, q.Texts[class][draw&(1<<29-1)]
}

// NewQueries builds distinct query texts over d — split among the classes
// by classShare — and draws from them: class by share, then Zipf(1.1) by
// rank within the class. Which file holds which rank is fixed by the
// shape source; the draw order is the seed's.
func NewQueries(seed int64, d *DAG, distinct, draws int) *Queries {
	shape := rand.New(rand.NewSource(shapeSeed))
	val := rand.New(rand.NewSource(seed + 7))
	q := &Queries{Draws: make([]uint32, draws)}

	perm := shape.Perm(len(d.Files))
	for c := 0; c < Classes; c++ {
		want := distinct * classShare[c] / 100
		switch c {
		case Scan:
			for t := 0; t < tools && len(q.Texts[c]) < want; t++ {
				for h := 0; h < 16 && len(q.Texts[c]) < want; h++ {
					q.Texts[c] = append(q.Texts[c], fmt.Sprintf(
						`select count(P) from Provenance.proc as P where P.name like "%s%02d-%x*"`, d.Tag, t, h))
				}
			}
		default:
			if want > len(perm) {
				want = len(perm)
			}
			// Each class ranks the files in its own rotation of one
			// permutation, so the hot ancestor query and the hot point
			// query name different files.
			for i := 0; i < want; i++ {
				name := d.Files[perm[(i+c*len(perm)/3)%len(perm)]]
				switch c {
				case Anc:
					q.Texts[c] = append(q.Texts[c], fmt.Sprintf(
						`select A from Provenance.file as F F.input* as A where F.name = "%s"`, name))
				case Desc:
					q.Texts[c] = append(q.Texts[c], fmt.Sprintf(
						`select D from Provenance.file as F F.input~* as D where F.name = "%s"`, name))
				case Point:
					q.Texts[c] = append(q.Texts[c], PointQuery("file", name))
				}
			}
		}
	}
	var zipf [Classes]*rand.Zipf
	for c := range zipf {
		zipf[c] = rand.NewZipf(val, 1.1, 1, uint64(len(q.Texts[c])-1))
	}
	for i := range q.Draws {
		p, c := val.Intn(100), 0
		for p >= classShare[c] {
			p -= classShare[c]
			c++
		}
		q.Draws[i] = uint32(c)<<29 | uint32(zipf[c].Uint64())
	}
	return q
}

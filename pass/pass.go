// Package pass is the public API of the PASSv2 reproduction: it assembles
// the pieces of the paper's Figure 2 — kernel, interceptor/observer,
// analyzer, distributor, Lasagna volumes, Waldo, the query engine — into a
// Machine you can run provenance-aware workloads on, plus helpers for
// exporting volumes over PA-NFS and mounting remote ones.
//
// A minimal session:
//
//	m := pass.NewMachine(pass.Config{})
//	vol, _ := m.AddVolume("/data", 1)
//	p := m.Spawn("myjob", []string{"myjob"}, nil)
//	// ... p.Open / p.Read / p.Write / p.Exec ...
//	m.Drain()
//	res, _ := m.Query(`select A from Provenance.file as F F.input* as A
//	                   where F.name = "/data/out"`)
//	fmt.Print(res.Format())
package pass

import (
	"errors"
	"fmt"
	"io"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/graph"
	"passv2/internal/kernel"
	"passv2/internal/lasagna"
	"passv2/internal/nfs"
	"passv2/internal/observer"
	"passv2/internal/passd"
	"passv2/internal/pql"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// Config configures a Machine.
type Config struct {
	// Provenance enables the PASSv2 pipeline (interceptor, observer,
	// analyzer, distributor). Disabled, the machine is the vanilla
	// baseline the evaluation compares against.
	Provenance bool
	// CostModel parameterizes the simulated disk; zero value means
	// vfs.DefaultCostModel.
	CostModel *vfs.CostModel
	// NoClock disables simulated-time accounting entirely (unit tests).
	NoClock bool
}

// Machine is one assembled host: kernel, namespace, optional PASSv2
// pipeline, one simulated disk, and a Waldo spanning its PASS volumes.
type Machine struct {
	Kernel   *kernel.Kernel
	Clock    *vfs.Clock
	Disk     *vfs.Disk
	Observer *observer.Observer // nil without provenance
	Waldo    *waldo.Waldo

	root      *vfs.MemFS
	volumes   map[string]*lasagna.FS
	plainVols []*vfs.MemFS
	clients   []io.Closer
}

// NewMachine builds a machine with a MemFS root mounted at "/".
func NewMachine(cfg Config) *Machine {
	clock := &vfs.Clock{}
	if cfg.NoClock {
		clock = nil
	}
	model := vfs.DefaultCostModel()
	if cfg.CostModel != nil {
		model = *cfg.CostModel
	}
	disk := vfs.NewDisk(model, clock)
	k := kernel.New(clock)
	root := vfs.NewMemFS("root", disk)
	k.Mount("/", root)
	m := &Machine{
		Kernel:  k,
		Clock:   clock,
		Disk:    disk,
		Waldo:   waldo.New(),
		root:    root,
		volumes: make(map[string]*lasagna.FS),
	}
	if cfg.Provenance {
		m.Observer = observer.New(k)
	}
	return m
}

// AddVolume creates a Lasagna volume over a fresh lower MemFS (on the
// machine's single disk, so provenance and data writes interfere the way
// the paper measures) and mounts it. With provenance disabled the mount is
// a plain MemFS baseline.
func (m *Machine) AddVolume(mountPoint string, volumeID uint16) (*lasagna.FS, error) {
	lower := vfs.NewMemFS(fmt.Sprintf("lower%d", volumeID), m.Disk)
	if m.Observer == nil {
		m.Kernel.Mount(mountPoint, lower)
		m.plainVols = append(m.plainVols, lower)
		return nil, nil
	}
	vol, err := lasagna.New(fmt.Sprintf("pass%d", volumeID), lasagna.Config{
		Lower:    lower,
		VolumeID: volumeID,
		Disk:     m.Disk,
	})
	if err != nil {
		return nil, err
	}
	m.Kernel.Mount(mountPoint, vol)
	m.Observer.RegisterVolume(vol)
	m.Waldo.Attach(vol)
	m.volumes[mountPoint] = vol
	return vol, nil
}

// Volume returns the PASS volume mounted at mountPoint, if any.
func (m *Machine) Volume(mountPoint string) *lasagna.FS { return m.volumes[mountPoint] }

// Spawn creates a process.
func (m *Machine) Spawn(name string, argv, env []string) *kernel.Process {
	return m.Kernel.Spawn(nil, name, argv, env)
}

// Drain synchronously ingests all provenance logs into the Waldo database.
func (m *Machine) Drain() error { return m.Waldo.Drain() }

// Graph returns the queryable provenance graph over this machine's Waldo
// database. AttachDB extends it with other machines' databases (the
// cross-layer, cross-machine queries of §3.1).
func (m *Machine) Graph() *graph.Graph { return graph.New(m.Waldo.DB) }

// Query drains and runs a PQL query over the machine's provenance.
func (m *Machine) Query(q string) (*pql.Result, error) {
	if err := m.Drain(); err != nil {
		return nil, err
	}
	return pql.Run(m.Graph(), q)
}

// ExplainQuery parses q and returns the plan the query engine would
// execute — access path per binding, pushed-down filters, closure
// memoization — without running it. Planning is purely syntactic, so no
// drain is needed.
func (m *Machine) ExplainQuery(q string) (string, error) {
	parsed, err := pql.Parse(q)
	if err != nil {
		return "", err
	}
	return pql.PlanQuery(parsed).Describe(), nil
}

// Serve drains once and starts a passd query daemon over this machine's
// Waldo database: many clients can then run PQL queries concurrently (each
// over an immutable snapshot) while the machine keeps generating and
// ingesting provenance. Stop it with Close; see passv2/internal/passd for
// the protocol and cmd/pql -remote for a client.
func (m *Machine) Serve(cfg passd.Config) (*passd.Server, error) {
	if err := m.Drain(); err != nil {
		return nil, err
	}
	return passd.Serve(m.Waldo, cfg)
}

// Connect dials a remote passd daemon (Serve on another machine, or
// cmd/passd) and stacks this machine's phantom objects on it: from here
// on, pass_mkobj and pass_reviveobj issued by processes on this machine
// return remote DPAPI objects whose provenance is disclosed over the
// passd wire and lives in the daemon's database. Components written
// against dpapi.Object — the Kepler PASS recorder, the provenance-aware
// Python runtime — need no changes; this is the paper's layer stacking
// (§5.2) across a process and network boundary. The connection is closed
// by Machine.Close.
func (m *Machine) Connect(addr string) (*passd.Client, error) {
	if m.Observer == nil {
		return nil, ErrNoProvenance
	}
	c, err := passd.Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.Hello(); err != nil {
		c.Close()
		return nil, err
	}
	m.Observer.SetPhantomLayer(c)
	m.clients = append(m.clients, c)
	return c, nil
}

// QueryWith runs a PQL query over this machine's provenance joined with
// additional databases (e.g. NFS servers').
func (m *Machine) QueryWith(q string, extra ...*waldo.DB) (*pql.Result, error) {
	if err := m.Drain(); err != nil {
		return nil, err
	}
	g := m.Graph()
	for _, db := range extra {
		g.AddSource(db)
	}
	return pql.Run(g, q)
}

// Elapsed reports simulated elapsed time.
func (m *Machine) Elapsed() time.Duration {
	if m.Clock == nil {
		return 0
	}
	return m.Clock.Now()
}

// ResetClock rewinds simulated time (between benchmark phases).
func (m *Machine) ResetClock() {
	if m.Clock != nil {
		m.Clock.Reset()
	}
}

// Close shuts down NFS clients opened by MountNFS.
func (m *Machine) Close() error {
	var first error
	for _, c := range m.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.clients = nil
	return first
}

// --- PA-NFS assembly ---

// FileServer is a standalone NFS file server: its own Lasagna volume and
// disk, but (as with a synchronous-RPC testbed) time accrues on the
// caller's clock.
type FileServer struct {
	Server *nfs.Server
	Volume *lasagna.FS
	Waldo  *waldo.Waldo
}

// NewFileServer starts a PA-NFS server whose disk charges clock (pass a
// client Machine's Clock, or nil). Every file server gets its own Waldo.
func NewFileServer(volumeID uint16, clock *vfs.Clock, model vfs.CostModel) (*FileServer, error) {
	// A PA-NFS server stacks more layers over each page than the local
	// case: the NFS reply path, Lasagna's cache and the lower file
	// system's (the paper attributes 14.8 of Postmark's 16.8 points to
	// this). Scale the page-copy cost accordingly.
	model.PageCopy *= 12
	disk := vfs.NewDisk(model, clock)
	lower := vfs.NewMemFS(fmt.Sprintf("srvlower%d", volumeID), disk)
	vol, err := lasagna.New(fmt.Sprintf("export%d", volumeID), lasagna.Config{
		Lower:    lower,
		VolumeID: volumeID,
		Disk:     disk,
	})
	if err != nil {
		return nil, err
	}
	srv, err := nfs.NewServer(vol)
	if err != nil {
		return nil, err
	}
	srv.SetDisk(disk)
	w := waldo.New()
	w.Attach(vol)
	return &FileServer{Server: srv, Volume: vol, Waldo: w}, nil
}

// NewPlainFileServer starts a baseline NFS server over a plain MemFS
// export (the "NFS" column of Table 2): no provenance machinery at all.
func NewPlainFileServer(clock *vfs.Clock, model vfs.CostModel) (*FileServer, error) {
	disk := vfs.NewDisk(model, clock)
	lower := vfs.NewMemFS("srvplain", disk)
	srv, err := nfs.NewPlainServer(lower, disk)
	if err != nil {
		return nil, err
	}
	return &FileServer{Server: srv}, nil
}

// Addr returns the server's address for MountNFS.
func (fs *FileServer) Addr() string { return fs.Server.Addr() }

// DB drains and returns the server's provenance database (nil for a plain
// server).
func (fs *FileServer) DB() (*waldo.DB, error) {
	if fs.Waldo == nil {
		return nil, ErrNoProvenance
	}
	if err := fs.Waldo.Drain(); err != nil {
		return nil, err
	}
	return fs.Waldo.DB, nil
}

// Close stops the server.
func (fs *FileServer) Close() error { return fs.Server.Close() }

// MountNFS mounts a remote server at mountPoint. On a provenance-enabled
// machine the mount is provenance-aware (the DPAPI flows through); on a
// baseline machine it is a plain NFS client.
func (m *Machine) MountNFS(mountPoint, addr string) error {
	cost := nfs.DefaultNetCost()
	if m.Observer != nil {
		c, err := nfs.DialPass(addr, m.Clock, cost)
		if err != nil {
			return err
		}
		m.Kernel.Mount(mountPoint, c)
		m.Observer.RegisterVolume(c)
		m.clients = append(m.clients, c)
		return nil
	}
	c, err := nfs.Dial(addr, m.Clock, cost)
	if err != nil {
		return err
	}
	m.Kernel.Mount(mountPoint, c)
	m.clients = append(m.clients, c)
	return nil
}

// SpaceStats reports the space-accounting triple of Table 3 for this
// machine: bytes of file data, bytes of provenance database rows, and
// bytes of provenance plus indexes.
func (m *Machine) SpaceStats() (dataBytes, provBytes, provPlusIndex int64, err error) {
	if err := m.Drain(); err != nil {
		return 0, 0, 0, err
	}
	dataBytes = m.root.TotalBytes()
	for _, pv := range m.plainVols {
		dataBytes += pv.TotalBytes()
	}
	for _, vol := range m.volumes {
		if lower, ok := vol.Lower().(*vfs.MemFS); ok {
			dataBytes += lower.TotalBytes()
		}
	}
	_, prov, idx := m.Waldo.DB.Stats()
	return dataBytes, prov, prov + idx, nil
}

// ErrNoProvenance reports an operation that needs the PASSv2 pipeline on a
// baseline machine.
var ErrNoProvenance = errors.New("pass: machine built without provenance")

// SaveDB drains and writes the machine's provenance database snapshot.
func (m *Machine) SaveDB(w io.Writer) error {
	if err := m.Drain(); err != nil {
		return err
	}
	return m.Waldo.DB.Save(w)
}

// Checkpoint drains and writes a durable checkpoint of the machine's
// provenance state — database snapshot plus per-volume log offsets — to
// the store. Recovery (Recover, or a passd daemon booting on the same
// store) then replays only log bytes past the checkpoint.
func (m *Machine) Checkpoint(store *checkpoint.Store) (checkpoint.Info, error) {
	if err := m.Drain(); err != nil {
		return checkpoint.Info{}, err
	}
	return store.Write(m.Waldo.CheckpointState(), checkpoint.Policy{})
}

// Recover replaces the machine's provenance database with the newest
// valid checkpoint generation and seeds its volumes' log offsets, so the
// next Drain reads only bytes past the checkpoint. Volumes must already
// be attached (AddVolume) under the same names they were checkpointed
// with. With no usable generation the machine is left untouched (a cold
// start); the returned Recovered reports what happened either way.
func (m *Machine) Recover(store *checkpoint.Store) (*checkpoint.Recovered, error) {
	rec, err := store.Load()
	if err != nil {
		return nil, err
	}
	if rec.DB == nil {
		return rec, nil
	}
	m.Waldo.DB = rec.DB
	rec.Missing = m.Waldo.RestoreVolumes(rec.Volumes)
	return rec, nil
}

// Package kernel simulates the operating-system substrate PASSv2 modifies:
// a process table, file descriptors, pipes, a mount namespace and the
// system calls the PASSv2 interceptor hooks (execve, fork, exit, read,
// write, mmap, open, pipe, plus drop_inode). The real system patches Linux
// 2.6.23; this reproduction routes the same events through the same
// architectural seam — a Hooks interface standing in for the interceptor —
// so the observer/analyzer/distributor pipeline above it is faithful.
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"passv2/internal/dpapi"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

// Hooks is the interceptor seam. The PASSv2 observer implements it; a nil
// Hooks yields a vanilla kernel (the ext3 baseline in the evaluation).
//
// Read and Write sit *in the data path*, mirroring how the PASSv2 observer
// issues pass_read/pass_write itself so data and provenance move together
// (§5.3). The remaining methods are notifications.
type Hooks interface {
	// Spawn fires when a process is created (fork); parent is nil for
	// the initial process.
	Spawn(p, parent *Process)
	// Exec fires after a process replaces its image. oldRef is the
	// process identity before the exec; binary is the executed file's
	// descriptor-like view (nil if the binary is not on any volume).
	Exec(p *Process, oldRef pnode.Ref, binaryPath string, binary vfs.PassFile, binaryFS vfs.FS)
	// Exit fires when a process exits.
	Exit(p *Process)
	// Open fires after a successful file open.
	Open(p *Process, fd *FD)
	// Read performs a provenance-aware read of a regular file.
	Read(p *Process, fd *FD, buf []byte, off int64) (int, error)
	// Write performs a provenance-aware write of a regular file.
	Write(p *Process, fd *FD, data []byte, off int64) (int, error)
	// PipeRead / PipeWrite fire after pipe transfers.
	PipeRead(p *Process, pipe *Pipe, n int)
	PipeWrite(p *Process, pipe *Pipe, n int)
	// Mmap fires on memory mapping; writable reports PROT_WRITE.
	Mmap(p *Process, fd *FD, writable bool)
	// Rename fires after a successful rename so the observer can refresh
	// the object's NAME record (provenance follows the file, §3.2).
	Rename(p *Process, fs vfs.FS, oldPath, newPath string)
	// DropInode fires when a file's last link is removed (the kernel
	// drop_inode operation the interceptor watches).
	DropInode(fs vfs.FS, path string, st vfs.Stat)
	// Disclose is the DPAPI entry point (§5.3): a provenance-aware
	// application sends an explicit bundle, optionally with data, to a
	// descriptor. The observer augments and forwards it.
	Disclose(p *Process, fd *FD, data []byte, off int64, b *record.Bundle) (int, error)
	// PassRead performs a provenance-aware read returning the exact
	// identity of what was read (the user-level pass_read).
	PassRead(p *Process, fd *FD, buf []byte, off int64) (int, pnode.Ref, error)
	// Mkobj creates a phantom object on behalf of a process. volumePath
	// hints which PASS volume should eventually store its provenance
	// ("" = choose when it joins persistent ancestry).
	Mkobj(p *Process, volumePath string) (dpapi.Object, error)
	// Revive returns a handle to a previously created phantom object.
	Revive(p *Process, ref pnode.Ref) (dpapi.Object, error)
}

// Pid identifies a process.
type Pid int

// Kernel is the simulated operating system.
type Kernel struct {
	Mounts *vfs.MountTable
	Clock  *vfs.Clock

	hooks Hooks
	// Transient-object pnode space (processes, pipes, non-PASS files).
	pnodes *pnode.Allocator

	// CPUCost converts a unit of simulated computation into clock time;
	// Process.Compute uses it.
	CPUCost time.Duration

	mu      sync.Mutex
	nextPid Pid
	procs   map[Pid]*Process
}

// New creates a kernel with an empty mount namespace.
func New(clock *vfs.Clock) *Kernel {
	return &Kernel{
		Mounts:  vfs.NewMountTable(),
		Clock:   clock,
		pnodes:  pnode.NewPrefixed(0xFFFF), // transient space, never collides with volumes
		procs:   make(map[Pid]*Process),
		CPUCost: 100 * time.Nanosecond, // ~3GHz P4 doing ~10 ops per unit
	}
}

// SetHooks installs the interceptor/observer. Must be called before
// processes are spawned.
func (k *Kernel) SetHooks(h Hooks) { k.hooks = h }

// AllocTransient allocates a pnode in the kernel's transient space.
func (k *Kernel) AllocTransient() pnode.Ref {
	return pnode.Ref{PNode: k.pnodes.Next(), Version: 1}
}

// Mount attaches a file system into the namespace.
func (k *Kernel) Mount(prefix string, fs vfs.FS) { k.Mounts.Mount(prefix, fs) }

// Resolve maps an absolute path to its volume.
func (k *Kernel) Resolve(path string) (vfs.FS, string, error) {
	return k.Mounts.Resolve(path)
}

// Process is a simulated process: a first-class provenance object.
type Process struct {
	k *Kernel

	Pid  Pid
	Name string
	Argv []string
	Env  []string

	mu     sync.Mutex
	ref    pnode.Ref // provenance identity; replaced on exec
	cwd    string
	fds    map[int]*FD
	nextFd int
	exited bool
}

// Spawn creates a process as a child of parent (nil for the first
// process). The returned process has exec'd name already (convenience for
// spawn-then-exec, the common pattern in the workloads).
func (k *Kernel) Spawn(parent *Process, name string, argv, env []string) *Process {
	k.mu.Lock()
	k.nextPid++
	p := &Process{
		k:    k,
		Pid:  k.nextPid,
		Name: name,
		Argv: argv,
		Env:  env,
		ref:  k.AllocTransient(),
		cwd:  "/",
		fds:  make(map[int]*FD),
	}
	if parent != nil {
		p.cwd = parent.cwd
	}
	k.procs[p.Pid] = p
	k.mu.Unlock()
	if k.hooks != nil {
		k.hooks.Spawn(p, parent)
	}
	return p
}

// Processes returns a snapshot of live processes.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

// Ref returns the process's current provenance identity.
func (p *Process) Ref() pnode.Ref {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ref
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Cwd returns the current working directory.
func (p *Process) Cwd() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd
}

// Chdir changes the working directory.
func (p *Process) Chdir(path string) error {
	abs := p.Abs(path)
	fs, rel, err := p.k.Resolve(abs)
	if err != nil {
		return err
	}
	st, err := fs.Stat(rel)
	if err != nil {
		return err
	}
	if !st.IsDir {
		return vfs.ErrNotDir
	}
	p.mu.Lock()
	p.cwd = abs
	p.mu.Unlock()
	return nil
}

// Abs resolves path against the process cwd.
func (p *Process) Abs(path string) string {
	if len(path) > 0 && path[0] == '/' {
		return vfs.Clean(path)
	}
	p.mu.Lock()
	cwd := p.cwd
	p.mu.Unlock()
	return vfs.Join(cwd, path)
}

// Fork creates a child process inheriting name, argv, env and cwd. Open
// descriptors are not inherited (the workloads do not need it, and it
// keeps pipe lifetime tractable); pass descriptors explicitly instead.
func (p *Process) Fork() *Process {
	return p.k.Spawn(p, p.Name, p.Argv, p.Env)
}

// Exec replaces the process image: the process gets a fresh provenance
// identity descending from both the old identity and the binary.
func (p *Process) Exec(binPath string, argv, env []string) error {
	if p.isExited() {
		return errExited
	}
	abs := p.Abs(binPath)
	fs, rel, err := p.k.Resolve(abs)
	var passBin vfs.PassFile
	var binFS vfs.FS
	if err == nil {
		binFS = fs
		if pfs, ok := fs.(vfs.PassFS); ok {
			if f, oerr := pfs.Open(rel, vfs.ORdOnly); oerr == nil {
				if pf, ok := f.(vfs.PassFile); ok {
					passBin = pf
				} else {
					f.Close()
				}
			}
		}
	}
	p.mu.Lock()
	oldRef := p.ref
	p.ref = p.k.AllocTransient()
	p.Name = vfs.Base(abs)
	p.Argv = argv
	p.Env = env
	p.mu.Unlock()
	if p.k.hooks != nil {
		p.k.hooks.Exec(p, oldRef, abs, passBin, binFS)
	}
	if passBin != nil {
		passBin.Close()
	}
	return nil
}

var errExited = errors.New("kernel: process has exited")

func (p *Process) isExited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// Exit terminates the process, closing its descriptors.
func (p *Process) Exit() {
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return
	}
	p.exited = true
	fds := make([]*FD, 0, len(p.fds))
	for _, fd := range p.fds {
		fds = append(fds, fd)
	}
	p.fds = map[int]*FD{}
	p.mu.Unlock()
	for _, fd := range fds {
		p.closeFD(fd)
	}
	if p.k.hooks != nil {
		p.k.hooks.Exit(p)
	}
	p.k.mu.Lock()
	delete(p.k.procs, p.Pid)
	p.k.mu.Unlock()
}

// Compute charges units of CPU work to the simulated clock. Workloads use
// it to model computation (compilation, BLAST scoring, plotting).
func (p *Process) Compute(units int64) {
	if p.k.Clock != nil && units > 0 {
		p.k.Clock.Advance(time.Duration(units) * p.k.CPUCost)
	}
}

// installFD registers an fd with the process.
func (p *Process) installFD(fd *FD) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	num := p.nextFd
	p.nextFd++
	fd.Num = num
	p.fds[num] = fd
	return num
}

// FDGet looks up a descriptor.
func (p *Process) FDGet(num int) (*FD, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fd, ok := p.fds[num]
	if !ok {
		return nil, ErrBadFD
	}
	if fd.closed {
		return nil, ErrClosedFD
	}
	return fd, nil
}

// Open opens path with flags, returning a descriptor number.
func (p *Process) Open(path string, flags vfs.Flags) (int, error) {
	if p.isExited() {
		return -1, errExited
	}
	abs := p.Abs(path)
	fs, rel, err := p.k.Resolve(abs)
	if err != nil {
		return -1, err
	}
	f, err := fs.Open(rel, flags)
	if err != nil {
		return -1, fmt.Errorf("open %s: %w", abs, err)
	}
	fd := &FD{Kind: FDFile, Path: abs, Flags: flags, file: f}
	if pf, ok := f.(vfs.PassFile); ok {
		fd.pass = pf
	}
	if flags&vfs.OAppend != 0 {
		fd.offset = f.Size()
	}
	num := p.installFD(fd)
	if p.k.hooks != nil {
		p.k.hooks.Open(p, fd)
	}
	return num, nil
}

// Close closes a descriptor.
func (p *Process) Close(num int) error {
	p.mu.Lock()
	fd, ok := p.fds[num]
	if ok {
		delete(p.fds, num)
	}
	p.mu.Unlock()
	if !ok {
		return ErrBadFD
	}
	return p.closeFD(fd)
}

func (p *Process) closeFD(fd *FD) error {
	if fd.closed {
		return ErrClosedFD
	}
	fd.closed = true
	switch fd.Kind {
	case FDFile:
		return fd.file.Close()
	case FDPipeRead:
		fd.pipe.closeRead()
	case FDPipeWrite:
		fd.pipe.closeWrite()
	case FDPassObj:
		return fd.pass.Close()
	}
	return nil
}

// Read reads from a descriptor at its current offset.
func (p *Process) Read(num int, buf []byte) (int, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	switch fd.Kind {
	case FDFile, FDPassObj:
		n, err := p.pread(fd, buf, fd.offset)
		fd.offset += int64(n)
		return n, err
	case FDPipeRead:
		n, err := fd.pipe.read(buf)
		if n > 0 && p.k.hooks != nil {
			p.k.hooks.PipeRead(p, fd.pipe, n)
		}
		return n, err
	default:
		return 0, ErrNotFile
	}
}

// Pread reads at an explicit offset without moving the descriptor offset.
func (p *Process) Pread(num int, buf []byte, off int64) (int, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	if fd.Kind != FDFile && fd.Kind != FDPassObj {
		return 0, ErrNotFile
	}
	return p.pread(fd, buf, off)
}

func (p *Process) pread(fd *FD, buf []byte, off int64) (int, error) {
	if p.k.hooks != nil {
		return p.k.hooks.Read(p, fd, buf, off)
	}
	return fd.file.ReadAt(buf, off)
}

// Write writes to a descriptor at its current offset.
func (p *Process) Write(num int, data []byte) (int, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	switch fd.Kind {
	case FDFile, FDPassObj:
		if fd.Flags&vfs.OAppend != 0 {
			fd.offset = fd.file.Size()
		}
		n, err := p.pwrite(fd, data, fd.offset)
		fd.offset += int64(n)
		return n, err
	case FDPipeWrite:
		n, err := fd.pipe.write(data)
		if n > 0 && p.k.hooks != nil {
			p.k.hooks.PipeWrite(p, fd.pipe, n)
		}
		return n, err
	default:
		return 0, ErrNotFile
	}
}

// Pwrite writes at an explicit offset without moving the descriptor
// offset.
func (p *Process) Pwrite(num int, data []byte, off int64) (int, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	if fd.Kind != FDFile && fd.Kind != FDPassObj {
		return 0, ErrNotFile
	}
	return p.pwrite(fd, data, off)
}

func (p *Process) pwrite(fd *FD, data []byte, off int64) (int, error) {
	if !fd.Flags.MayWrite() {
		return 0, vfs.ErrReadOnly
	}
	if p.k.hooks != nil {
		return p.k.hooks.Write(p, fd, data, off)
	}
	return fd.file.WriteAt(data, off)
}

// Seek sets the descriptor offset. Whence: 0 absolute, 1 relative, 2 from
// end.
func (p *Process) Seek(num int, off int64, whence int) (int64, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	if fd.Kind != FDFile && fd.Kind != FDPassObj {
		return 0, ErrNotFile
	}
	switch whence {
	case 0:
		fd.offset = off
	case 1:
		fd.offset += off
	case 2:
		fd.offset = fd.file.Size() + off
	default:
		return 0, vfs.ErrInvalid
	}
	if fd.offset < 0 {
		fd.offset = 0
		return 0, vfs.ErrInvalid
	}
	return fd.offset, nil
}

// Pipe creates a pipe, returning (readFd, writeFd).
func (p *Process) Pipe() (int, int, error) {
	if p.isExited() {
		return -1, -1, errExited
	}
	pipe := newPipe(p.k.AllocTransient())
	r := &FD{Kind: FDPipeRead, pipe: pipe, Flags: vfs.ORdOnly}
	w := &FD{Kind: FDPipeWrite, pipe: pipe, Flags: vfs.OWrOnly}
	rn := p.installFD(r)
	wn := p.installFD(w)
	return rn, wn, nil
}

// GiveFD transfers a descriptor to another process (models inherited pipe
// ends across fork in the shell-pipeline workloads).
func (p *Process) GiveFD(num int, to *Process) (int, error) {
	p.mu.Lock()
	fd, ok := p.fds[num]
	if ok {
		delete(p.fds, num)
	}
	p.mu.Unlock()
	if !ok {
		return -1, ErrBadFD
	}
	return to.installFD(fd), nil
}

// Mmap maps a file; provenance-wise a readable mapping is a read
// dependency and a writable mapping a write dependency (§5.3 intercepts
// mmap).
func (p *Process) Mmap(num int, writable bool) error {
	fd, err := p.FDGet(num)
	if err != nil {
		return err
	}
	if fd.Kind != FDFile {
		return ErrNotFile
	}
	if p.k.hooks != nil {
		p.k.hooks.Mmap(p, fd, writable)
	}
	return nil
}

// Mkdir / MkdirAll / ReadDir / Stat / Rename / Remove are namespace
// syscalls; they resolve through the mount table.

// Mkdir creates a directory.
func (p *Process) Mkdir(path string) error {
	fs, rel, err := p.k.Resolve(p.Abs(path))
	if err != nil {
		return err
	}
	return fs.Mkdir(rel)
}

// MkdirAll creates a directory and any missing parents.
func (p *Process) MkdirAll(path string) error {
	fs, rel, err := p.k.Resolve(p.Abs(path))
	if err != nil {
		return err
	}
	return fs.MkdirAll(rel)
}

// ReadDir lists a directory.
func (p *Process) ReadDir(path string) ([]vfs.DirEnt, error) {
	fs, rel, err := p.k.Resolve(p.Abs(path))
	if err != nil {
		return nil, err
	}
	return fs.ReadDir(rel)
}

// Stat describes a file.
func (p *Process) Stat(path string) (vfs.Stat, error) {
	fs, rel, err := p.k.Resolve(p.Abs(path))
	if err != nil {
		return vfs.Stat{}, err
	}
	return fs.Stat(rel)
}

// Rename renames within one mount.
func (p *Process) Rename(oldPath, newPath string) error {
	absOld, absNew := p.Abs(oldPath), p.Abs(newPath)
	fsOld, relOld, err := p.k.Resolve(absOld)
	if err != nil {
		return err
	}
	fsNew, relNew, err := p.k.Resolve(absNew)
	if err != nil {
		return err
	}
	if fsOld != fsNew {
		return vfs.ErrCrossMount
	}
	if err := fsOld.Rename(relOld, relNew); err != nil {
		return err
	}
	if p.k.hooks != nil {
		p.k.hooks.Rename(p, fsOld, absOld, absNew)
	}
	return nil
}

// Remove unlinks a path, firing DropInode when the last link goes.
func (p *Process) Remove(path string) error {
	abs := p.Abs(path)
	fs, rel, err := p.k.Resolve(abs)
	if err != nil {
		return err
	}
	st, serr := fs.Stat(rel)
	if err := fs.Remove(rel); err != nil {
		return err
	}
	if serr == nil && !st.IsDir && st.Nlink <= 1 && p.k.hooks != nil {
		p.k.hooks.DropInode(fs, abs, st)
	}
	return nil
}

// Truncate truncates an open descriptor's file.
func (p *Process) Truncate(num int, size int64) error {
	fd, err := p.FDGet(num)
	if err != nil {
		return err
	}
	if fd.Kind != FDFile {
		return ErrNotFile
	}
	return fd.file.Truncate(size)
}

// --- DPAPI syscalls (libpass, §5.1: libpass exports the DPAPI to
// user-level; the observer is the entry point, §5.3) ---

// PassWriteFd discloses a provenance bundle, with optional data, through a
// descriptor. This is the user-level pass_write.
func (p *Process) PassWriteFd(num int, data []byte, b *record.Bundle) (int, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	if fd.Kind != FDFile && fd.Kind != FDPassObj {
		return 0, ErrNotFile
	}
	if p.k.hooks == nil {
		return 0, dpapi.ErrNotPassVolume
	}
	if fd.Flags&vfs.OAppend != 0 && fd.file != nil {
		fd.offset = fd.file.Size()
	}
	n, err := p.k.hooks.Disclose(p, fd, data, fd.offset, b)
	fd.offset += int64(n)
	return n, err
}

// PassReadFd is the user-level pass_read: read data plus the exact
// identity of what was read.
func (p *Process) PassReadFd(num int, buf []byte) (int, pnode.Ref, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, pnode.Ref{}, err
	}
	if fd.pass == nil {
		return 0, pnode.Ref{}, dpapi.ErrNotPassVolume
	}
	var n int
	var ref pnode.Ref
	if p.k.hooks != nil {
		n, ref, err = p.k.hooks.PassRead(p, fd, buf, fd.offset)
	} else {
		n, ref, err = fd.pass.PassRead(buf, fd.offset)
	}
	fd.offset += int64(n)
	return n, ref, err
}

// PassFreezeFd is the user-level pass_freeze.
func (p *Process) PassFreezeFd(num int) (pnode.Version, error) {
	fd, err := p.FDGet(num)
	if err != nil {
		return 0, err
	}
	if fd.pass == nil {
		return 0, dpapi.ErrNotPassVolume
	}
	return fd.pass.PassFreeze()
}

// PassSyncFd is the user-level pass_sync.
func (p *Process) PassSyncFd(num int) error {
	fd, err := p.FDGet(num)
	if err != nil {
		return err
	}
	if fd.pass == nil {
		return dpapi.ErrNotPassVolume
	}
	return fd.pass.PassSync()
}

// PassMkobj creates a phantom object (user-level pass_mkobj). volumePath
// hints the PASS volume that should store its provenance.
func (p *Process) PassMkobj(volumePath string) (dpapi.Object, error) {
	if p.k.hooks == nil {
		return nil, dpapi.ErrNotPassVolume
	}
	return p.k.hooks.Mkobj(p, volumePath)
}

// PassReviveObj revives a phantom object (user-level pass_reviveobj).
func (p *Process) PassReviveObj(ref pnode.Ref) (dpapi.Object, error) {
	if p.k.hooks == nil {
		return nil, dpapi.ErrNotPassVolume
	}
	return p.k.hooks.Revive(p, ref)
}

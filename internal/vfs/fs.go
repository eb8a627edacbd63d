package vfs

import (
	"errors"
	"io"
	gopath "path"
	"strings"

	"passv2/internal/pnode"
	"passv2/internal/record"
)

// Errors returned by file systems.
var (
	ErrNotExist   = errors.New("vfs: no such file or directory")
	ErrExist      = errors.New("vfs: file exists")
	ErrIsDir      = errors.New("vfs: is a directory")
	ErrNotDir     = errors.New("vfs: not a directory")
	ErrNotEmpty   = errors.New("vfs: directory not empty")
	ErrInvalid    = errors.New("vfs: invalid argument")
	ErrReadOnly   = errors.New("vfs: read-only")
	ErrCrossMount = errors.New("vfs: rename across mount points")
)

// Open flags, a subset of POSIX.
type Flags uint32

const (
	ORdOnly Flags = 0
	OWrOnly Flags = 1 << iota
	ORdWr
	OCreate
	OTrunc
	OAppend
	OExcl
)

// MayWrite reports whether the open flags permit writing.
func (f Flags) MayWrite() bool { return f&(OWrOnly|ORdWr|OAppend|OTrunc) != 0 }

// Stat describes a file or directory.
type Stat struct {
	Ino   uint64
	Size  int64
	IsDir bool
	Nlink int
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name  string
	IsDir bool
	Ino   uint64
}

// File is an open file handle.
type File interface {
	io.Closer
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Size() int64
	Ino() uint64
	Sync() error
}

// FS is the virtual file system interface. Paths are slash-separated and
// relative to the FS root ("" or "/" is the root directory). All
// implementations must be safe for concurrent use.
type FS interface {
	FSName() string
	Open(path string, flags Flags) (File, error)
	Mkdir(path string) error
	MkdirAll(path string) error
	ReadDir(path string) ([]DirEnt, error)
	Stat(path string) (Stat, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	Sync() error
}

// PassFile extends File with the DPAPI inode operations (§5.6: Lasagna
// implements pass_read, pass_write and pass_freeze as inode operations).
type PassFile interface {
	File
	Ref() pnode.Ref
	PassRead(p []byte, off int64) (int, pnode.Ref, error)
	PassWrite(p []byte, off int64, b *record.Bundle) (int, error)
	PassFreeze() (pnode.Version, error)
	PassSync() error
}

// PassFS extends FS with the DPAPI superblock operations (pass_mkobj and
// pass_reviveobj). A file system that implements PassFS is a PASS-enabled
// volume; files it opens implement PassFile.
type PassFS interface {
	FS
	PassMkobj() (PassFile, error)
	PassReviveObj(ref pnode.Ref) (PassFile, error)
	// VolumeID distinguishes PASS volumes for the distributor.
	VolumeID() uint16
}

// IsPass reports whether fs is a PASS-enabled volume.
func IsPass(fs FS) bool {
	_, ok := fs.(PassFS)
	return ok
}

// Clean canonicalizes a path: slash-separated, no trailing slash, always
// starting with "/".
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return gopath.Clean(p)
}

// Split returns the directory and base of a cleaned path.
func Split(p string) (dir, base string) {
	p = Clean(p)
	if p == "/" {
		return "/", ""
	}
	dir, base = gopath.Split(p)
	if dir != "/" {
		dir = strings.TrimSuffix(dir, "/")
	}
	return dir, base
}

// Base returns the last element of the path.
func Base(p string) string { return gopath.Base(Clean(p)) }

// Join joins path elements and cleans the result.
func Join(elems ...string) string { return Clean(gopath.Join(elems...)) }

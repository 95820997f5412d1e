// Package vfs implements a POSIX-like virtual file system over simulated
// storage devices. It provides the syscall surface that the TensorFlow-like
// runtime calls through the simulated dynamic linker's GOT (and that
// tf-Darshan redirects to Darshan wrappers), plus a libc-style STDIO layer
// with user-space buffering.
//
// Caching model: the paper drops the page cache before every benchmark and
// runs a single epoch, so every file is cold exactly once. The VFS mirrors
// that: the first open of a file charges cold metadata I/O to the
// device; afterwards metadata is cached in memory. Data reads always hit
// the device (each file's data is read once per epoch) unless a node-local
// data cache (NodeCache) holds the file.
//
// Multi-node model: one FS can back several compute nodes sharing the same
// devices (a cluster on one parallel file system). Metadata caching is
// client-side state, so warm/cold is tracked per node: a file warmed by
// node A is still cold for node B, which pays its own metadata RPC on
// first touch. Each node issues syscalls through its View (NodeView);
// plain FS methods are the single-node surface, identical to node 0's
// view.
package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"sort"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Errors returned by VFS operations, mirroring their errno counterparts.
var (
	ErrNotExist  = errors.New("vfs: no such file or directory") // ENOENT
	ErrExist     = errors.New("vfs: file exists")               // EEXIST
	ErrBadFD     = errors.New("vfs: bad file descriptor")       // EBADF
	ErrWriteOnly = errors.New("vfs: file not open for reading") // EBADF on read
	ErrNoMount   = errors.New("vfs: no mount for path")
	ErrInvalid   = errors.New("vfs: invalid argument")   // EINVAL
	ErrIO        = errors.New("vfs: input/output error") // EIO (transient)
	ErrNoSpace   = errors.New("vfs: no space on device") // ENOSPC
)

// Open flags (subset of fcntl.h).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
)

// syscallCPU is the fixed CPU cost charged per syscall entry (trap + vfs
// path, excluding device time): a typical Linux syscall entry.
const syscallCPU = 1200 * sim.Nanosecond

// MaxNodes bounds the number of compute nodes one FS can back: per-node
// warm-metadata state is a bitmask per inode, so the bound is the word
// width. Far above any rank count the simulated clusters run.
const MaxNodes = 64

// FS is a virtual file system with one or more mounted devices.
type FS struct {
	mounts  []*Mount
	inodes  map[string]*Inode
	dirs    map[string]*dirState
	fds     map[int]*openFile
	nextFD  int
	nextIno int64
	// caches holds the per-node data caches (nil when a node has none),
	// indexed by node id.
	caches []*NodeCache
	// faults, when non-nil, is the armed transient-fault plan (fault.go).
	faults *faultState
}

// Mount binds a path prefix to a device with its metadata-cost policy.
type Mount struct {
	Prefix string
	Dev    storage.Device
	// OpenMetaTrips is the average number of cold device metadata reads
	// charged per first open of a file (fractional values amortize, e.g.
	// 1/16 models 16 inodes per cached inode-table block).
	OpenMetaTrips float64
	// DirMetaTrips is charged once per directory on first lookup.
	DirMetaTrips float64

	cursor int64 // allocation cursor (device position)
	// metaAcc/dirAcc amortize fractional trip counts per node (metadata
	// caching is client state, so each node accumulates independently).
	metaAcc []float64
	dirAcc  []float64
}

// nodeSlot returns the node's slot of a per-node slice, growing the
// slice with zero values on demand.
func nodeSlot[T any](s *[]T, node int) *T {
	if len(*s) <= node {
		*s = append(*s, make([]T, node+1-len(*s))...)
	}
	return &(*s)[node]
}

type dirState struct {
	warm nodeSet // per-node: directory entry cached client-side
}

// nodeSet is a per-node bit set (metadata warm state, one bit per node).
type nodeSet uint64

func (s nodeSet) has(node int) bool { return s&(1<<uint(node)) != 0 }

func (s *nodeSet) add(node int) { *s |= 1 << uint(node) }

// checkNode validates a node id against the bitmask width.
func checkNode(node int) {
	if node < 0 || node >= MaxNodes {
		panic(fmt.Sprintf("vfs: node %d out of range [0,%d)", node, MaxNodes))
	}
}

// Inode is an in-memory file record.
type Inode struct {
	Path   string
	Ino    int64
	Size   int64
	Extent int64 // device position of the file's data
	Mnt    *Mount

	warm  nodeSet // per-node: metadata cached (first open done)
	alloc bool    // extent assigned
	seed  int64   // procedural content seed
}

type openFile struct {
	inode  *Inode
	node   int // node whose libc opened the descriptor
	flags  int
	closed bool
}

// New returns an empty file system.
func New() *FS {
	return &FS{
		inodes: make(map[string]*Inode),
		dirs:   make(map[string]*dirState),
		fds:    make(map[int]*openFile),
		nextFD: 3, // 0..2 reserved, as on Unix
	}
}

// AddMount mounts dev under prefix. Longest-prefix match wins on lookup.
func (fs *FS) AddMount(m *Mount) *Mount {
	if m.Dev == nil || m.Prefix == "" {
		panic("vfs: invalid mount")
	}
	m.Prefix = path.Clean(m.Prefix)
	fs.mounts = append(fs.mounts, m)
	sort.Slice(fs.mounts, func(i, j int) bool {
		return len(fs.mounts[i].Prefix) > len(fs.mounts[j].Prefix)
	})
	return m
}

// MountFor returns the mount owning p.
func (fs *FS) MountFor(p string) (*Mount, error) {
	p = path.Clean(p)
	for _, m := range fs.mounts {
		if p == m.Prefix || (len(p) > len(m.Prefix) && p[:len(m.Prefix)] == m.Prefix && p[len(m.Prefix)] == '/') {
			return m, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoMount, p)
}

// CreateFile populates the namespace with a file of the given size at
// simulation-setup time (no virtual time passes). The extent is allocated
// contiguously in creation order, matching a dataset copied onto a fresh
// file system.
func (fs *FS) CreateFile(p string, size int64) (*Inode, error) {
	p = path.Clean(p)
	if _, ok := fs.inodes[p]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, p)
	}
	m, err := fs.MountFor(p)
	if err != nil {
		return nil, err
	}
	ino := fs.newInode(p, m)
	ino.Size = size
	fs.allocExtent(ino, size)
	return ino, nil
}

func (fs *FS) newInode(p string, m *Mount) *Inode {
	fs.nextIno++
	ino := &Inode{
		Path: p,
		Ino:  fs.nextIno,
		Mnt:  m,
		seed: fs.nextIno * int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF),
	}
	fs.inodes[p] = ino
	dir := path.Dir(p)
	if _, ok := fs.dirs[dir]; !ok {
		fs.dirs[dir] = &dirState{}
	}
	return ino
}

// allocExtent assigns a contiguous device extent to ino.
func (fs *FS) allocExtent(ino *Inode, size int64) {
	if size < 0 {
		size = 0
	}
	ino.Extent = ino.Mnt.cursor
	ino.Mnt.cursor += size
	if ino.Mnt.cursor > ino.Mnt.Dev.Capacity() {
		panic(fmt.Sprintf("vfs: device %s full", ino.Mnt.Dev.Name()))
	}
	ino.alloc = true
}

// Lookup returns the inode for p without charging any simulated I/O.
func (fs *FS) Lookup(p string) (*Inode, bool) {
	ino, ok := fs.inodes[path.Clean(p)]
	return ino, ok
}

// Files returns all file paths in deterministic (sorted) order.
func (fs *FS) Files() []string {
	out := make([]string, 0, len(fs.inodes))
	for p := range fs.inodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the sum of all file sizes under prefix ("" = all).
func (fs *FS) TotalBytes(prefix string) int64 {
	var total int64
	for p, ino := range fs.inodes {
		if prefix == "" || hasPathPrefix(p, prefix) {
			total += ino.Size
		}
	}
	return total
}

func hasPathPrefix(p, prefix string) bool {
	prefix = path.Clean(prefix)
	p = path.Clean(p)
	return p == prefix || (len(p) > len(prefix) && p[:len(prefix)] == prefix && p[len(prefix)] == '/')
}

// Migrate moves a file's data to another mount (the staging operation of
// paper Fig. 11b). Performed at setup time between runs — no simulated time
// passes, matching the paper's manual pre-run `mv` to the Optane tier.
// The path is preserved; only the backing extent moves.
func (fs *FS) Migrate(p string, dst *Mount) error {
	ino, ok := fs.inodes[path.Clean(p)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if ino.Mnt == dst {
		return nil
	}
	ino.Mnt = dst
	fs.allocExtent(ino, ino.Size) // enforces dst capacity like any allocation
	ino.warm = 0                  // fresh tier: metadata cold again on every node
	return nil
}

// contentMul is the per-byte stride of the procedural content generator:
// byte i of a file is byte((seed + i*contentMul) >> 16).
const contentMul = 1103515245

// fillContent fills buf with the file's bytes at off. Every file's bytes
// are procedural and deterministic, written ranges included (writes are
// counted, not stored), so content round-trips are checkable without
// materializing multi-GB datasets. Generation is word-wise — eight bytes
// assembled per stored uint64, with the multiply strength-reduced to a
// running addition (exact under two's-complement wraparound) — instead of
// one multiply per byte.
func (ino *Inode) fillContent(buf []byte, off int64) {
	x := ino.seed + off*contentMul
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x0, x1, x2, x3 := x, x+contentMul, x+2*contentMul, x+3*contentMul
		x4, x5, x6, x7 := x+4*contentMul, x+5*contentMul, x+6*contentMul, x+7*contentMul
		w := uint64(byte(x0>>16)) | uint64(byte(x1>>16))<<8 |
			uint64(byte(x2>>16))<<16 | uint64(byte(x3>>16))<<24 |
			uint64(byte(x4>>16))<<32 | uint64(byte(x5>>16))<<40 |
			uint64(byte(x6>>16))<<48 | uint64(byte(x7>>16))<<56
		binary.LittleEndian.PutUint64(buf[i:], w)
		x += 8 * contentMul
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> 16)
		x += contentMul
	}
}

// FNV-1a parameters of the content checksum used by verify-content reads.
const (
	checksumOffset64 = 14695981039346656037
	checksumPrime64  = 1099511628211
)

// ChecksumSeed returns the initial value of a content checksum.
func ChecksumSeed() uint64 { return checksumOffset64 }

// ChecksumUpdate folds b into a running content checksum. Readers in
// verify-content mode feed every materialized buffer through it and compare
// the result against Inode.ContentChecksum over the same range.
func ChecksumUpdate(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * checksumPrime64
	}
	return h
}

// ContentChecksum returns the checksum of the file's bytes in
// [off, off+n), generated directly with no simulated I/O. It is the ground
// truth verify-content reads check their buffers against.
func (ino *Inode) ContentChecksum(off, n int64) uint64 {
	var chunk [64 << 10]byte
	h := ChecksumSeed()
	for n > 0 {
		c := n
		if c > int64(len(chunk)) {
			c = int64(len(chunk))
		}
		ino.fillContent(chunk[:c], off)
		h = ChecksumUpdate(h, chunk[:c])
		off += c
		n -= c
	}
	return h
}

// chargeColdOpen charges node's cold metadata I/O for first-touch of dir
// and inode. Metadata caching is client-side, so each node pays its own
// cold cost; a node whose peer already caches the file's data can resolve
// the inode over the interconnect instead of the backing device (the
// peer-cache metadata serve of the clairvoyant prefetcher).
func (fs *FS) chargeColdOpen(t *sim.Thread, node int, ino *Inode) {
	m := ino.Mnt
	dir := path.Dir(ino.Path)
	ds := fs.dirs[dir]
	if ds != nil && !ds.warm.has(node) {
		ds.warm.add(node)
		acc := nodeSlot(&m.dirAcc, node)
		*acc += m.DirMetaTrips
		for *acc >= 1 {
			fs.chargeMeta(t, m, node, ino.Extent)
			*acc--
		}
	}
	if !ino.warm.has(node) {
		ino.warm.add(node)
		if fs.peerMetaServe(t, node, ino) {
			return
		}
		acc := nodeSlot(&m.metaAcc, node)
		*acc += m.OpenMetaTrips
		for *acc >= 1 {
			// ext4 places inode tables in the file's block group, so the
			// lookup lands near (but not at) the data extent.
			fs.chargeMeta(t, m, node, ino.Extent-64*storage.KiB)
			*acc--
		}
	}
}

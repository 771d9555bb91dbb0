// Pluggable byte-addressed I/O: the seam between the durability layer
// (WAL, page file) and whatever actually persists the bytes. The
// engine's own tests run over MemDisk; the internal/fault package
// wraps any DiskFile with deterministic crash points, torn writes and
// injected I/O errors, which is how recovery is tested at every WAL
// barrier without a real disk or a real kill -9.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// DiskFile is the minimal stable-storage contract the WAL and page
// file are written against. Implementations must be safe for
// concurrent use. Sync is the fsync barrier: a write is only
// crash-durable once a subsequent Sync has returned.
type DiskFile interface {
	// ReadAt reads len(p) bytes at off. Reads entirely past the end
	// return 0, io.EOF-like short counts are reported via n < len(p)
	// with a nil error only at end of file.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes p at off, extending the file as needed.
	WriteAt(p []byte, off int64) (int, error)
	// Sync flushes all completed writes to stable storage.
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
	// Truncate sets the file length.
	Truncate(size int64) error
}

// ErrShortWrite is returned when a DiskFile applied fewer bytes than
// requested (a torn write observed synchronously).
var ErrShortWrite = errors.New("storage: short write")

// MemDisk is an in-memory DiskFile: the simulated stable storage the
// crash tests snapshot and reopen, and the store admsqld serves over.
// Sync is a no-op (memory is always "durable" until the harness says
// otherwise); the fault layer is where sync barriers gain meaning.
//
// The bytes live in fixed-size chunks, so a write costs O(len(p)) no
// matter how long the file already is — an append never copies the
// image it extends — and the allocated capacity beyond the file's
// length stays under one chunk.
type MemDisk struct {
	mu     sync.Mutex
	chunks [][]byte // each memChunk bytes; byte i is chunks[i/memChunk][i%memChunk]
	size   int64
}

// memChunk is MemDisk's allocation unit.
const memChunk = 16 << 10

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// NewMemDiskFrom returns a disk initialised with a copy of data (how
// crash tests reopen a snapshot).
func NewMemDiskFrom(data []byte) *MemDisk {
	d := &MemDisk{}
	d.writeLocked(data, 0)
	return d
}

// ReadAt implements DiskFile.
func (d *MemDisk) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative read offset %d", off)
	}
	return d.readLocked(p, off), nil
}

// readLocked copies the file's bytes from off into p, stopping at the
// end of the file; it returns the count copied.
func (d *MemDisk) readLocked(p []byte, off int64) int {
	n := 0
	for n < len(p) && off < d.size {
		c := d.chunks[off/memChunk][off%memChunk:]
		if rest := d.size - off; int64(len(c)) > rest {
			c = c[:rest]
		}
		k := copy(p[n:], c)
		n += k
		off += int64(k)
	}
	return n
}

// WriteAt implements DiskFile.
func (d *MemDisk) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative write offset %d", off)
	}
	d.writeLocked(p, off)
	return len(p), nil
}

// writeLocked copies p to off, growing the file as needed.
func (d *MemDisk) writeLocked(p []byte, off int64) {
	d.growLocked(off + int64(len(p)))
	for len(p) > 0 {
		k := copy(d.chunks[off/memChunk][off%memChunk:], p)
		p = p[k:]
		off += int64(k)
	}
}

// growLocked extends the file to at least size bytes; new bytes read
// as zeros (fresh chunks are zeroed, and Truncate zeroes the tail it
// cuts from a kept chunk).
func (d *MemDisk) growLocked(size int64) {
	if size <= d.size {
		return
	}
	for int64(len(d.chunks))*memChunk < size {
		d.chunks = append(d.chunks, make([]byte, memChunk))
	}
	d.size = size
}

// Sync implements DiskFile (no-op: memory).
func (d *MemDisk) Sync() error { return nil }

// Size implements DiskFile.
func (d *MemDisk) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size, nil
}

// Truncate implements DiskFile.
func (d *MemDisk) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("storage: negative truncate %d", size)
	}
	if size >= d.size {
		d.growLocked(size)
		return nil
	}
	keep := (size + memChunk - 1) / memChunk
	for i := keep; i < int64(len(d.chunks)); i++ {
		d.chunks[i] = nil
	}
	d.chunks = d.chunks[:keep]
	if r := size % memChunk; r != 0 {
		clear(d.chunks[keep-1][r:])
	}
	d.size = size
	return nil
}

// Bytes returns a copy of the disk contents — the crash-test snapshot
// primitive: capture, truncate to a boundary, reopen, recover.
func (d *MemDisk) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, d.size)
	d.readLocked(out, 0)
	return out
}

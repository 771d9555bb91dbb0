package storage

import (
	"bytes"
	"testing"
)

// pattern returns n bytes whose values depend on their position and
// seed, so a misplaced copy shows up as a mismatch.
func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7) + seed
	}
	return out
}

// readAll reads the whole disk through ReadAt.
func readAll(t *testing.T, d *MemDisk) []byte {
	t.Helper()
	size, err := d.Size()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	n, err := d.ReadAt(out, 0)
	if err != nil || int64(n) != size {
		t.Fatalf("ReadAt whole disk: n=%d err=%v, want %d", n, err, size)
	}
	return out
}

// TestMemDiskCrossChunk writes and reads spans that start, end and lie
// across chunk boundaries, checking every byte against a flat model.
func TestMemDiskCrossChunk(t *testing.T) {
	d := NewMemDisk()
	var model []byte
	write := func(off int, p []byte) {
		t.Helper()
		if n, err := d.WriteAt(p, int64(off)); err != nil || n != len(p) {
			t.Fatalf("WriteAt(%d, %d bytes): n=%d err=%v", off, len(p), n, err)
		}
		if need := off + len(p); need > len(model) {
			model = append(model, make([]byte, need-len(model))...)
		}
		copy(model[off:], p)
	}
	write(0, pattern(100, 1))                      // inside the first chunk
	write(memChunk-10, pattern(30, 2))             // across the first boundary
	write(3*memChunk+5, pattern(2*memChunk+17, 3)) // sparse, spanning three chunks
	write(memChunk, pattern(memChunk, 4))          // exactly one chunk
	write(50, pattern(4*memChunk, 5))              // overwrite across four boundaries
	if got := readAll(t, d); !bytes.Equal(got, model) {
		t.Fatal("disk contents differ from the model")
	}
	for _, span := range [][2]int{{memChunk - 1, 2}, {2*memChunk - 3, memChunk + 6}, {0, len(model)}, {7, 1}} {
		buf := make([]byte, span[1])
		n, err := d.ReadAt(buf, int64(span[0]))
		if err != nil || n != span[1] || !bytes.Equal(buf, model[span[0]:span[0]+span[1]]) {
			t.Fatalf("ReadAt(%d, %d): n=%d err=%v, bytes match=%v", span[0], span[1], n, err,
				bytes.Equal(buf[:n], model[span[0]:span[0]+n]))
		}
	}
}

// TestMemDiskReadPastEnd: a read that starts at or past the end
// returns 0 bytes, one that runs off the end returns the short count,
// both without error.
func TestMemDiskReadPastEnd(t *testing.T) {
	d := NewMemDisk()
	if _, err := d.WriteAt(pattern(memChunk+3, 1), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	for _, off := range []int64{memChunk + 3, memChunk + 4, 5 * memChunk} {
		if n, err := d.ReadAt(buf, off); n != 0 || err != nil {
			t.Fatalf("ReadAt at %d: n=%d err=%v, want 0, nil", off, n, err)
		}
	}
	if n, err := d.ReadAt(buf, memChunk-2); n != 5 || err != nil {
		t.Fatalf("ReadAt off the end: n=%d err=%v, want 5, nil", n, err)
	}
	if _, err := d.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset read succeeded")
	}
	if _, err := NewMemDisk().ReadAt(buf, 0); err != nil {
		t.Fatalf("read of an empty disk: %v", err)
	}
}

// TestMemDiskTruncateThenExtend: bytes cut by Truncate read as zeros
// when the file grows again, by a later write past them or by a
// growing Truncate.
func TestMemDiskTruncateThenExtend(t *testing.T) {
	for _, cut := range []int64{0, 1, memChunk - 1, memChunk, memChunk + 1, 2*memChunk + 100} {
		d := NewMemDisk()
		full := pattern(3*memChunk, 9)
		if _, err := d.WriteAt(full, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		if size, _ := d.Size(); size != cut {
			t.Fatalf("cut %d: size %d after truncate", cut, size)
		}
		// Grow by writing one byte at the old end, then by Truncate.
		if _, err := d.WriteAt([]byte{0xAB}, 3*memChunk-1); err != nil {
			t.Fatal(err)
		}
		if err := d.Truncate(4 * memChunk); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 4*memChunk)
		copy(want, full[:cut])
		want[3*memChunk-1] = 0xAB
		if got := readAll(t, d); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: extended disk does not read zeros past the cut", cut)
		}
	}
	if err := NewMemDisk().Truncate(-1); err == nil {
		t.Fatal("negative truncate succeeded")
	}
}

// TestMemDiskBytesRoundTrip: Bytes is a private copy, and
// NewMemDiskFrom of it reopens an identical disk whose writes do not
// reach the snapshot.
func TestMemDiskBytesRoundTrip(t *testing.T) {
	d := NewMemDisk()
	if _, err := d.WriteAt(pattern(2*memChunk+333, 4), 17); err != nil {
		t.Fatal(err)
	}
	snap := d.Bytes()
	if want := readAll(t, d); !bytes.Equal(snap, want) {
		t.Fatal("Bytes differs from the disk contents")
	}
	re := NewMemDiskFrom(snap)
	if got := readAll(t, re); !bytes.Equal(got, snap) {
		t.Fatal("NewMemDiskFrom(Bytes()) differs from the snapshot")
	}
	if _, err := re.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{4, 5, 6}, 1); err != nil {
		t.Fatal(err)
	}
	if snap[0] != 0 || snap[1] != 0 {
		t.Fatal("a write through a disk reached the Bytes snapshot")
	}
	if got := NewMemDiskFrom(nil).Bytes(); len(got) != 0 {
		t.Fatalf("empty round trip has %d bytes", len(got))
	}
}

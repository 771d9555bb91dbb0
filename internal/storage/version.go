// Versioned records: the MVCC record format layered over the plain
// tuple encoding. A stored record is either a plain EncodeTuple image
// (pre-MVCC, and what the legacy path writes to a volatile heap) or a
// versioned image: a u16 marker that cannot collide with a field
// count, then the creating and deleting transaction ids, then the
// plain encoding. Version detection is per record, so plain and
// versioned records coexist on one page and every legacy decode path
// (DecodeTuple, RecordFields, DecodeTupleInto) remains version-blind:
// it skips the header and returns the payload tuple.
package storage

import (
	"encoding/binary"
	"fmt"
)

// versionMarker heads a versioned record. A plain record starts with
// its u16 field count, and a 4 KiB page cannot hold 0xFFFF fields, so
// the marker is unambiguous.
const versionMarker = 0xFFFF

// versionHeaderSize: u16 marker | u64 xmin | u64 xmax.
const versionHeaderSize = 18

// Version is a record's MVCC header: Xmin is the transaction that
// created the version, Xmax the transaction that deleted it (0 = not
// deleted). Plain records carry the zero Version — created before
// every snapshot, deleted by none — so every Visibility must report
// Version{} visible.
type Version struct {
	Xmin, Xmax uint64
}

// Versioned reports whether the version came from an explicit MVCC
// header rather than a plain record.
func (v Version) Versioned() bool { return v.Xmin != 0 || v.Xmax != 0 }

// Visibility decides whether a record version is visible to a reader
// — the snapshot closure the transaction layer threads through scans.
// It must be safe for concurrent use (parallel scan workers share
// one) and must report the zero Version visible.
type Visibility func(Version) bool

// EncodeVersionedTuple serialises a tuple with an MVCC header.
func EncodeVersionedTuple(t Tuple, v Version) []byte {
	body := EncodeTuple(t)
	buf := make([]byte, versionHeaderSize+len(body))
	binary.BigEndian.PutUint16(buf[0:2], versionMarker)
	binary.BigEndian.PutUint64(buf[2:10], v.Xmin)
	binary.BigEndian.PutUint64(buf[10:18], v.Xmax)
	copy(buf[versionHeaderSize:], body)
	return buf
}

// recordParts splits a stored record into its plain tuple encoding
// and its version (zero for plain records).
func recordParts(b []byte) ([]byte, Version, error) {
	if len(b) < 2 {
		return nil, Version{}, fmt.Errorf("%w: short header", ErrCorruptRecord)
	}
	if binary.BigEndian.Uint16(b) != versionMarker {
		return b, Version{}, nil
	}
	if len(b) < versionHeaderSize+2 {
		return nil, Version{}, fmt.Errorf("%w: short version header", ErrCorruptRecord)
	}
	v := Version{
		Xmin: binary.BigEndian.Uint64(b[2:10]),
		Xmax: binary.BigEndian.Uint64(b[10:18]),
	}
	return b[versionHeaderSize:], v, nil
}

// RecordVersion reads a stored record's version without decoding the
// tuple (zero for plain records).
func RecordVersion(b []byte) (Version, error) {
	_, v, err := recordParts(b)
	return v, err
}

// DecodeRecord parses a stored record — plain or versioned — into its
// tuple and version.
func DecodeRecord(b []byte) (Tuple, Version, error) {
	body, v, err := recordParts(b)
	if err != nil {
		return nil, Version{}, err
	}
	t, err := DecodeTuple(body)
	return t, v, err
}

// stampXmax returns a copy of record b with its deleting transaction
// set, upgrading a plain record to versioned form when needed. A
// versioned record keeps its length, so the rewrite is always
// in-place on the page; only a plain upgrade grows the record.
func stampXmax(b []byte, xmax uint64) []byte {
	if len(b) >= versionHeaderSize && binary.BigEndian.Uint16(b) == versionMarker {
		out := append([]byte(nil), b...)
		binary.BigEndian.PutUint64(out[10:18], xmax)
		return out
	}
	out := make([]byte, versionHeaderSize+len(b))
	binary.BigEndian.PutUint16(out[0:2], versionMarker)
	binary.BigEndian.PutUint64(out[10:18], xmax)
	copy(out[versionHeaderSize:], b)
	return out
}

package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Cursor reads the numbers and strings of a canonical stream — the table
// wire format's and the statistics store's. Every number has exactly one
// spelling, so a varint must be minimal. A read that fails returns
// io.ErrUnexpectedEOF for a stream cut short and leaves Pos where the failing
// varint, or a string's bytes after its length, start.
type Cursor struct {
	B   []byte
	Pos int
}

var (
	errWireOverflow   = errors.New("varint overflows 64 bits")
	errWireNonMinimal = errors.New("non-canonical: varint is not minimal")
)

// Uvarint reads one uvarint, refusing padded (non-minimal) forms.
func (d *Cursor) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.B[d.Pos:])
	switch {
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	case n < 0:
		return 0, errWireOverflow
	case n > 1 && d.B[d.Pos+n-1] == 0:
		return 0, errWireNonMinimal
	}
	d.Pos += n
	return u, nil
}

// Varint reads one zigzag varint.
func (d *Cursor) Varint() (int64, error) {
	u, err := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// String reads a uvarint length of at most maxLen and that many bytes.
func (d *Cursor) String(maxLen int) (string, error) {
	n, err := d.Uvarint()
	switch {
	case err != nil:
		return "", err
	case n > uint64(maxLen):
		return "", fmt.Errorf("length %d exceeds the cap of %d", n, maxLen)
	case n > uint64(len(d.B)-d.Pos):
		return "", io.ErrUnexpectedEOF
	}
	d.Pos += int(n)
	return string(d.B[d.Pos-int(n) : d.Pos]), nil
}

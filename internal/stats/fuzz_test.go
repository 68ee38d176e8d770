package stats

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadStore drives the statistics-stream reader with arbitrary bytes.
// The stream is the framework's durable interface between runs (the
// design-once / execute-repeatedly loop persists observations through it),
// and the serving daemon reads it straight off the network — so the reader
// must reject anything WriteTo could not have produced with a typed error,
// never a panic or an unbounded allocation, and everything it does accept
// must re-serialize to the identical bytes (the stream format is
// canonical).
func FuzzReadStore(f *testing.F) {
	// A genuine stream with scalars, a reject target, a chain point and a
	// two-attribute histogram.
	var valid bytes.Buffer
	if _, err := sampleStore().WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Truncations at interesting boundaries.
	f.Add(valid.Bytes()[:7])                 // magic only
	f.Add(valid.Bytes()[:8])                 // magic + version
	f.Add(valid.Bytes()[:9])                 // full header
	f.Add(valid.Bytes()[:valid.Len()/2])     // mid-value
	f.Add(valid.Bytes()[:valid.Len()-1])     // last byte missing
	f.Add(append(valid.Bytes(), 0))          // trailing byte
	f.Add([]byte{})                          // empty
	f.Add([]byte("ETLSTAT"))                 // bare magic
	f.Add([]byte("NOTMAGIC"))                // wrong magic
	f.Add([]byte("ETLSTAT\x04\x00"))         // future version
	f.Add([]byte("ETLSTAT\x02\x00\x00\x00")) // v2 header, refused by its version
	// Header claiming 2^24 statistics with no bytes behind it.
	f.Add([]byte("ETLSTAT\x03\x80\x80\x80\x08"))
	// Header count past any stream.
	f.Add([]byte("ETLSTAT\x03\xff\xff\xff\xff\x0f"))

	// A version-2 stream from when the sketch kinds were registered, its
	// truncation and its v1 downgrade: refused by their version.
	valid2 := retiredSketchStream(f)
	f.Add(valid2)
	f.Add(valid2[:len(valid2)-1])
	v1Sketch := append([]byte(nil), valid2...)
	v1Sketch[7] = 1
	f.Add(v1Sketch)
	// Flipped bytes in a target, an attribute, the histogram section's
	// header and its last bucket.
	for _, off := range []int{11, 53, valid.Len() - 30, valid.Len() - 2} {
		mut := append([]byte(nil), valid.Bytes()...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte("ETLSTAT\x03\x01\x05"))

	f.Fuzz(func(t *testing.T, in []byte) {
		st, err := ReadStore(bytes.NewReader(in))
		if err != nil {
			if st != nil {
				t.Fatal("non-nil store with error")
			}
			return // rejected cleanly — the property under test
		}
		if st == nil {
			t.Fatal("nil store with nil error")
		}
		// The format is canonical: anything accepted must re-serialize to
		// the exact input bytes.
		var out bytes.Buffer
		if _, err := st.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize accepted stream: %v", err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted stream is not canonical:\n in: %x\nout: %x", in, out.Bytes())
		}
		// A second read must agree, through a wrapper that hides the size
		// (exercising the size-unknown path).
		back, err := ReadStore(io.LimitReader(bytes.NewReader(in), int64(len(in))+1))
		if err != nil {
			t.Fatalf("re-read accepted stream: %v", err)
		}
		if back.Len() != st.Len() {
			t.Fatalf("re-read lost values: %d vs %d", back.Len(), st.Len())
		}
	})
}

// FuzzReadStore's sibling invariant, checked directly: every rejection is
// typed.
func FuzzReadStoreTypedErrors(f *testing.F) {
	f.Add([]byte("ETLSTAT\x01\x00\x00\x00\x01\x00\x00\x00\x03"))     // a version-1 stream
	f.Add([]byte("ETLSTAT\x03\x01\x03\x00\x02\x01\x01\x01\x00\x00")) // a retired kind byte
	var valid bytes.Buffer
	if _, err := sampleStore().WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		_, err := ReadStore(bytes.NewReader(in))
		if err == nil {
			return
		}
		var fe *formatError
		if !errors.Is(err, errCorrupt) || !errors.As(err, &fe) {
			t.Fatalf("rejection is not a typed FormatError: %v", err)
		}
		if fe.Offset < 0 || fe.Offset > int64(len(in)) {
			t.Fatalf("FormatError offset %d outside stream of %d bytes", fe.Offset, len(in))
		}
	})
}

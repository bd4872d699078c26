package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the on-disk decoders of a
// current data dir: the snapshot frame (PISNAP01) and manifest JSON.
// None may panic, and whatever decodes must survive a re-encode: a
// decoded snapshot re-encodes to a frame that decodes to the same
// value, and a decoded manifest re-marshals to JSON that decodes equal.
// Seeded from the data dirs checked in under
// internal/ingest/testdata/legacy, whose older files (delta frames, a
// format 1 manifest) the decoders must refuse; internal/upgrade's
// FuzzUpgrade decodes those.
func FuzzDecode(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "ingest", "testdata", "legacy", "*", "live.*"))
	wants, _ := filepath.Glob(filepath.Join("..", "ingest", "testdata", "legacy", "*.want"))
	for _, path := range append(seeds, wants...) {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}
	if frame, err := Encode(testSnap("iface", 3, 4)); err == nil {
		f.Add(frame)
	}
	f.Add([]byte(`{"formatVersion":2,"id":"x","base":"x.snap","seq":2,"epoch":3,"replication":{"role":"owner","term":1}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The frame decoder sees the bytes as they are and with the frame
		// header rewritten to match (magic, CRC, length), so mutations reach
		// the gob payload instead of dying at the checksum.
		for _, frame := range [][]byte{raw, reframe(fileMagic, raw)} {
			if snap, err := Decode(frame); err == nil {
				again := reencode(t, snap, func(s *Snapshot) ([]byte, error) { return Encode(s) }, Decode)
				if !sameFrame(t, snap, again) {
					t.Fatalf("snapshot changed across a re-encode:\n%+v\n%+v", snap, again)
				}
			}
		}
		if m, err := decodeManifest("fuzz", raw); err == nil {
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("re-marshal manifest %+v: %v", m, err)
			}
			again, err := decodeManifest("fuzz", out)
			if err != nil || !reflect.DeepEqual(m, again) {
				t.Fatalf("manifest changed across a re-marshal: %+v -> %+v (%v)", m, again, err)
			}
		}
	})
}

// reframe wraps raw's payload (everything past a frame header, or all
// of raw when it is shorter than one) in a valid header under magic.
func reframe(magic, raw []byte) []byte {
	payload := raw
	if len(raw) >= len(magic)+12 {
		payload = raw[len(magic)+12:]
	}
	frame := append([]byte(nil), magic...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = binary.BigEndian.AppendUint64(frame, uint64(len(payload)))
	return append(frame, payload...)
}

// reencode encodes v and decodes the frame back, failing the test on
// any error: a value that decoded once must encode and decode again.
func reencode[T any](t *testing.T, v *T, enc func(*T) ([]byte, error), dec func([]byte) (*T, error)) *T {
	t.Helper()
	frame, err := enc(v)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", v, err)
	}
	back, err := dec(frame)
	if err != nil {
		t.Fatalf("decode of a re-encoded frame: %v", err)
	}
	return back
}

// sameFrame compares two decoded values by their gob frames, so NaN
// cells (which reflect.DeepEqual never equates) compare bit for bit.
func sameFrame(t *testing.T, a, b any) bool {
	t.Helper()
	fa, err := encodeFrame(fileMagic, a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := encodeFrame(fileMagic, b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(fa, fb)
}

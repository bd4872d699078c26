package upgrade

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

// FuzzUpgrade feeds arbitrary bytes to the decoders of the older
// layouts this package reads: the delta frame (PIDELT01) and format 1
// manifest JSON. Neither may panic, and whatever decodes must survive a
// re-encode: a decoded delta re-encodes to a frame that decodes to the
// same value, and a decoded manifest re-marshals to JSON that decodes
// equal. Seeded from the data dirs checked in under
// internal/ingest/testdata/legacy.
func FuzzUpgrade(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "ingest", "testdata", "legacy", "*", "live.*"))
	for _, path := range seeds {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}
	if frame, err := encodeDelta(tailDelta("iface", 3, 4, 5, 6)); err == nil {
		f.Add(frame)
	}
	f.Add([]byte(`{"formatVersion":1,"id":"x","base":"x.snap","deltas":["x.00000000000000000002.delta"],"seq":2}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The frame decoder sees the bytes as they are and with the frame
		// header rewritten to match (magic, CRC, length), so mutations reach
		// the gob payload instead of dying at the checksum.
		for _, frame := range [][]byte{raw, reframe(raw)} {
			d, err := DecodeDelta(frame)
			if err != nil {
				continue
			}
			enc, err := encodeDelta(d)
			if err != nil {
				t.Fatalf("re-encode %+v: %v", d, err)
			}
			again, err := DecodeDelta(enc)
			if err != nil {
				t.Fatalf("decode of a re-encoded delta: %v", err)
			}
			// Compare by frame bytes, so NaN cells (which reflect.DeepEqual
			// never equates) compare bit for bit.
			if enc2, err := encodeDelta(again); err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("delta changed across a re-encode:\n%+v\n%+v", d, again)
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
// of raw when it is shorter than one) in a valid delta frame header.
func reframe(raw []byte) []byte {
	payload := raw
	if len(raw) >= len(deltaMagic)+12 {
		payload = raw[len(deltaMagic)+12:]
	}
	frame := append([]byte(nil), deltaMagic...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = binary.BigEndian.AppendUint64(frame, uint64(len(payload)))
	return append(frame, payload...)
}

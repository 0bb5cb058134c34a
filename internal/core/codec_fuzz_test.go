package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzOnlineRestoreState feeds arbitrary bytes to the state decoders that
// read peer input: a cluster handoff ships each stream's Online state over
// HTTP. kind picks the target (LARPredictor, Online, or Online with the
// tournament tier and drift). Restore must never panic; a state it accepts
// must save, restore again and save to the same bytes, and the predictor
// must keep stepping afterwards, as it must after a refused state.
func FuzzOnlineRestoreState(f *testing.F) {
	for _, s := range codecStates(f) {
		f.Add(s.kind, s.data)
		for _, n := range []int{0, 4, 8, 11, 12, 13, len(s.data) / 2, len(s.data) - 4, len(s.data) - 1} {
			f.Add(s.kind, s.data[:n])
		}
		for off := 0; off < len(s.data); off += 1 + len(s.data)/16 {
			flipped := bytes.Clone(s.data)
			flipped[off] ^= 1 << (off % 8)
			f.Add(s.kind, flipped)
		}
		// Valid seeds round-trip to the very bytes they were saved as.
		target := codecTarget(f, s.kind)
		if err := target.RestoreState(bytes.NewReader(s.data)); err != nil {
			f.Fatalf("%s: %v", s.name, err)
		}
		var again bytes.Buffer
		if err := target.SaveState(&again); err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), s.data) {
			f.Fatalf("%s: restore then save changed the state's bytes", s.name)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		target := codecTarget(t, kind)
		if err := target.RestoreState(bytes.NewReader(data)); err == nil {
			var saved, resaved bytes.Buffer
			if err := target.SaveState(&saved); err != nil {
				t.Fatalf("save of an accepted state: %v", err)
			}
			other := codecTarget(t, kind)
			if err := other.RestoreState(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatalf("restore of a re-saved state: %v", err)
			}
			if err := other.SaveState(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
				t.Fatal("an accepted state does not round-trip")
			}
		}
		series := codecSeries(12)
		switch p := target.(type) {
		case *Online:
			for _, v := range series {
				p.Step(v)
			}
		case *LARPredictor:
			if _, err := p.Forecast(series[:5]); err != nil && !errors.Is(err, ErrNotTrained) {
				t.Logf("forecast after restore: %v", err)
			}
		}
	})
}

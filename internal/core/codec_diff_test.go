package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"github.com/acis-lab/larpredictor/internal/tournament"
)

// The state framing as the codec wrote and read it before it moved onto
// durable.GobFrame, kept verbatim as the reference the differential tests
// compare the shared frame against.

var (
	refLARMagic    = [8]byte{'L', 'A', 'R', 'P', 'L', 'A', 'R', '1'}
	refOnlineMagic = [8]byte{'L', 'A', 'R', 'P', 'O', 'N', 'L', '1'}
)

func refWriteFramed(w io.Writer, magic [8]byte, payload any) error {
	h := crc32.NewIEEE()
	mw := io.MultiWriter(w, h)
	if _, err := mw.Write(magic[:]); err != nil {
		return fmt.Errorf("core: write state magic: %w", err)
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], stateVersion)
	if _, err := mw.Write(ver[:]); err != nil {
		return fmt.Errorf("core: write state version: %w", err)
	}
	if err := gob.NewEncoder(mw).Encode(payload); err != nil {
		return fmt.Errorf("core: encode state: %w", err)
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], h.Sum32())
	if _, err := w.Write(foot[:]); err != nil {
		return fmt.Errorf("core: write state checksum: %w", err)
	}
	return nil
}

func refReadFramed(r io.Reader, magic [8]byte, payload any) error {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("core: read state magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("core: bad state magic %q: %w", m[:], ErrBadState)
	}
	var ver [4]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return fmt.Errorf("core: read state version: %w", err)
	}
	if v := binary.LittleEndian.Uint32(ver[:]); v != stateVersion {
		return fmt.Errorf("core: state version %d unsupported: %w", v, ErrBadState)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: read state: %w", err)
	}
	if len(data) < 4 {
		return fmt.Errorf("core: state truncated before checksum: %w", ErrBadState)
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	h := crc32.NewIEEE()
	h.Write(m[:])
	h.Write(ver[:])
	h.Write(body)
	if h.Sum32() != binary.LittleEndian.Uint32(foot) {
		return fmt.Errorf("core: %w", ErrChecksum)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(payload); err != nil {
		return fmt.Errorf("core: decode state: %w: %v", ErrBadState, err)
	}
	return nil
}

// Codec target kinds: the predictor a seeded state restores into.
const (
	kindLAR        uint8 = iota // LARPredictor, DefaultConfig(5)
	kindOnline                  // Online, onlineTestConfig
	kindTournament              // Online with the tournament tier and drift
	codecKinds
)

type stateCodec interface {
	SaveState(io.Writer) error
	RestoreState(io.Reader) error
}

func tournamentDriftCfg() OnlineConfig {
	cfg := tournamentCfg()
	cfg.Drift = &tournament.DriftConfig{}
	return cfg
}

// codecTarget returns a fresh predictor of the given kind (mod codecKinds).
func codecTarget(tb testing.TB, kind uint8) stateCodec {
	tb.Helper()
	var (
		c   stateCodec
		err error
	)
	switch kind % codecKinds {
	case kindLAR:
		c, err = New(DefaultConfig(5))
	case kindOnline:
		c, err = NewOnline(onlineTestConfig())
	default:
		c, err = NewOnline(tournamentDriftCfg())
	}
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// refFrame returns the reference magic and an empty payload for kind.
func refFrame(kind uint8) ([8]byte, any) {
	if kind%codecKinds == kindLAR {
		return refLARMagic, new(larState)
	}
	return refOnlineMagic, new(onlineState)
}

// codecState is one seeded state as SaveState wrote it.
type codecState struct {
	name string
	kind uint8
	data []byte
}

// codecStates saves LAR states (untrained, trained) and Online states
// (warm-up, trained, degraded, tournament+drift).
func codecStates(tb testing.TB) []codecState {
	tb.Helper()
	var out []codecState
	add := func(name string, kind uint8, c stateCodec) {
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, codecState{name, kind, buf.Bytes()})
	}
	series := codecSeries(200)

	lar := codecTarget(tb, kindLAR).(*LARPredictor)
	add("lar/untrained", kindLAR, lar)
	if err := lar.Train(series[:120]); err != nil {
		tb.Fatal(err)
	}
	add("lar/trained", kindLAR, lar)

	online := codecTarget(tb, kindOnline).(*Online)
	for i, v := range series[:150] {
		online.Observe(v)
		if i == 24 {
			add("online/warm-up", kindOnline, online)
		}
	}
	add("online/trained", kindOnline, online)

	degraded := codecTarget(tb, kindOnline).(*Online)
	for i, v := range series[:60] {
		if i%3 == 1 {
			v = math.NaN() // every training window is poisoned
		}
		degraded.Observe(v)
	}
	if degraded.HealthStats().RetrainFailures == 0 {
		tb.Fatal("poisoned series did not degrade the predictor")
	}
	add("online/degraded", kindOnline, degraded)

	tour := codecTarget(tb, kindTournament).(*Online)
	for i := 0; i < 200; i++ {
		v := 10*math.Sin(float64(i)*0.07) + 0.3*float64(i%4)
		if i >= 120 && i < 140 && i%5 == 0 {
			v = math.NaN()
		}
		tour.Step(v)
	}
	add("online/tournament+drift", kindTournament, tour)
	return out
}

// TestStateFramingMatchesReference: the shared frame writes the bytes the
// reference framing writes for the same payload, and each side reads what
// the other wrote to equal values.
func TestStateFramingMatchesReference(t *testing.T) {
	for _, s := range codecStates(t) {
		t.Run(s.name, func(t *testing.T) {
			magic, payload := refFrame(s.kind)
			if err := refReadFramed(bytes.NewReader(s.data), magic, payload); err != nil {
				t.Fatalf("reference cannot read the new encoding: %v", err)
			}
			var ref, again bytes.Buffer
			if err := refWriteFramed(&ref, magic, payload); err != nil {
				t.Fatal(err)
			}
			if err := refWriteFramed(&again, magic, payload); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(ref.Bytes(), again.Bytes()) && !bytes.Equal(ref.Bytes(), s.data) {
				t.Fatalf("new encoding (%d bytes) differs from the reference's (%d bytes)", len(s.data), ref.Len())
			}

			// The reference's bytes restore, and decode to the same payload.
			target := codecTarget(t, s.kind)
			if err := target.RestoreState(bytes.NewReader(ref.Bytes())); err != nil {
				t.Fatalf("restore of the reference encoding: %v", err)
			}
			_, got := refFrame(s.kind)
			frame := &larFrame
			if s.kind != kindLAR {
				frame = &onlineFrame
			}
			if err := frame.Decode(bytes.NewReader(ref.Bytes()), got); err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if err := refWriteFramed(&a, magic, got); err != nil {
				t.Fatal(err)
			}
			if err := refWriteFramed(&b, magic, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("the reference encoding decodes to a different payload")
			}
			var resaved bytes.Buffer
			if err := target.SaveState(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), s.data) {
				t.Fatal("a predictor restored from the reference encoding saves different bytes")
			}
		})
	}
}

// codecSentinels are the errors a state restore is classified by.
var codecSentinels = []error{ErrBadState, ErrChecksum, ErrStateMismatch, io.EOF, io.ErrUnexpectedEOF}

// TestStateFramingDamageMatchesReference: for every prefix and every
// single-bit flip of one small encoding per format, restore fails exactly
// when the reference framing fails, and its error matches every sentinel
// the reference's error matches.
func TestStateFramingDamageMatchesReference(t *testing.T) {
	for _, s := range codecStates(t) {
		if s.name != "lar/untrained" && s.name != "online/warm-up" {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			target := codecTarget(t, s.kind)
			check := func(what string, data []byte) {
				t.Helper()
				magic, payload := refFrame(s.kind)
				refErr := refReadFramed(bytes.NewReader(data), magic, payload)
				err := target.RestoreState(bytes.NewReader(data))
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s: restore err = %v, reference err = %v", what, err, refErr)
				}
				for _, sentinel := range codecSentinels {
					if errors.Is(refErr, sentinel) && !errors.Is(err, sentinel) {
						t.Fatalf("%s: err = %v does not match %v, as the reference's %v does",
							what, err, sentinel, refErr)
					}
				}
			}
			for n := 0; n <= len(s.data); n++ {
				check(fmt.Sprintf("prefix of %d/%d bytes", n, len(s.data)), s.data[:n])
			}
			damaged := bytes.Clone(s.data)
			for off := range damaged {
				bit := off % 8
				damaged[off] ^= 1 << bit
				check(fmt.Sprintf("bit %d of byte %d flipped", bit, off), damaged)
				damaged[off] ^= 1 << bit
			}
		})
	}
}

// TestStateFramingGobErrorsMatchReference: a frame whose checksum verifies
// but whose body does not decode as the payload is a format error on both
// sides.
func TestStateFramingGobErrorsMatchReference(t *testing.T) {
	for kind := kindLAR; kind < codecKinds; kind++ {
		magic, _ := refFrame(kind)
		var data bytes.Buffer
		if err := refWriteFramed(&data, magic, []string{"not", "a", "state"}); err != nil {
			t.Fatal(err)
		}
		_, payload := refFrame(kind)
		refErr := refReadFramed(bytes.NewReader(data.Bytes()), magic, payload)
		err := codecTarget(t, kind).RestoreState(bytes.NewReader(data.Bytes()))
		if !errors.Is(refErr, ErrBadState) || !errors.Is(err, ErrBadState) {
			t.Fatalf("kind %d: err = %v, reference err = %v; want ErrBadState from both", kind, err, refErr)
		}
	}
}

package durable

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// A record stream is one gob stream of a header value and then exactly as
// many records as the header announces, then the end of the stream, so type
// descriptors are written once and either side holds one record at a time.
// A gob.Encoder writes one: the header, then each record. predictd's
// snapshot and the cluster's warm handoff carry one record per stream;
// monitord's snapshot carries one per RRD, prediction DB and pipeline.

// StreamReader reads a record stream whose records decode into T.
type StreamReader[T any] struct {
	dec *gob.Decoder
	rec T
}

// NewStreamReader decodes the header of the record stream on r into hdr.
func NewStreamReader[T any](r io.Reader, hdr any) (*StreamReader[T], error) {
	sr := &StreamReader[T]{dec: gob.NewDecoder(r)}
	if err := sr.dec.Decode(hdr); err != nil {
		return nil, fmt.Errorf("the header does not decode: %w", err)
	}
	return sr, nil
}

// ReadRecords decodes n records one at a time and passes each to fn once
// it has decoded whole; fn must not keep the pointer, which the next record
// reuses. A record that does not decode, a cut one included, never reaches
// fn and stops the read with an error naming it; fn's own error stops it
// as is. After the n-th record the stream must end.
func (sr *StreamReader[T]) ReadRecords(n int, fn func(*T) error) error {
	var zero T
	for i := 0; i < n; i++ {
		// Zeroed each time: gob leaves fields absent from the stream (zero
		// values) untouched, so the previous record's values would leak.
		sr.rec = zero
		if err := sr.dec.Decode(&sr.rec); err != nil {
			return fmt.Errorf("record %d of %d does not decode: %w", i, n, err)
		}
		if err := fn(&sr.rec); err != nil {
			return err
		}
	}
	sr.rec = zero
	switch err := sr.dec.Decode(&sr.rec); {
	case err == nil:
		return fmt.Errorf("holds more records than its header's %d", n)
	case !errors.Is(err, io.EOF):
		return fmt.Errorf("the bytes after its last record do not decode: %w", err)
	}
	return nil
}

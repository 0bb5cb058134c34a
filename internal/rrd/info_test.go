package rrd

import (
	"errors"
	"math"
	"testing"
)

func TestLatest(t *testing.T) {
	r := mustRRD(t, 60,
		[]DS{gaugeDS("g")},
		[]RRASpec{
			{CF: Average, XFF: 0.5, Steps: 1, Rows: 10},
			{CF: Average, XFF: 0.5, Steps: 5, Rows: 10},
		})
	if _, err := r.Latest(Average); !errors.Is(err, ErrNoRecentData) {
		t.Errorf("empty Latest err = %v", err)
	}
	if err := r.Update(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := r.Update(int64(60*i), float64(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	row, err := r.Latest(Average)
	if err != nil {
		t.Fatal(err)
	}
	// Finest archive: the 1-step row ending at 7*60 with value 70.
	if row.End != 7*60 {
		t.Errorf("latest end = %d, want 420", row.End)
	}
	if math.Abs(row.Values[0]-70) > 1e-9 {
		t.Errorf("latest value = %g, want 70", row.Values[0])
	}
	if _, err := r.Latest(Max); !errors.Is(err, ErrNoRecentData) {
		t.Error("Latest for absent CF did not error")
	}
	// Mutating the returned row must not corrupt the ring.
	row.Values[0] = -1
	again, err := r.Latest(Average)
	if err != nil {
		t.Fatal(err)
	}
	if again.Values[0] != 70 {
		t.Error("Latest exposed internal storage")
	}
}

package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestNewCopiesValues(t *testing.T) {
	in := []float64{1, 2, 3}
	s := New("x", time.Unix(0, 0), time.Minute, in)
	in[0] = 99
	if s.At(0) != 1 {
		t.Error("New should copy its input")
	}
}

func TestTimeAt(t *testing.T) {
	start := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	s := New("x", start, 5*time.Minute, []float64{0, 0, 0})
	if got := s.TimeAt(2); !got.Equal(start.Add(10 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
}

func TestSlice(t *testing.T) {
	s := FromValues("x", []float64{0, 1, 2, 3, 4})
	sub, err := s.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.At(0) != 1 || sub.At(2) != 3 {
		t.Fatalf("Slice = %v", sub.Values)
	}
	if !sub.Start.Equal(s.TimeAt(1)) {
		t.Error("Slice did not advance start time")
	}
	if _, err := s.Slice(3, 2); err == nil {
		t.Error("Slice accepted inverted bounds")
	}
	if _, err := s.Slice(0, 6); err == nil {
		t.Error("Slice accepted out-of-range bound")
	}
}

func TestPoints(t *testing.T) {
	s := FromValues("x", []float64{7, 8})
	pts := s.Points()
	if len(pts) != 2 || pts[1].Value != 8 {
		t.Fatalf("Points = %v", pts)
	}
	if !pts[1].Time.After(pts[0].Time) {
		t.Error("Points timestamps not increasing")
	}
}

func TestIsConstant(t *testing.T) {
	if !FromValues("x", []float64{2, 2, 2}).IsConstant(0) {
		t.Error("constant series not detected")
	}
	if FromValues("x", []float64{2, 2.5}).IsConstant(0.1) {
		t.Error("non-constant series detected as constant")
	}
	if !FromValues("x", nil).IsConstant(0) {
		t.Error("empty series should be constant")
	}
}

func TestValidate(t *testing.T) {
	if err := FromValues("x", []float64{1, 2}).Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	if err := FromValues("x", []float64{1, math.NaN()}).Validate(); err == nil {
		t.Error("NaN not rejected")
	}
	if err := FromValues("x", []float64{math.Inf(-1)}).Validate(); err == nil {
		t.Error("Inf not rejected")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := FromValues("x", []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 42
	if s.At(0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestFrameSeries(t *testing.T) {
	v := []float64{0, 1, 2, 3, 4}
	frames, err := FrameSeries(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}
	// Frame 0: window [0,1] target 2; frame 2: window [2,3] target 4.
	if frames[0].Target != 2 || frames[2].Target != 4 {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[1].Window[0] != 1 || frames[1].Window[1] != 2 {
		t.Fatalf("frame 1 window = %v", frames[1].Window)
	}
	if frames[1].Index != 1 {
		t.Fatalf("frame 1 index = %d", frames[1].Index)
	}
}

func TestFrameSeriesErrors(t *testing.T) {
	if _, err := FrameSeries([]float64{1, 2}, 0); err == nil {
		t.Error("accepted window 0")
	}
	if _, err := FrameSeries([]float64{1, 2}, 2); !errors.Is(err, ErrShort) {
		t.Errorf("too-short series err = %v, want ErrShort", err)
	}
}

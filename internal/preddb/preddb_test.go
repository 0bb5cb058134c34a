package preddb

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

var (
	t0   = time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	key1 = Key{VM: "VM1", Device: "NIC1", Metric: "received"}
	key2 = Key{VM: "VM2", Device: "VD1", Metric: "read"}
)

func at(i int) time.Time { return t0.Add(time.Duration(i) * 5 * time.Minute) }

func TestPutAndRange(t *testing.T) {
	db := New()
	db.PutObservation(key1, at(1), 10)
	db.PutPrediction(key1, at(1), 12, "AR")
	db.PutObservation(key1, at(0), 5) // out-of-order insert
	db.PutPrediction(key1, at(2), 20, "LAST")

	recs := db.Range(key1, at(0), at(2))
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if !recs[0].Time.Equal(at(0)) || !recs[2].Time.Equal(at(2)) {
		t.Fatal("records not in time order")
	}
	r1 := recs[1]
	if !r1.HasObserved || r1.Observed != 10 || !r1.HasPredicted || r1.Predicted != 12 || r1.PredictorName != "AR" {
		t.Errorf("merged record = %+v", r1)
	}
	if recs[2].HasObserved {
		t.Error("prediction-only record claims an observation")
	}
	if db.Len(key1) != 3 || db.Len(key2) != 0 {
		t.Error("Len wrong")
	}
}

func TestRangeBounds(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.PutObservation(key1, at(i), float64(i))
	}
	recs := db.Range(key1, at(3), at(6))
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (inclusive bounds)", len(recs))
	}
	if recs[0].Observed != 3 || recs[3].Observed != 6 {
		t.Error("wrong bounds")
	}
	if len(db.Range(key2, at(0), at(9))) != 0 {
		t.Error("unknown key returned records")
	}
}

func TestKeysSorted(t *testing.T) {
	db := New()
	db.PutObservation(key2, at(0), 1)
	db.PutObservation(key1, at(0), 1)
	db.PutObservation(Key{VM: "VM1", Device: "NIC1", Metric: "transmitted"}, at(0), 1)
	keys := db.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != key1 || keys[2] != key2 {
		t.Errorf("keys order = %v", keys)
	}
}

func TestAuditMSE(t *testing.T) {
	db := New()
	// 4 scored rows with errors 1, 2, 3, 4.
	for i := 1; i <= 4; i++ {
		db.PutObservation(key1, at(i), 0)
		db.PutPrediction(key1, at(i), float64(i), "AR")
	}
	// Unscored rows must be ignored.
	db.PutPrediction(key1, at(5), 100, "AR")
	db.PutObservation(key1, at(6), 100)

	mse, n, err := db.AuditMSE(key1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("covered %d rows, want 4", n)
	}
	want := (1.0 + 4 + 9 + 16) / 4
	if math.Abs(mse-want) > 1e-12 {
		t.Errorf("MSE = %g, want %g", mse, want)
	}
	// Window limits to most recent scored rows (errors 3 and 4).
	mse, n, err = db.AuditMSE(key1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || math.Abs(mse-(9.0+16)/2) > 1e-12 {
		t.Errorf("windowed MSE = %g over %d", mse, n)
	}
	if _, _, err := db.AuditMSE(key1, 0); !errors.Is(err, ErrBadWindow) {
		t.Error("window 0 accepted")
	}
	if _, _, err := db.AuditMSE(key2, 5); !errors.Is(err, ErrNoRecords) {
		t.Error("empty key audit did not error")
	}
}

func TestAssurorFiresAboveThreshold(t *testing.T) {
	db := New()
	var firedKey Key
	var firedMSE float64
	calls := 0
	qa, err := NewAssuror(db, 3, 1.0, func(k Key, mse float64) {
		firedKey, firedMSE = k, mse
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}

	// Accurate predictions: no fire.
	for i := 0; i < 3; i++ {
		db.PutObservation(key1, at(i), 10)
		db.PutPrediction(key1, at(i), 10.1, "LAST")
	}
	if fired, _ := qa.Audit(key1); fired {
		t.Error("QA fired on accurate predictions")
	}

	// Bad predictions push the window MSE over threshold.
	for i := 3; i < 6; i++ {
		db.PutObservation(key1, at(i), 10)
		db.PutPrediction(key1, at(i), 20, "LAST")
	}
	fired, mse := qa.Audit(key1)
	if !fired {
		t.Fatal("QA did not fire")
	}
	if calls != 1 || firedKey != key1 || firedMSE != mse {
		t.Errorf("callback: calls=%d key=%v mse=%g", calls, firedKey, firedMSE)
	}
}

func TestAssurorNeedsFullWindow(t *testing.T) {
	db := New()
	qa, err := NewAssuror(db, 5, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 scored rows — fewer than the window: must not fire even with
	// terrible error.
	for i := 0; i < 2; i++ {
		db.PutObservation(key1, at(i), 0)
		db.PutPrediction(key1, at(i), 100, "AR")
	}
	if fired, _ := qa.Audit(key1); fired {
		t.Error("QA fired on a partial window")
	}
}

func TestAssurorAuditAll(t *testing.T) {
	db := New()
	qa, err := NewAssuror(db, 2, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		db.PutObservation(key1, at(i), 0)
		db.PutPrediction(key1, at(i), 10, "AR") // bad
		db.PutObservation(key2, at(i), 0)
		db.PutPrediction(key2, at(i), 0.1, "AR") // good
	}
	fired := qa.AuditAll()
	if len(fired) != 1 || fired[0] != key1 {
		t.Errorf("fired = %v", fired)
	}
	if _, err := NewAssuror(db, 0, 1, nil); !errors.Is(err, ErrBadWindow) {
		t.Error("bad window accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.PutObservation(key1, at(i), float64(i))
				db.PutPrediction(key1, at(i), float64(i)+1, "AR")
				db.Range(key1, at(0), at(i))
				db.AuditMSE(key1, 5)
			}
		}(w)
	}
	wg.Wait()
	if db.Len(key1) != 200 {
		t.Errorf("records = %d, want 200 (idempotent merge)", db.Len(key1))
	}
}

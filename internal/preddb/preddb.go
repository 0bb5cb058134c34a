// Package preddb implements the paper's prediction database: observed and
// predicted resource-performance values keyed by [vmID, deviceID, timeStamp,
// metricName] (the combinational primary key of paper §3.2), plus the
// Prediction Quality Assuror that "periodically audits the prediction
// performance by calculating the average MSE of historical prediction data
// stored in the prediction DB" and orders retraining when a threshold is
// breached.
package preddb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Errors returned by the database.
var (
	ErrNoRecords = errors.New("preddb: no matching records")
	ErrBadWindow = errors.New("preddb: invalid audit window")
)

// Key identifies one monitored series, the non-time part of the paper's
// combinational primary key.
type Key struct {
	VM     string
	Device string
	Metric string
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.VM, k.Device, k.Metric)
}

// Record is one timestamped row: the observed value, the prediction that was
// made for that timestamp, and which expert produced it. Either side may be
// absent (observation arrives before the next prediction and vice versa).
type Record struct {
	Time          time.Time
	Observed      float64
	HasObserved   bool
	Predicted     float64
	HasPredicted  bool
	PredictorName string
}

// DB is an in-memory prediction database, safe for concurrent use.
type DB struct {
	mu   sync.RWMutex
	rows map[Key][]Record // sorted by Time
	met  *dbMetrics       // nil when uninstrumented
}

// New returns an empty database.
func New() *DB {
	return &DB{rows: make(map[Key][]Record)}
}

// PutObservation records an observed value for (key, t).
func (db *DB) PutObservation(key Key, t time.Time, v float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.rowAt(key, t)
	r.Observed = v
	r.HasObserved = true
	if db.met != nil {
		db.met.observations.Inc()
	}
}

// PutPrediction records a prediction (and the expert that made it) for
// (key, t) — t being the time the prediction is *for*.
func (db *DB) PutPrediction(key Key, t time.Time, v float64, predictor string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.rowAt(key, t)
	r.Predicted = v
	r.HasPredicted = true
	r.PredictorName = predictor
	if db.met != nil {
		db.met.predictions.Inc()
	}
}

// rowAt returns a pointer to the record for (key, t), inserting in timestamp
// order if absent. Callers hold the write lock.
func (db *DB) rowAt(key Key, t time.Time) *Record {
	rows := db.rows[key]
	i := sort.Search(len(rows), func(i int) bool { return !rows[i].Time.Before(t) })
	if i < len(rows) && rows[i].Time.Equal(t) {
		return &db.rows[key][i]
	}
	rows = append(rows, Record{})
	copy(rows[i+1:], rows[i:])
	rows[i] = Record{Time: t}
	db.rows[key] = rows
	return &db.rows[key][i]
}

// Keys returns every key with at least one record, sorted for determinism.
func (db *DB) Keys() []Key {
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := make([]Key, 0, len(db.rows))
	for k := range db.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].VM != keys[j].VM {
			return keys[i].VM < keys[j].VM
		}
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Metric < keys[j].Metric
	})
	return keys
}

// Len returns the number of records stored for a key.
func (db *DB) Len(key Key) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.rows[key])
}

// Range returns copies of the records for key with Time in [start, end],
// in time order.
func (db *DB) Range(key Key, start, end time.Time) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rows := db.rows[key]
	lo := sort.Search(len(rows), func(i int) bool { return !rows[i].Time.Before(start) })
	hi := sort.Search(len(rows), func(i int) bool { return rows[i].Time.After(end) })
	out := make([]Record, hi-lo)
	copy(out, rows[lo:hi])
	return out
}

// AuditMSE computes the mean squared prediction error over the most recent
// `window` records of key that carry both an observation and a prediction.
// It returns the MSE and how many records it covered.
func (db *DB) AuditMSE(key Key, window int) (float64, int, error) {
	if window < 1 {
		return 0, 0, fmt.Errorf("preddb: window %d: %w", window, ErrBadWindow)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	rows := db.rows[key]
	var (
		sumSq float64
		n     int
	)
	for i := len(rows) - 1; i >= 0 && n < window; i-- {
		r := rows[i]
		if !r.HasObserved || !r.HasPredicted {
			continue
		}
		d := r.Predicted - r.Observed
		sumSq += d * d
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("preddb: %s: %w", key, ErrNoRecords)
	}
	return sumSq / float64(n), n, nil
}

// Assuror is the Prediction Quality Assuror: it audits a key's recent
// prediction MSE against a threshold and invokes the retrain callback when
// the threshold is breached.
type Assuror struct {
	db *DB
	// Window is the number of scored predictions each audit covers.
	Window int
	// Threshold is the MSE above which the Assuror orders retraining.
	Threshold float64
	// OnRetrain is called with the offending key and its audit MSE.
	OnRetrain func(key Key, mse float64)
}

// NewAssuror builds a QA bound to db.
func NewAssuror(db *DB, window int, threshold float64, onRetrain func(Key, float64)) (*Assuror, error) {
	if window < 1 {
		return nil, fmt.Errorf("preddb: window %d: %w", window, ErrBadWindow)
	}
	return &Assuror{db: db, Window: window, Threshold: threshold, OnRetrain: onRetrain}, nil
}

// Audit checks one key; it reports whether retraining was ordered, and the
// audit MSE. Keys with no scored predictions do not fire.
func (a *Assuror) Audit(key Key) (fired bool, mse float64) {
	met := a.db.metrics()
	if met != nil {
		met.audits.Inc()
	}
	m, n, err := a.db.AuditMSE(key, a.Window)
	if err != nil || n < a.Window {
		return false, m
	}
	if m > a.Threshold {
		if met != nil {
			met.auditFires.Inc()
		}
		if a.OnRetrain != nil {
			a.OnRetrain(key, m)
		}
		return true, m
	}
	return false, m
}

// AuditAll audits every key in the database, returning those that fired.
func (a *Assuror) AuditAll() []Key {
	var fired []Key
	for _, k := range a.db.Keys() {
		if ok, _ := a.Audit(k); ok {
			fired = append(fired, k)
		}
	}
	return fired
}

package preddb

import "github.com/acis-lab/larpredictor/internal/obs"

// dbMetrics holds the prediction database's instruments, pre-bound at
// Instrument time. A nil *dbMetrics disables everything behind a single
// branch.
type dbMetrics struct {
	// observations/predictions count rows written by the two put paths.
	observations *obs.Counter
	predictions  *obs.Counter
	// saves counts successful persistence snapshots of the database.
	saves *obs.Counter
	// audits counts QA audits run against the database; auditFires counts
	// the subset that breached the threshold and ordered retraining.
	audits     *obs.Counter
	auditFires *obs.Counter
}

// Instrument binds the database's instrument families on r (or a labeled
// scope of one — see obs.Registry.With). Assurors bound to this database
// report their audit counters through it too. A nil registry leaves the
// database uninstrumented at zero cost.
func (db *DB) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	m := &dbMetrics{
		observations: r.Counter1("larpredictor_preddb_observations_total",
			"Observed values recorded in the prediction database."),
		predictions: r.Counter1("larpredictor_preddb_predictions_total",
			"Predictions recorded in the prediction database."),
		saves: r.Counter1("larpredictor_preddb_saves_total",
			"Successful prediction-database persistence snapshots."),
		audits: r.Counter1("larpredictor_qa_audits_total",
			"QA audits run against the prediction database."),
		auditFires: r.Counter1("larpredictor_qa_audit_fires_total",
			"QA audits that breached the MSE threshold and ordered retraining."),
	}
	// Nothing prunes records; the family stays registered, at zero, so the
	// exposition keeps its families.
	r.Counter1("larpredictor_preddb_pruned_records_total",
		"Records dropped by retention pruning.")
	db.mu.Lock()
	db.met = m
	db.mu.Unlock()
}

// metrics returns the bound instrument set (nil when uninstrumented)
// without racing Instrument.
func (db *DB) metrics() *dbMetrics {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.met
}

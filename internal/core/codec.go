package core

import (
	"errors"
	"fmt"
	"io"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/knn"
	"github.com/acis-lab/larpredictor/internal/nws"
	"github.com/acis-lab/larpredictor/internal/pca"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// Durable-state codec: a trained LARPredictor (and the Online wrapper with
// its full resilience state) serializes to one durable.GobFrame — a magic
// header, a format version, a gob payload, and a CRC32 footer covering
// everything before it, the framing the rrd and preddb files share. The
// payload carries the normalizer coefficients, the PCA basis, the k-NN
// training set, the normalized series the parametric experts were fitted
// on, and (for Online) the health/breaker/backoff machinery, so a restart
// resumes forecasting exactly where the crash left off, with no retraining.
//
// RestoreState must be called on a predictor constructed with an equivalent
// configuration; a fingerprint embedded in the state rejects anything else.

// Errors returned by the state codec.
var (
	// ErrChecksum reports a CRC32 mismatch: the state file was corrupted at
	// rest (bit flip, torn write past the gob framing).
	ErrChecksum = errors.New("core: state checksum mismatch")
	// ErrBadState reports an unrecognized or structurally invalid state
	// stream.
	ErrBadState = errors.New("core: unrecognized or invalid state")
	// ErrStateMismatch reports a state snapshot taken under a different
	// configuration than the predictor it is being restored into.
	ErrStateMismatch = errors.New("core: state does not match predictor configuration")
)

// stateVersion 2: the Health enum gained the Tournament rung between
// Healthy and Degraded, renumbering every deeper rung, and the payload
// gained the tournament/drift state — version-1 snapshots would silently
// restore the wrong health, so they are rejected at the frame layer.
const stateVersion uint32 = 2

var (
	larFrame = durable.GobFrame{Magic: "LARPLAR1", Version: stateVersion,
		ErrFormat: ErrBadState, ErrChecksum: ErrChecksum}
	onlineFrame = durable.GobFrame{Magic: "LARPONL1", Version: stateVersion,
		ErrFormat: ErrBadState, ErrChecksum: ErrChecksum}
)

// predictorFingerprint identifies the configuration a LARPredictor state was
// captured under. Restore rejects states whose fingerprint differs from the
// target predictor's.
type predictorFingerprint struct {
	WindowSize          int
	PCAComponents       int
	MinFractionVariance float64
	K                   int
	UseKDTree           bool
	Vote                int
	DisablePCA          bool
	Pool                []string
}

func fingerprintOf(cfg Config, pool *predictors.Pool) predictorFingerprint {
	return predictorFingerprint{
		WindowSize:          cfg.WindowSize,
		PCAComponents:       cfg.PCAComponents,
		MinFractionVariance: cfg.MinFractionVariance,
		K:                   cfg.K,
		UseKDTree:           cfg.UseKDTree,
		Vote:                int(cfg.Vote),
		DisablePCA:          cfg.DisablePCA,
		Pool:                pool.Names(),
	}
}

func (a predictorFingerprint) equal(b predictorFingerprint) bool {
	if a.WindowSize != b.WindowSize || a.PCAComponents != b.PCAComponents ||
		a.MinFractionVariance != b.MinFractionVariance || a.K != b.K ||
		a.UseKDTree != b.UseKDTree || a.Vote != b.Vote || a.DisablePCA != b.DisablePCA ||
		len(a.Pool) != len(b.Pool) {
		return false
	}
	for i := range a.Pool {
		if a.Pool[i] != b.Pool[i] {
			return false
		}
	}
	return true
}

// larState is the gob payload of a LARPredictor snapshot.
type larState struct {
	Fingerprint predictorFingerprint
	Trained     bool

	NormMean, NormStd float64
	HasPCA            bool
	PCA               pca.State
	// Feats and Labels are the k-NN training set (projected windows and
	// best-expert classes).
	Feats  [][]float64
	Labels []int
	// TrainRMSE is the per-expert training RMSE (uncertainty estimates).
	TrainRMSE []float64
	// FitSeries is the normalized training series of the last Train call;
	// parametric experts are refitted on it at restore, which reproduces
	// their coefficients exactly.
	FitSeries []float64
}

func (l *LARPredictor) captureState() *larState {
	s := &larState{Fingerprint: fingerprintOf(l.cfg, l.pool), Trained: l.trained}
	if !l.trained {
		return s
	}
	s.NormMean, s.NormStd = l.norm.Mean, l.norm.Std
	if l.proj != nil {
		ps, err := l.proj.State()
		if err == nil {
			s.HasPCA = true
			s.PCA = *ps
		}
	}
	s.Feats = l.clf.Points()
	s.Labels = l.clf.Labels()
	s.TrainRMSE = l.trainRMSE
	s.FitSeries = l.trainFit
	return s
}

// restoreState rebuilds the trained model from a decoded snapshot. All
// structural invariants are validated first so a corrupt-but-checksummed
// (or hand-crafted) state can never leave the predictor in a panicking
// configuration.
func (l *LARPredictor) restoreState(s *larState) error {
	if !s.Fingerprint.equal(fingerprintOf(l.cfg, l.pool)) {
		return fmt.Errorf("core: state for %v, predictor is %v: %w",
			s.Fingerprint, fingerprintOf(l.cfg, l.pool), ErrStateMismatch)
	}
	if !s.Trained {
		l.trained = false
		l.norm = timeseries.Normalizer{}
		l.proj = nil
		l.clf = nil
		l.trainFit = nil
		l.trainRMSE = nil
		return nil
	}

	if !isFinite(s.NormMean) || !isFinite(s.NormStd) || s.NormStd <= 0 {
		return fmt.Errorf("core: state normalizer (mean=%g std=%g): %w",
			s.NormMean, s.NormStd, ErrBadState)
	}
	if s.HasPCA == l.cfg.DisablePCA {
		return fmt.Errorf("core: state PCA presence %v vs DisablePCA %v: %w",
			s.HasPCA, l.cfg.DisablePCA, ErrStateMismatch)
	}
	if len(s.Feats) == 0 || len(s.Feats) != len(s.Labels) {
		return fmt.Errorf("core: state with %d features, %d labels: %w",
			len(s.Feats), len(s.Labels), ErrBadState)
	}
	if len(s.TrainRMSE) != l.pool.Size() {
		return fmt.Errorf("core: state RMSE for %d experts, pool has %d: %w",
			len(s.TrainRMSE), l.pool.Size(), ErrBadState)
	}
	if len(s.FitSeries) < l.cfg.WindowSize+2 || !allFinite(s.FitSeries) {
		return fmt.Errorf("core: state fit series of %d samples: %w",
			len(s.FitSeries), ErrBadState)
	}
	for i, lab := range s.Labels {
		if lab < 0 || lab >= l.pool.Size() {
			return fmt.Errorf("core: state label %d at frame %d outside pool of %d: %w",
				lab, i, l.pool.Size(), ErrBadState)
		}
	}

	var proj *pca.PCA
	wantDim := l.cfg.WindowSize
	if s.HasPCA {
		var err error
		proj, err = pca.FromState(&s.PCA)
		if err != nil {
			return fmt.Errorf("core: restore PCA: %w", err)
		}
		if proj.InputDim() != l.cfg.WindowSize {
			return fmt.Errorf("core: state PCA over %d dims, window is %d: %w",
				proj.InputDim(), l.cfg.WindowSize, ErrStateMismatch)
		}
		wantDim = proj.Components()
	}
	for i, f := range s.Feats {
		if len(f) != wantDim {
			return fmt.Errorf("core: state feature %d has dimension %d, want %d: %w",
				i, len(f), wantDim, ErrBadState)
		}
	}

	// Refit the parametric experts on the captured normalized training
	// series — deterministic, so their coefficients match the snapshot
	// moment exactly — then rebuild the classifier over the captured
	// training set.
	if err := l.pool.Fit(s.FitSeries); err != nil {
		return fmt.Errorf("core: refit pool from state: %w", err)
	}
	clf, err := knn.NewClassifier(s.Feats, s.Labels, knn.Config{
		K:         l.cfg.K,
		UseKDTree: l.cfg.UseKDTree,
		Vote:      l.cfg.Vote,
	})
	if err != nil {
		return fmt.Errorf("core: rebuild classifier from state: %w", err)
	}

	l.norm = timeseries.Normalizer{Mean: s.NormMean, Std: s.NormStd}
	l.proj = proj
	l.clf = clf
	l.trainFit = s.FitSeries
	l.trainRMSE = s.TrainRMSE
	l.trained = true
	return nil
}

// SaveState serializes the predictor — configuration fingerprint,
// normalizer, PCA basis, k-NN training set, expert fit series, uncertainty
// estimates — in the versioned, checksummed core state format. An untrained
// predictor saves a valid (trivial) state.
func (l *LARPredictor) SaveState(w io.Writer) error {
	return larFrame.Encode(w, l.captureState())
}

// RestoreState loads state written by SaveState into this predictor. The
// predictor must have been constructed with an equivalent Config (including
// pool composition); ErrStateMismatch is returned otherwise, ErrChecksum for
// corrupt bytes, and ErrBadState for structurally invalid payloads. On any
// error the predictor is left unchanged.
func (l *LARPredictor) RestoreState(r io.Reader) error {
	var s larState
	if err := larFrame.Decode(r, &s); err != nil {
		return err
	}
	return l.restoreState(&s)
}

// onlineState is the gob payload of an Online snapshot: the wrapped
// LARPredictor state plus the streaming, QA-audit, fallback-selector, and
// breaker/backoff machinery.
type onlineState struct {
	// Defaulted configuration, compared field-by-field on restore.
	TrainSize, AuditWindow                     int
	MSEThreshold                               float64
	MinRetrainSpacing, MaxHistory              int
	RetrainBackoff                             int
	BackoffFactor                              float64
	MaxBackoff, BreakerThreshold, ProbeSpacing int
	HalfOpenWindow, ThrashLimit, FailureLimit  int
	FallbackWindow                             int

	LAR larState

	History              []float64
	AuditSq              []float64
	AuditNext, AuditLen  int
	Pending              float64
	HasPending           bool
	SinceRetrain         int
	Retrains             int
	Health               int
	Selector             nws.State
	LastFinite           float64
	HasFinite            bool
	BreakerOpen          bool
	HalfOpen             bool
	HalfOpenLeft         int
	Backoff, BackoffLeft int
	ConsecFailures       int
	ThrashRun            int
	LastErr              string
	RetrainFailures      int
	BreakerTrips         int
	DegradedForecasts    int
	FallbackForecasts    int
	TournamentForecasts  int
	DriftDemotions       int

	// Tournament tier and drift detector, present only when the feature was
	// enabled on the saving predictor; presence must match on restore.
	HasTournament   bool
	TournamentCfg   tournament.Config
	TournamentState tournament.State
	HasDrift        bool
	DriftCfg        tournament.DriftConfig
	DriftState      tournament.DriftState
}

// SaveState serializes the streaming predictor: the trained LARPredictor,
// retained history, QA audit ring, fallback-selector statistics, and the
// full health/breaker/backoff state, in the versioned, checksummed core
// state format. A restored predictor resumes forecasting exactly where this
// snapshot was taken.
func (o *Online) SaveState(w io.Writer) error {
	s := &onlineState{
		TrainSize:         o.cfg.TrainSize,
		AuditWindow:       o.cfg.AuditWindow,
		MSEThreshold:      o.cfg.MSEThreshold,
		MinRetrainSpacing: o.cfg.MinRetrainSpacing,
		MaxHistory:        o.cfg.MaxHistory,
		RetrainBackoff:    o.cfg.RetrainBackoff,
		BackoffFactor:     o.cfg.BackoffFactor,
		MaxBackoff:        o.cfg.MaxBackoff,
		BreakerThreshold:  o.cfg.BreakerThreshold,
		ProbeSpacing:      o.cfg.ProbeSpacing,
		HalfOpenWindow:    o.cfg.HalfOpenWindow,
		ThrashLimit:       o.cfg.ThrashLimit,
		FailureLimit:      o.cfg.FailureLimit,
		FallbackWindow:    o.cfg.FallbackWindow,

		LAR: *o.lar.captureState(),

		History:             o.history,
		AuditSq:             o.auditSq,
		AuditNext:           o.auditNext,
		AuditLen:            o.auditLen,
		Pending:             o.pending,
		HasPending:          o.hasPending,
		SinceRetrain:        o.sinceRetrain,
		Retrains:            o.retrains,
		Health:              int(o.health),
		Selector:            o.selector.State(),
		LastFinite:          o.lastFinite,
		HasFinite:           o.hasFinite,
		BreakerOpen:         o.breakerOpen,
		HalfOpen:            o.halfOpen,
		HalfOpenLeft:        o.halfOpenLeft,
		Backoff:             o.backoff,
		BackoffLeft:         o.backoffLeft,
		ConsecFailures:      o.consecFailures,
		ThrashRun:           o.thrashRun,
		RetrainFailures:     o.retrainFailures,
		BreakerTrips:        o.breakerTrips,
		DegradedForecasts:   o.degradedForecasts,
		FallbackForecasts:   o.fallbackForecasts,
		TournamentForecasts: o.tournamentForecasts,
		DriftDemotions:      o.driftDemotions,
	}
	if o.lastErr != nil {
		s.LastErr = o.lastErr.Error()
	}
	if o.tour != nil {
		s.HasTournament = true
		s.TournamentCfg = *o.cfg.Tournament
		s.TournamentState = o.tour.State()
	}
	if o.drift != nil {
		s.HasDrift = true
		s.DriftCfg = *o.cfg.Drift
		s.DriftState = o.drift.State()
	}
	return onlineFrame.Encode(w, s)
}

// RestoreState loads state written by Online.SaveState. The receiver must
// have been constructed by NewOnline with an equivalent OnlineConfig
// (including the wrapped predictor configuration); ErrStateMismatch is
// returned otherwise, ErrChecksum for corrupt bytes, and ErrBadState for
// structurally invalid payloads. On any error the predictor is left in a
// usable (cold) state.
func (o *Online) RestoreState(r io.Reader) error {
	var s onlineState
	if err := onlineFrame.Decode(r, &s); err != nil {
		return err
	}
	if s.TrainSize != o.cfg.TrainSize || s.AuditWindow != o.cfg.AuditWindow ||
		s.MSEThreshold != o.cfg.MSEThreshold || s.MinRetrainSpacing != o.cfg.MinRetrainSpacing ||
		s.MaxHistory != o.cfg.MaxHistory || s.RetrainBackoff != o.cfg.RetrainBackoff ||
		s.BackoffFactor != o.cfg.BackoffFactor || s.MaxBackoff != o.cfg.MaxBackoff ||
		s.BreakerThreshold != o.cfg.BreakerThreshold || s.ProbeSpacing != o.cfg.ProbeSpacing ||
		s.HalfOpenWindow != o.cfg.HalfOpenWindow || s.ThrashLimit != o.cfg.ThrashLimit ||
		s.FailureLimit != o.cfg.FailureLimit || s.FallbackWindow != o.cfg.FallbackWindow {
		return fmt.Errorf("core: online state under different streaming config: %w", ErrStateMismatch)
	}
	if len(s.AuditSq) != o.cfg.AuditWindow ||
		s.AuditNext < 0 || s.AuditNext >= len(s.AuditSq) ||
		s.AuditLen < 0 || s.AuditLen > len(s.AuditSq) {
		return fmt.Errorf("core: online state audit ring %d/%d/%d: %w",
			len(s.AuditSq), s.AuditNext, s.AuditLen, ErrBadState)
	}
	if len(s.History) > o.cfg.MaxHistory {
		return fmt.Errorf("core: online state history of %d > max %d: %w",
			len(s.History), o.cfg.MaxHistory, ErrBadState)
	}
	if s.Health < int(Healthy) || s.Health > int(Failed) {
		return fmt.Errorf("core: online state health %d: %w", s.Health, ErrBadState)
	}
	if s.HasTournament != (o.tour != nil) || s.HasDrift != (o.drift != nil) {
		return fmt.Errorf("core: online state tournament/drift presence %v/%v, predictor %v/%v: %w",
			s.HasTournament, s.HasDrift, o.tour != nil, o.drift != nil, ErrStateMismatch)
	}
	if o.tour != nil && s.TournamentCfg != *o.cfg.Tournament {
		return fmt.Errorf("core: online state under different tournament config: %w", ErrStateMismatch)
	}
	if o.drift != nil && s.DriftCfg != *o.cfg.Drift {
		return fmt.Errorf("core: online state under different drift config: %w", ErrStateMismatch)
	}
	if err := o.lar.restoreState(&s.LAR); err != nil {
		return err
	}
	if err := o.selector.SetState(s.Selector); err != nil {
		return fmt.Errorf("core: restore fallback selector: %w: %v", ErrBadState, err)
	}
	if o.tour != nil {
		if err := o.tour.SetState(s.TournamentState); err != nil {
			return fmt.Errorf("core: restore tournament selector: %w: %v", ErrBadState, err)
		}
	}
	if o.drift != nil {
		if err := o.drift.SetState(s.DriftState); err != nil {
			return fmt.Errorf("core: restore drift detector: %w: %v", ErrBadState, err)
		}
	}

	o.history = append(o.history[:0], s.History...)
	copy(o.auditSq, s.AuditSq)
	o.auditNext = s.AuditNext
	o.auditLen = s.AuditLen
	o.pending = s.Pending
	o.hasPending = s.HasPending
	o.sinceRetrain = s.SinceRetrain
	o.retrains = s.Retrains
	o.health = Health(s.Health)
	o.lastFinite = s.LastFinite
	o.hasFinite = s.HasFinite
	o.breakerOpen = s.BreakerOpen
	o.halfOpen = s.HalfOpen
	o.halfOpenLeft = s.HalfOpenLeft
	o.backoff = s.Backoff
	o.backoffLeft = s.BackoffLeft
	o.consecFailures = s.ConsecFailures
	o.thrashRun = s.ThrashRun
	o.lastErr = nil
	if s.LastErr != "" {
		o.lastErr = errors.New(s.LastErr)
	}
	o.retrainFailures = s.RetrainFailures
	o.breakerTrips = s.BreakerTrips
	o.degradedForecasts = s.DegradedForecasts
	o.fallbackForecasts = s.FallbackForecasts
	o.tournamentForecasts = s.TournamentForecasts
	o.driftDemotions = s.DriftDemotions
	// A restore is not a transition, so the health field was set directly;
	// resync the exported gauges with the restored state.
	o.met.sync(o)
	return nil
}

package cluster

import (
	"errors"
	"sync"
	"time"

	"confaudit/internal/telemetry"
)

// ErrOverloaded is the typed refusal of the node's ingest admission
// boundary: the store was not attempted because the node is over its
// configured rate or inflight-bytes budget. The node acks it with
// ackBody.Overloaded, and the writer's store round backs off and
// retries, which the Appender turns into backpressure.
var ErrOverloaded = errors.New("cluster: node overloaded, ingest admission refused")

// errExceedsCapacity refuses a store no amount of waiting could admit:
// more records than the token bucket holds, or more bytes than the
// inflight cap. Unlike ErrOverloaded it is permanent, so the node acks it
// as a plain refusal and the writer fails instead of backing off forever.
var errExceedsCapacity = errors.New("cluster: batch exceeds ingest admission capacity")

// AdmissionConfig bounds a node's ingest admission: a token-bucket rate
// limit on records and a cap on store bytes concurrently being
// processed. The zero value disables admission control entirely (every
// store is admitted), preserving pre-PR8 behavior.
type AdmissionConfig struct {
	// RecordsPerSec refills the token bucket; <= 0 disables the rate
	// limit.
	RecordsPerSec float64
	// Burst is the bucket capacity in records (default: one second's
	// refill, minimum maxGLSNBatch so a full batch can ever pass).
	Burst int
	// MaxInflightBytes caps the payload bytes of store requests admitted
	// but not yet fully processed; <= 0 disables the bound.
	MaxInflightBytes int64
}

func (c AdmissionConfig) enabled() bool {
	return c.RecordsPerSec > 0 || c.MaxInflightBytes > 0
}

// admission is the node's ingest boundary: one token bucket plus an
// inflight-bytes gauge, checked before any store work (or glsn grant
// wait) happens, so an overloaded node sheds load at the door instead
// of queueing unboundedly.
type admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	tokens   float64
	last     time.Time
	inflight int64

	admitted int64
	rejected int64
}

// newAdmission builds the boundary; returns nil (admit everything) for
// a zero config.
func newAdmission(cfg AdmissionConfig) *admission {
	if !cfg.enabled() {
		return nil
	}
	if cfg.RecordsPerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.RecordsPerSec)
		if cfg.Burst < maxGLSNBatch {
			cfg.Burst = maxGLSNBatch
		}
	}
	return &admission{cfg: cfg, tokens: float64(cfg.Burst), last: time.Now()}
}

// admit asks for records tokens and bytes of inflight budget. On
// success the bytes are held until release(bytes). A refusal is
// ErrOverloaded when the store could pass later, errExceedsCapacity when
// it never could. A nil receiver admits everything.
func (a *admission) admit(records int, bytes int64) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if (a.cfg.RecordsPerSec > 0 && records > a.cfg.Burst) ||
		(a.cfg.MaxInflightBytes > 0 && bytes > a.cfg.MaxInflightBytes) {
		return a.refuse(errExceedsCapacity)
	}
	if a.cfg.MaxInflightBytes > 0 && a.inflight+bytes > a.cfg.MaxInflightBytes {
		return a.refuse(ErrOverloaded)
	}
	if a.cfg.RecordsPerSec > 0 {
		now := time.Now()
		a.tokens += now.Sub(a.last).Seconds() * a.cfg.RecordsPerSec
		a.last = now
		if max := float64(a.cfg.Burst); a.tokens > max {
			a.tokens = max
		}
		if a.tokens < float64(records) {
			return a.refuse(ErrOverloaded)
		}
		a.tokens -= float64(records)
		telemetry.M.Gauge(telemetry.GaugeAdmissionTokens).Set(int64(a.tokens))
	}
	a.inflight += bytes
	a.admitted++
	telemetry.M.Counter(telemetry.CtrAdmissionAdmitted).Add(1)
	telemetry.M.Gauge(telemetry.GaugeAdmissionBytes).Set(a.inflight)
	return nil
}

// refuse counts one refusal and returns err; a.mu is held.
func (a *admission) refuse(err error) error {
	a.rejected++
	telemetry.M.Counter(telemetry.CtrAdmissionRejected).Add(1)
	return err
}

// release returns bytes of inflight budget once the admitted store has
// been processed (acked or refused downstream).
func (a *admission) release(bytes int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.inflight -= bytes
	if a.inflight < 0 {
		a.inflight = 0
	}
	telemetry.M.Gauge(telemetry.GaugeAdmissionBytes).Set(a.inflight)
	a.mu.Unlock()
}

// AdmissionStatus is a point-in-time snapshot of a node's ingest
// admission boundary, rendered by `dlactl ingest status`. Counts,
// levels, and configured bounds only.
type AdmissionStatus struct {
	// Enabled reports whether any admission bound is configured.
	Enabled bool `json:"enabled"`
	// RecordsPerSec and Burst echo the token-bucket configuration.
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	Burst         int     `json:"burst,omitempty"`
	// Tokens is the current bucket fill (refreshed at snapshot time).
	Tokens float64 `json:"tokens,omitempty"`
	// MaxInflightBytes and InflightBytes are the inflight-bytes bound
	// and its current level.
	MaxInflightBytes int64 `json:"max_inflight_bytes,omitempty"`
	InflightBytes    int64 `json:"inflight_bytes"`
	// Admitted and Rejected count admission decisions since start.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// AdmissionStatus snapshots the node's ingest admission state; the zero
// status (Enabled=false) means no bounds are configured.
func (n *Node) AdmissionStatus() AdmissionStatus {
	a := n.adm
	if a == nil {
		return AdmissionStatus{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionStatus{
		Enabled:          true,
		RecordsPerSec:    a.cfg.RecordsPerSec,
		Burst:            a.cfg.Burst,
		MaxInflightBytes: a.cfg.MaxInflightBytes,
		InflightBytes:    a.inflight,
		Admitted:         a.admitted,
		Rejected:         a.rejected,
	}
	if a.cfg.RecordsPerSec > 0 {
		// Refresh the bucket so the reported fill reflects "now", not the
		// last admit.
		now := time.Now()
		a.tokens += now.Sub(a.last).Seconds() * a.cfg.RecordsPerSec
		a.last = now
		if max := float64(a.cfg.Burst); a.tokens > max {
			a.tokens = max
		}
		st.Tokens = a.tokens
	}
	return st
}

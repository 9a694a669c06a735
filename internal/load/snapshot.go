package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"wayplace/internal/api"
)

// SnapshotSchema versions the BENCH_wpload.json layout, mirroring
// obs.SnapshotSchema for wpbench runs: trajectory tooling rejects
// files it does not understand.
const SnapshotSchema = "wpload-snapshot/v1"

// SLOResult records the envelope a run was checked against and the
// verdict, so a committed snapshot is self-describing: a reader needs
// no CLI flags to know what "pass" meant.
type SLOResult struct {
	HTTPP50MaxSeconds float64  `json:"http_p50_max_seconds,omitempty"`
	HTTPP99MaxSeconds float64  `json:"http_p99_max_seconds,omitempty"`
	CellP99MaxSeconds float64  `json:"cell_p99_max_seconds,omitempty"`
	Max429Rate        float64  `json:"max_429_rate"`
	MaxErrorRate      float64  `json:"max_error_rate"`
	Violations        []string `json:"violations,omitempty"`
	Pass              bool     `json:"pass"`
}

// Snapshot is the machine-readable record of one load run — the
// payload of BENCH_wpload.json.
type Snapshot struct {
	Schema     string `json:"schema"`
	APIVersion string `json:"api_version,omitempty"`
	Command    string `json:"command"`
	UnixTime   int64  `json:"unix_time,omitempty"`

	// Shape of the run.
	Target          string  `json:"target"` // "loopback" or the -addr URL
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_seconds"`
	AsyncFraction   float64 `json:"async_fraction"`
	MaxBatchCells   int     `json:"max_batch_cells"`
	ZipfS           float64 `json:"zipf_s"`
	Churn           float64 `json:"churn"`
	PoolCells       int     `json:"pool_cells"`

	// What the clients saw.
	Requests   uint64 `json:"http_requests"`
	Batches    uint64 `json:"batches_done"`
	Cells      uint64 `json:"cells_done"`
	Status429  uint64 `json:"http_429"`
	Retries    uint64 `json:"retries"`
	Dropped    uint64 `json:"batches_dropped"`
	Errors     uint64 `json:"batch_errors"`
	Aborts     uint64 `json:"batches_aborted"`
	AsyncPolls uint64 `json:"async_polls"`

	HTTPP50Seconds  float64 `json:"http_p50_seconds"`
	HTTPP99Seconds  float64 `json:"http_p99_seconds"`
	BatchP50Seconds float64 `json:"batch_p50_seconds"`
	BatchP99Seconds float64 `json:"batch_p99_seconds"`
	CellP50Seconds  float64 `json:"cell_p50_seconds"`
	CellP99Seconds  float64 `json:"cell_p99_seconds"`

	Rate429          float64 `json:"rate_429"`
	ErrorRate        float64 `json:"error_rate"`
	BatchesPerSecond float64 `json:"batches_per_second"`
	CellsPerSecond   float64 `json:"cells_per_second"`

	SLO *SLOResult `json:"slo,omitempty"`
	// Fleet records the sharded-serving measurement when the run went
	// through a wpcoordd-style coordinator (wpload -fleet).
	Fleet *FleetSnapshot `json:"fleet,omitempty"`
	// Tenants records the hog-vs-polite fairness measurement
	// (wpload -tenants).
	Tenants *TenantsSnapshot `json:"tenants,omitempty"`
}

// FleetSnapshot is the fleet section of BENCH_wpload.json: the
// 1-vs-N cold-pool scaling measurement and the once-per-fleet cache
// invariant.
type FleetSnapshot struct {
	Backends             int     `json:"backends"`
	ScalePoolCells       int     `json:"scale_pool_cells"`
	PrepDelaySeconds     float64 `json:"prep_delay_seconds,omitempty"`
	HostCPUs             int     `json:"host_cpus,omitempty"`
	SingleCellsPerSecond float64 `json:"single_backend_cells_per_second"`
	FleetCellsPerSecond  float64 `json:"fleet_cells_per_second"`
	Speedup              float64 `json:"speedup"`
	MinSpeedup           float64 `json:"min_speedup,omitempty"`
	SimulatedCells       uint64  `json:"simulated_cells"`
	OncePerFleet         bool    `json:"once_per_fleet"`
}

// TenantLegSnapshot is one tenant's view of one fairness leg.
type TenantLegSnapshot struct {
	Tenant           string  `json:"tenant"`
	Batches          uint64  `json:"batches_done"`
	Dropped          uint64  `json:"batches_dropped,omitempty"`
	OverQuota        uint64  `json:"http_over_quota"`
	BatchesPerSecond float64 `json:"batches_per_second"`
	BatchP50Seconds  float64 `json:"batch_p50_seconds"`
	BatchP99Seconds  float64 `json:"batch_p99_seconds"`
}

// TenantsSnapshot is the fairness section of BENCH_wpload.json: the
// solo baseline, the hog's view, each polite tenant's view, and the
// gate verdict.
type TenantsSnapshot struct {
	Tenants             int                 `json:"tenants"`
	QueueDepth          int                 `json:"queue_depth"`
	TenantSlots         int                 `json:"tenant_slots"`
	ServiceDelaySeconds float64             `json:"service_delay_seconds"`
	Solo                TenantLegSnapshot   `json:"solo"`
	Hog                 TenantLegSnapshot   `json:"hog"`
	Polite              []TenantLegSnapshot `json:"polite"`
	Violations          []string            `json:"violations,omitempty"`
	Pass                bool                `json:"pass"`
}

// BatchP99 converts the leg's batch p99 back to a duration, exact
// to the nanosecond the histogram reported.
func (l TenantLegSnapshot) BatchP99() time.Duration {
	return time.Duration(math.Round(l.BatchP99Seconds * float64(time.Second)))
}

// Snapshot converts a Report into the persistent form; the run's
// shape comes from the generator's resolved options. slo may be nil
// when the run asserted nothing.
func (r *Report) Snapshot(command, target string, slo *SLO) *Snapshot {
	opt := r.opt
	s := &Snapshot{
		Schema:     SnapshotSchema,
		APIVersion: api.Version,
		Command:    command,
		Target:     target,

		Clients:         opt.Clients,
		DurationSeconds: r.Elapsed.Seconds(),
		AsyncFraction:   opt.AsyncFraction,
		MaxBatchCells:   opt.MaxBatchCells,
		ZipfS:           opt.ZipfS,
		Churn:           opt.Churn,
		PoolCells:       len(opt.Pool),

		Requests:   r.Requests,
		Batches:    r.Batches,
		Cells:      r.Cells,
		Status429:  r.Status429,
		Retries:    r.Retries,
		Dropped:    r.Dropped,
		Errors:     r.Errors,
		Aborts:     r.Aborts,
		AsyncPolls: r.AsyncPolls,

		HTTPP50Seconds:  r.HTTPP50.Seconds(),
		HTTPP99Seconds:  r.HTTPP99.Seconds(),
		BatchP50Seconds: r.BatchP50.Seconds(),
		BatchP99Seconds: r.BatchP99.Seconds(),
		CellP50Seconds:  r.CellP50.Seconds(),
		CellP99Seconds:  r.CellP99.Seconds(),

		Rate429:          r.Rate429,
		ErrorRate:        r.ErrorRate,
		BatchesPerSecond: r.BatchesPerSecond,
		CellsPerSecond:   r.CellsPerSecond,
	}
	if slo != nil {
		violations := slo.Check(r)
		s.SLO = &SLOResult{
			HTTPP50MaxSeconds: slo.HTTPP50Max.Seconds(),
			HTTPP99MaxSeconds: slo.HTTPP99Max.Seconds(),
			CellP99MaxSeconds: slo.CellP99Max.Seconds(),
			Max429Rate:        slo.Max429Rate,
			MaxErrorRate:      slo.MaxErrorRate,
			Violations:        violations,
			Pass:              len(violations) == 0,
		}
	}
	return s
}

// Durations in the report round-trip through seconds in the snapshot;
// these accessors convert back for tooling that compares runs.
func (s *Snapshot) HTTPP50() time.Duration {
	return time.Duration(s.HTTPP50Seconds * float64(time.Second))
}
func (s *Snapshot) HTTPP99() time.Duration {
	return time.Duration(s.HTTPP99Seconds * float64(time.Second))
}

// Encode writes the snapshot as indented JSON.
func (s *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshotFile reads a snapshot back, validating the schema tag.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("load: %s: schema %q, want %q", path, s.Schema, SnapshotSchema)
	}
	return &s, nil
}

// Package api is the versioned, JSON-serializable schema for
// describing simulation cells and their results — the one way every
// consumer (the CLIs, the wpserved network service, snapshots and
// scripts) names a cell. It mirrors engine.RunSpec field for field and
// converts losslessly in both directions, so a request built from
// flags, a request POSTed over HTTP and a spec constructed in Go all
// denote the same simulation and hit the same run-cache entry.
//
// The schema is versioned (Version) and validation is field-level: a
// malformed request reports every bad field with its JSON path, so
// HTTP 400 responses and CLI errors are actionable without reading
// server logs.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/sim"
)

// Version tags the request/response schema. Clients send it in
// BatchRequest.APIVersion (optional — empty means current); servers
// echo it in every response and reject versions they do not speak.
const Version = "v1"

// Scheme names accepted on the wire, matching energy.Scheme.String().
const (
	SchemeBaseline       = "baseline"
	SchemeWayPlacement   = "wayplace"
	SchemeWayMemoization = "waymem"
)

// ParseScheme maps a wire scheme name to the energy-model enum.
func ParseScheme(s string) (energy.Scheme, error) {
	switch s {
	case SchemeBaseline:
		return energy.Baseline, nil
	case SchemeWayPlacement:
		return energy.WayPlacement, nil
	case SchemeWayMemoization:
		return energy.WayMemoization, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want %s, %s or %s)",
		s, SchemeBaseline, SchemeWayPlacement, SchemeWayMemoization)
}

// Array-style names accepted on the wire, matching
// energy.ArrayStyle.String().
const (
	StyleCAMTag = "cam-tag"
	StyleRAMTag = "ram-tag"
)

// ParseStyle maps a wire array-style name to the energy-model enum.
// Empty selects the default (CAM-tag, inheriting any server-side base
// template style).
func ParseStyle(s string) (energy.ArrayStyle, error) {
	switch s {
	case "", StyleCAMTag:
		return energy.CAMTag, nil
	case StyleRAMTag:
		return energy.RAMTag, nil
	}
	return 0, fmt.Errorf("unknown array style %q (want %q or %q)", s, StyleCAMTag, StyleRAMTag)
}

// ParsePolicy maps a wire replacement-policy name to the cache enum.
// Empty selects the default (round-robin).
func ParsePolicy(s string) (cache.Policy, error) {
	switch s {
	case "", cache.RoundRobin.String():
		return cache.RoundRobin, nil
	case cache.LRU.String():
		return cache.LRU, nil
	}
	return 0, fmt.Errorf("unknown replacement policy %q (want %q or %q)",
		s, cache.RoundRobin, cache.LRU)
}

// CacheGeometry is the serializable form of cache.Config.
type CacheGeometry struct {
	SizeBytes int `json:"size_bytes"`
	Ways      int `json:"ways"`
	LineBytes int `json:"line_bytes"`
	// Policy is the replacement policy name ("round-robin", "lru");
	// empty means round-robin.
	Policy string `json:"policy,omitempty"`
}

// Config converts the geometry to the cache-model form.
func (g CacheGeometry) Config() (cache.Config, error) {
	pol, err := ParsePolicy(g.Policy)
	if err != nil {
		return cache.Config{}, err
	}
	return cache.Config{SizeBytes: g.SizeBytes, Ways: g.Ways, LineBytes: g.LineBytes, Policy: pol}, nil
}

// GeometryOf captures a cache.Config as wire geometry. The default
// policy is omitted so round-robin requests stay minimal.
func GeometryOf(c cache.Config) CacheGeometry {
	g := CacheGeometry{SizeBytes: c.SizeBytes, Ways: c.Ways, LineBytes: c.LineBytes}
	if c.Policy != cache.RoundRobin {
		g.Policy = c.Policy.String()
	}
	return g
}

// AdaptivePolicySpec is the serializable adaptive-OS area policy
// (sim.AdaptivePolicy without the test-only Inspect hook).
type AdaptivePolicySpec struct {
	IntervalInstrs uint64  `json:"interval_instrs"`
	StartSizeBytes uint32  `json:"start_size_bytes"`
	MinSizeBytes   uint32  `json:"min_size_bytes,omitempty"`
	MaxSizeBytes   uint32  `json:"max_size_bytes,omitempty"`
	GrowThreshold  float64 `json:"grow_threshold,omitempty"`
	AliasMissRate  float64 `json:"alias_miss_rate,omitempty"`
}

// EngineSpec converts the policy to the engine's comparable form.
func (a AdaptivePolicySpec) EngineSpec() engine.AdaptiveSpec {
	return engine.AdaptiveSpec{
		IntervalInstrs: a.IntervalInstrs,
		StartSize:      a.StartSizeBytes,
		MinSize:        a.MinSizeBytes,
		MaxSize:        a.MaxSizeBytes,
		GrowThreshold:  a.GrowThreshold,
		AliasMissRate:  a.AliasMissRate,
	}
}

// AdaptiveOf captures an engine adaptive spec on the wire; nil when
// the cell is not adaptive.
func AdaptiveOf(a engine.AdaptiveSpec) *AdaptivePolicySpec {
	if !a.Enabled() {
		return nil
	}
	return &AdaptivePolicySpec{
		IntervalInstrs: a.IntervalInstrs,
		StartSizeBytes: a.StartSize,
		MinSizeBytes:   a.MinSize,
		MaxSizeBytes:   a.MaxSize,
		GrowThreshold:  a.GrowThreshold,
		AliasMissRate:  a.AliasMissRate,
	}
}

// RunRequest describes one simulation cell: workload, I-cache
// geometry, fetch scheme, static way-placement area size, and — for
// adaptive-OS cells — the resize policy. It is the JSON twin of
// engine.RunSpec.
type RunRequest struct {
	Workload    string        `json:"workload"`
	ICache      CacheGeometry `json:"icache"`
	Scheme      string        `json:"scheme"`
	WPSizeBytes uint32        `json:"wp_size_bytes,omitempty"`
	// Style is the cache array organisation for the energy model
	// ("cam-tag", "ram-tag"); empty means CAM-tag.
	Style string `json:"style,omitempty"`
	// OracleHint and NoSameLine are the way-placement ablation
	// switches: perfect way prediction instead of the 1-bit hint, and
	// the same-line tag-check skip disabled.
	OracleHint bool                `json:"oracle_hint,omitempty"`
	NoSameLine bool                `json:"no_same_line,omitempty"`
	Adaptive   *AdaptivePolicySpec `json:"adaptive,omitempty"`
}

// FieldError locates one invalid field by its JSON path.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// ValidationError aggregates every field-level problem of a request
// (or batch), so a client can fix all of them in one round trip.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	if len(e.Fields) == 0 {
		return "invalid request"
	}
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "invalid request: " + strings.Join(msgs, "; ")
}

// add appends a field error with the given path prefix.
func (e *ValidationError) add(prefix, field, format string, args ...any) {
	if prefix != "" {
		field = prefix + "." + field
	}
	e.Fields = append(e.Fields, FieldError{Field: field, Message: fmt.Sprintf(format, args...)})
}

// or returns nil when no field failed.
func (e *ValidationError) or() error {
	if len(e.Fields) == 0 {
		return nil
	}
	return e
}

// Validate checks the request and returns a *ValidationError listing
// every invalid field (paths relative to the request object).
func (r RunRequest) Validate() error {
	_, err := r.spec("")
	return err
}

// wireFields maps the RunSpec fields named by engine.Violation to
// their JSON paths.
var wireFields = map[string]string{
	"ICache":                  "icache",
	"WPSize":                  "wp_size_bytes",
	"Style":                   "style",
	"OracleHint":              "oracle_hint",
	"NoSameLine":              "no_same_line",
	"Adaptive":                "adaptive",
	"Adaptive.IntervalInstrs": "adaptive.interval_instrs",
	"Adaptive.StartSize":      "adaptive.start_size_bytes",
}

// spec parses the request into its engine cell and checks it, with
// field errors under prefix. The api checks only the wire form — a
// workload, and scheme, style and policy names it knows; which cells
// exist is engine.RunSpec.Validate's to say, and each rule it reports
// lands on the field's JSON path.
func (r RunRequest) spec(prefix string) (engine.RunSpec, error) {
	var verr ValidationError
	if r.Workload == "" {
		verr.add(prefix, "workload", "must be set")
	}
	// An unknown scheme parses as the baseline, so the rules that
	// need way-placement report against it too.
	scheme, err := ParseScheme(r.Scheme)
	if err != nil {
		verr.add(prefix, "scheme", "%v", err)
	}
	icfg, policyErr := r.ICache.Config()
	if policyErr != nil {
		verr.add(prefix, "icache.policy", "%v", policyErr)
	}
	// An unknown style parses as CAM-tag, which no rule refuses.
	style, styleErr := ParseStyle(r.Style)
	spec := engine.RunSpec{
		Workload:   r.Workload,
		ICache:     icfg,
		Scheme:     scheme,
		WPSize:     r.WPSizeBytes,
		Style:      style,
		OracleHint: r.OracleHint,
		NoSameLine: r.NoSameLine,
	}
	if r.Adaptive != nil {
		spec.Adaptive = r.Adaptive.EngineSpec()
		if !spec.Adaptive.Enabled() {
			// An empty policy object still asks for an adaptive cell,
			// but a zero AdaptiveSpec is a static one: check the rules
			// on a stand-in policy that is adaptive yet names neither
			// an interval nor a start size. The engine refuses it, so
			// the stand-in never leaves this function.
			spec.Adaptive.MinSize = 1
		}
	}
	var violations []engine.Violation
	if err := spec.Validate(); err != nil {
		violations = err.(*engine.SpecError).Violations
	}
	for _, v := range violations {
		if styleErr != nil && v.Field != "ICache" && (v.Field != "WPSize" || scheme == energy.WayPlacement) {
			// The style error sits after the geometry and static-area
			// errors and before the switch and policy ones.
			verr.add(prefix, "style", "%v", styleErr)
			styleErr = nil
		}
		if v.Field == "ICache" && policyErr != nil {
			continue // no geometry to check without a policy
		}
		verr.add(prefix, wireFields[v.Field], "%s", v.Message)
	}
	if styleErr != nil {
		verr.add(prefix, "style", "%v", styleErr)
	}
	if err := verr.or(); err != nil {
		return engine.RunSpec{}, err
	}
	return spec, nil
}

// Spec converts a request to the engine cell. It validates first, so
// conversion of a malformed request fails with the same field-level
// error the wire surface reports.
func (r RunRequest) Spec() (engine.RunSpec, error) { return r.spec("") }

// Key returns the engine's canonical cell key for a valid request and
// "" for an invalid one.
func (r RunRequest) Key() string {
	spec, err := r.Spec()
	if err != nil {
		return ""
	}
	return spec.Key()
}

// RequestOf captures an engine cell on the wire. Spec undoes it: for
// every valid spec s, RequestOf(s).Spec() is s.
func RequestOf(s engine.RunSpec) RunRequest {
	req := RunRequest{
		Workload:    s.Workload,
		ICache:      GeometryOf(s.ICache),
		Scheme:      s.Scheme.String(),
		WPSizeBytes: s.WPSize,
		OracleHint:  s.OracleHint,
		NoSameLine:  s.NoSameLine,
		Adaptive:    AdaptiveOf(s.Adaptive),
	}
	// The default style is omitted so CAM-tag requests stay minimal.
	if s.Style != energy.CAMTag {
		req.Style = s.Style.String()
	}
	return req
}

// ToSpecs converts a batch, aggregating field errors under their
// requests[i] path.
func ToSpecs(reqs []RunRequest) ([]engine.RunSpec, error) {
	specs := make([]engine.RunSpec, len(reqs))
	var verr ValidationError
	for i, r := range reqs {
		spec, err := r.spec(fmt.Sprintf("requests[%d]", i))
		if err != nil {
			verr.Fields = append(verr.Fields, err.(*ValidationError).Fields...)
			continue
		}
		specs[i] = spec
	}
	if err := verr.or(); err != nil {
		return nil, err
	}
	return specs, nil
}

// AreaChange mirrors sim.AreaChange on the wire.
type AreaChange struct {
	AtInstr   uint64 `json:"at_instr"`
	SizeBytes uint32 `json:"size_bytes"`
}

// AreaChangesOf captures a resize trace on the wire; nil when empty,
// so static cells omit the field.
func AreaChangesOf(changes []sim.AreaChange) []AreaChange {
	if len(changes) == 0 {
		return nil
	}
	out := make([]AreaChange, len(changes))
	for i, ch := range changes {
		out[i] = AreaChange{AtInstr: ch.AtInstr, SizeBytes: ch.Size}
	}
	return out
}

// SimAreaChanges is the inverse of AreaChangesOf.
func SimAreaChanges(wire []AreaChange) []sim.AreaChange {
	if len(wire) == 0 {
		return nil
	}
	out := make([]sim.AreaChange, len(wire))
	for i, ch := range wire {
		out[i] = sim.AreaChange{AtInstr: ch.AtInstr, Size: ch.SizeBytes}
	}
	return out
}

// RunResult is one cell's outcome: the echoed request, the canonical
// key, provenance (cache hit, wall seconds) and the full statistics.
type RunResult struct {
	Request     RunRequest `json:"request"`
	Key         string     `json:"key"`
	CacheHit    bool       `json:"cache_hit"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	// GroupID names the single-pass group that simulated this cell
	// server-side ("<workload>/original" or "<workload>/placed");
	// every fresh cell carries one, cache hits none. Informational —
	// grouping never changes statistics.
	GroupID     string        `json:"group_id,omitempty"`
	Stats       *sim.RunStats `json:"stats"`
	AreaChanges []AreaChange  `json:"area_changes,omitempty"`
}

// ResultOf captures an engine result on the wire.
func ResultOf(res *engine.Result) RunResult {
	return RunResult{
		Request:     RequestOf(res.Spec),
		Key:         res.Spec.Key(),
		CacheHit:    res.CacheHit,
		WallSeconds: res.Wall.Seconds(),
		GroupID:     res.GroupID,
		Stats:       res.Stats,
		AreaChanges: AreaChangesOf(res.AreaChanges),
	}
}

// CellFailure reports one failed cell of a batch by input index.
type CellFailure struct {
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"`
	Error string `json:"error"`
}

// Batch statuses, as reported by BatchResponse.Status.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// BatchRequest is the POST /v1/runs payload.
type BatchRequest struct {
	// APIVersion is optional; empty means the current Version.
	APIVersion string       `json:"api_version,omitempty"`
	Requests   []RunRequest `json:"requests"`
	// Async requests job-style execution: the server answers
	// immediately with a job id to poll at GET /v1/runs/{id}.
	Async bool `json:"async,omitempty"`
}

// BatchResponse answers both POST /v1/runs and GET /v1/runs/{id}.
// Results holds one entry per request, in request order, with nil
// Stats (and a matching entry in Errors) for failed cells.
type BatchResponse struct {
	APIVersion string `json:"api_version"`
	JobID      string `json:"job_id"`
	Status     string `json:"status"`
	// Tenant echoes the X-WP-Tenant header of the submitting request.
	// Omitted when the client sent none — a derived default tenant is
	// an accounting detail, not part of the client's wire contract.
	Tenant  string        `json:"tenant,omitempty"`
	Results []RunResult   `json:"results,omitempty"`
	Errors  []CellFailure `json:"errors,omitempty"`
}

// Machine-readable error codes carried by ErrorResponse.Code. Codes
// are additive to the v1 schema: old clients ignore them and keep
// inferring retryability from the Retry-After header; code-aware
// clients switch on Code/Retryable instead.
const (
	// CodeInvalidRequest: the request body failed validation (details
	// in Fields). Not retryable as-is.
	CodeInvalidRequest = "invalid_request"
	// CodeUnsupportedVersion: the client speaks an api_version this
	// server does not. Not retryable.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeQueueFull: the server-wide slot pool (or async pool) is
	// exhausted, or the server is draining — a global condition every
	// tenant observes. Retryable after the global Retry-After hint.
	CodeQueueFull = "queue_full"
	// CodeOverQuota: this tenant is at its own concurrency quota while
	// other tenants' capacity remains. Retryable after the per-tenant
	// Retry-After hint; polite tenants never see it.
	CodeOverQuota = "over_quota"
	// CodeBatchTooLarge: the batch exceeds the server's max cell
	// count. Never retryable as-is — resubmit as smaller batches.
	CodeBatchTooLarge = "batch_too_large"
	// CodeJobUnknown: the polled job id is unknown (expired, evicted,
	// or never submitted here). Not retryable.
	CodeJobUnknown = "job_unknown"
	// CodeStoreFailure: the durable journal/store rejected the write;
	// the request itself is fine. Retryable.
	CodeStoreFailure = "store_failure"
)

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error  string       `json:"error"`
	Fields []FieldError `json:"fields,omitempty"`
	// Code is the machine-readable error class (one of the Code*
	// constants); empty on answers from pre-code servers.
	Code string `json:"code,omitempty"`
	// Retryable reports whether resubmitting the identical request can
	// succeed once the condition named by Code clears.
	Retryable bool `json:"retryable,omitempty"`
	// RetryAfterSeconds accompanies 429 responses (mirrors the
	// Retry-After header for clients that only read bodies).
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// BatchKey derives a deterministic job id from the canonical cell keys
// of a batch: identical batches — across clients and processes — map
// to the same id, so async re-submissions attach to the in-flight job
// instead of queueing duplicate work. Invalid requests contribute
// their empty key; callers validate before relying on the id.
func BatchKey(reqs []RunRequest) string {
	h := sha256.New()
	h.Write([]byte(Version + "\n"))
	for _, r := range reqs {
		h.Write([]byte(r.Key()))
		h.Write([]byte{'\n'})
	}
	return "job-" + hex.EncodeToString(h.Sum(nil))[:16]
}

package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/serve"
)

// TenantBenchOptions configures one multi-tenant fairness
// measurement: a solo baseline leg, then a contended leg where one
// hog fleet tries to saturate the server while polite fleets keep
// their modest cadence.
type TenantBenchOptions struct {
	// Tenants is the contended leg's tenant count: 1 hog plus
	// Tenants-1 polite fleets. Default 4, minimum 2.
	Tenants int
	// Duration of each leg (default 3s).
	Duration time.Duration
	// PoliteClients is each polite tenant's concurrent client count
	// (default 6) — comfortably inside TenantSlots, the way a
	// well-behaved team uses a shared server. HogClients (default 96)
	// is the hog's — an order of magnitude past its quota.
	PoliteClients int
	HogClients    int
	// QueueDepth / TenantSlots / AdmitWait shape the server under
	// test (defaults 32 / 8 / 400ms). TenantSlots bounds what the hog
	// can hold; AdmitWait lets briefly-contended polite batches park
	// instead of bouncing.
	QueueDepth  int
	TenantSlots int
	AdmitWait   time.Duration
	// ServiceDelay is the artificial per-cell service time (default
	// 3ms). Warm cells answer in microseconds, so without a floor on
	// slot occupancy nothing would ever contend and the bench would
	// measure HTTP overhead, not scheduling.
	ServiceDelay time.Duration
	// MaxP99Factor bounds each polite tenant's contended batch p99 at
	// MaxP99Factor x its solo baseline (default 2.0; an absolute
	// 100ms grace on top absorbs the power-of-two histogram-bucket
	// quantisation on fast hosts). MinShareFactor bounds each polite
	// tenant's contended throughput at MinShareFactor x its solo
	// throughput (default 0.7).
	MaxP99Factor   float64
	MinShareFactor float64
	// Log receives progress lines (nil = quiet).
	Log io.Writer
}

// p99Grace absorbs histogram-bucket quantisation: solo and contended
// p99s land in power-of-two buckets, so on a fast host one bucket
// step can exceed MaxP99Factor alone without meaning anything.
const p99Grace = 100 * time.Millisecond

// TenantBench measures quota isolation end to end: leg one runs a
// single polite fleet against an idle (but identically configured)
// server for its baseline latency and throughput; leg two adds a hog
// fleet an order of magnitude past its quota plus Tenants-1 polite
// fleets, all concurrently. The gate asserts each polite tenant kept
// its solo-like service — p99 within MaxP99Factor of baseline,
// throughput within MinShareFactor — while the hog, and only the
// hog, absorbed over_quota rejections.
func TenantBench(ctx context.Context, opt TenantBenchOptions) (*TenantsSnapshot, error) {
	if opt.Tenants == 0 {
		opt.Tenants = 4
	}
	if opt.Tenants < 2 {
		return nil, fmt.Errorf("load: tenant bench needs >= 2 tenants (1 hog + polite), got %d", opt.Tenants)
	}
	if opt.Duration == 0 {
		opt.Duration = 3 * time.Second
	}
	if opt.PoliteClients == 0 {
		opt.PoliteClients = 6
	}
	if opt.HogClients == 0 {
		opt.HogClients = 96
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 32
	}
	if opt.TenantSlots == 0 {
		opt.TenantSlots = 8
	}
	if opt.AdmitWait == 0 {
		opt.AdmitWait = 400 * time.Millisecond
	}
	if opt.ServiceDelay == 0 {
		opt.ServiceDelay = 3 * time.Millisecond
	}
	if opt.MaxP99Factor == 0 {
		opt.MaxP99Factor = 2.0
	}
	if opt.MinShareFactor == 0 {
		opt.MinShareFactor = 0.7
	}

	boot := func() (*Loopback, error) {
		return StartLoopback(LoopbackOptions{
			QueueDepth:   opt.QueueDepth,
			ServiceDelay: opt.ServiceDelay,
			// A short per-tenant hint: over-quota is the tenant's own
			// transient state, worth re-probing sooner than a full
			// global backoff.
			Tenancy: serve.TenancyOptions{
				Slots:      opt.TenantSlots,
				AdmitWait:  opt.AdmitWait,
				RetryAfter: 50 * time.Millisecond,
			},
		})
	}

	// Leg one: one polite fleet, empty server — the baseline every
	// contended polite tenant is held to.
	lb, err := boot()
	if err != nil {
		return nil, err
	}
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "wpload: tenant bench: solo leg: %d polite clients for %v...\n",
			opt.PoliteClients, opt.Duration)
	}
	solo, err := runTenantFleet(ctx, lb.URL, "polite-0", opt.PoliteClients, opt)
	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	lb.Close(closeCtx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("load: solo leg: %w", err)
	}
	if solo.Batches == 0 {
		return nil, fmt.Errorf("load: solo leg completed no batches — nothing to compare against")
	}

	// Leg two: hog + polite fleets concurrently against a fresh,
	// identically configured server.
	lb, err = boot()
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.Close(ctx)
	}()
	polite := opt.Tenants - 1
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "wpload: tenant bench: contended leg: 1 hog (%d clients) + %d polite (%d clients each) for %v...\n",
			opt.HogClients, polite, opt.PoliteClients, opt.Duration)
	}
	legs := make([]TenantLegSnapshot, 1+polite)
	errs := make([]error, 1+polite)
	var wg sync.WaitGroup
	wg.Add(1 + polite)
	go func() {
		defer wg.Done()
		legs[0], errs[0] = runTenantFleet(ctx, lb.URL, "hog", opt.HogClients, opt)
	}()
	for i := 1; i <= polite; i++ {
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("polite-%d", i)
			legs[i], errs[i] = runTenantFleet(ctx, lb.URL, tenant, opt.PoliteClients, opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("load: contended leg, fleet %d: %w", i, err)
		}
	}

	res := &TenantsSnapshot{
		Tenants:             opt.Tenants,
		QueueDepth:          opt.QueueDepth,
		TenantSlots:         opt.TenantSlots,
		ServiceDelaySeconds: opt.ServiceDelay.Seconds(),
		Solo:                solo,
		Hog:                 legs[0],
		Polite:              legs[1:],
	}
	res.Violations = tenantGate(res, opt)
	res.Pass = len(res.Violations) == 0
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "wpload: tenant bench: solo %.0f batches/s p99 %v; hog %.0f batches/s (%d over-quota)\n",
			solo.BatchesPerSecond, solo.BatchP99(), legs[0].BatchesPerSecond, legs[0].OverQuota)
		for _, p := range res.Polite {
			fmt.Fprintf(opt.Log, "wpload: tenant bench: %s %.0f batches/s p99 %v (%d over-quota)\n",
				p.Tenant, p.BatchesPerSecond, p.BatchP99(), p.OverQuota)
		}
	}
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("load: fairness gate: %d violation(s): %v", len(res.Violations), res.Violations)
	}
	return res, nil
}

// runTenantFleet drives one tenant's client fleet for one leg and
// distils its view.
func runTenantFleet(ctx context.Context, url, tenant string, clients int, opt TenantBenchOptions) (TenantLegSnapshot, error) {
	g, err := New(Options{
		BaseURL:  url,
		Pool:     Pool(SyntheticNames(4), SyntheticGeometry(), nil),
		Tenant:   api.Tenant(tenant),
		Clients:  clients,
		Duration: opt.Duration,
		// All sync, so batch latency measures admission scheduling,
		// not poll cadence.
		AsyncFraction: 0,
		// Over-quota hints are ~50ms; honour them fully so the hog
		// keeps probing at the server's own cadence.
		MaxRetryBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		return TenantLegSnapshot{}, err
	}
	r, err := g.Run(ctx)
	if err != nil {
		return TenantLegSnapshot{}, err
	}
	return TenantLegSnapshot{
		Tenant:           tenant,
		Batches:          r.Batches,
		Dropped:          r.Dropped,
		OverQuota:        r.OverQuota,
		BatchesPerSecond: r.BatchesPerSecond,
		BatchP50Seconds:  r.BatchP50.Seconds(),
		BatchP99Seconds:  r.BatchP99.Seconds(),
	}, nil
}

// tenantGate is the fairness acceptance check.
func tenantGate(res *TenantsSnapshot, opt TenantBenchOptions) []string {
	var v []string
	if res.Hog.OverQuota == 0 {
		v = append(v, "hog saw no over_quota rejections — the quota never engaged")
	}
	p99Limit := time.Duration(float64(res.Solo.BatchP99())*opt.MaxP99Factor) + p99Grace
	shareFloor := res.Solo.BatchesPerSecond * opt.MinShareFactor
	for _, p := range res.Polite {
		if p.Batches == 0 {
			v = append(v, fmt.Sprintf("%s completed no batches", p.Tenant))
			continue
		}
		if p.BatchP99() > p99Limit {
			v = append(v, fmt.Sprintf("%s p99 %v > %.1fx solo baseline %v (+%v grace)",
				p.Tenant, p.BatchP99(), opt.MaxP99Factor, res.Solo.BatchP99(), p99Grace))
		}
		if p.BatchesPerSecond < shareFloor {
			v = append(v, fmt.Sprintf("%s throughput %.0f batches/s < %.0f%% of solo baseline %.0f",
				p.Tenant, p.BatchesPerSecond, 100*opt.MinShareFactor, res.Solo.BatchesPerSecond))
		}
		if p.OverQuota > 0 {
			v = append(v, fmt.Sprintf("%s absorbed %d over_quota rejections — a polite tenant should never hit its own quota",
				p.Tenant, p.OverQuota))
		}
	}
	return v
}

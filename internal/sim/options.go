package sim

import (
	"fmt"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
)

// Option adjusts one aspect of a Config under construction. Options
// validate their argument where they can, so a bad value surfaces at
// New rather than deep inside Run.
type Option func(*Config) error

// New builds a Config from the Table 1 defaults plus the given
// options, validating the result eagerly. It replaces the old pattern
// of calling Default() and mutating struct fields ad hoc.
func New(opts ...Option) (Config, error) {
	cfg := Default()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WithICache sets the instruction-cache geometry.
func WithICache(c cache.Config) Option {
	return func(cfg *Config) error {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("sim: i-cache: %w", err)
		}
		cfg.ICache = c
		return nil
	}
}

// WithDCache sets the data-cache geometry.
func WithDCache(c cache.Config) Option {
	return func(cfg *Config) error {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("sim: d-cache: %w", err)
		}
		cfg.DCache = c
		return nil
	}
}

// WithScheme selects the fetch scheme.
func WithScheme(s energy.Scheme) Option {
	return func(cfg *Config) error {
		switch s {
		case energy.Baseline, energy.WayPlacement, energy.WayMemoization:
			cfg.Scheme = s
			return nil
		}
		return fmt.Errorf("sim: unknown scheme %v", s)
	}
}

// WithWPSize sets the way-placement area size in bytes.
func WithWPSize(n uint32) Option {
	return func(cfg *Config) error {
		cfg.WPSize = n
		return nil
	}
}

// WithMaxInstrs bounds the run's instruction count.
func WithMaxInstrs(n uint64) Option {
	return func(cfg *Config) error {
		if n == 0 {
			return fmt.Errorf("sim: instruction budget must be positive")
		}
		cfg.MaxInstrs = n
		return nil
	}
}

// WithStyle selects the tag-array organisation (CAM vs RAM).
func WithStyle(st energy.ArrayStyle) Option {
	return func(cfg *Config) error {
		cfg.Style = st
		return nil
	}
}

// Validate checks the whole machine configuration, returning a
// descriptive error for the first problem found. RunContext and
// RunCoupled call it on entry so misconfigurations fail fast instead
// of deep inside the machine construction or the instruction loop.
func (c Config) Validate() error {
	if err := c.ICache.Validate(); err != nil {
		return fmt.Errorf("sim: i-cache: %w", err)
	}
	if err := c.DCache.Validate(); err != nil {
		return fmt.Errorf("sim: d-cache: %w", err)
	}
	if err := c.ITLB.Validate(); err != nil {
		return fmt.Errorf("sim: i-tlb: %w", err)
	}
	if err := c.DTLB.Validate(); err != nil {
		return fmt.Errorf("sim: d-tlb: %w", err)
	}
	switch c.Scheme {
	case energy.Baseline, energy.WayPlacement, energy.WayMemoization:
	default:
		return fmt.Errorf("sim: unknown scheme %v", c.Scheme)
	}
	if c.WPSize != 0 && c.ITLB.PageBytes > 0 && c.WPSize%uint32(c.ITLB.PageBytes) != 0 {
		return fmt.Errorf("sim: way-placement area %dB is not a multiple of the %dB i-tlb page",
			c.WPSize, c.ITLB.PageBytes)
	}
	if c.MaxInstrs == 0 {
		return fmt.Errorf("sim: instruction budget must be positive")
	}
	return nil
}

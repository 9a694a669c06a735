package sim

import (
	"strings"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("the Table 1 defaults do not validate: %v", err)
	}
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"zero budget", func(c *Config) { c.MaxInstrs = 0 }, "budget"},
		{"bad i-cache", func(c *Config) { c.ICache = cache.Config{SizeBytes: 1000, Ways: 3, LineBytes: 32} }, "i-cache"},
		{"unknown scheme", func(c *Config) { c.Scheme = energy.Scheme(99) }, "scheme"},
		{"unaligned wp area", func(c *Config) { c.Scheme, c.WPSize = energy.WayPlacement, 1500 }, "page"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

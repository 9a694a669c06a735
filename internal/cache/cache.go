// Package cache models the set-associative, CAM-tagged instruction
// and data caches of the paper's XScale-like platform, together with
// the three instruction-fetch disciplines the evaluation compares:
//
//   - baseline: every fetch searches all W tags of one set;
//   - way-placement (the paper's scheme): fetches inside the
//     way-placement area probe exactly one way, selected by address
//     bits, steered by the 1-bit way hint;
//   - way-memoization (Ma et al.): cache lines carry links naming the
//     way of the next fetch, skipping tag checks when a link is valid
//     at the price of a wider data array.
//
// The cache core only records *events* (tag comparisons, data reads,
// fills, link writes); internal/energy turns events into energy.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement policy.
type Policy uint8

// Replacement policies. XScale uses round-robin; LRU exists for the
// replacement ablation.
const (
	RoundRobin Policy = iota
	LRU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LRU:
		return "lru"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes one cache's geometry.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Policy    Policy
}

// Validate checks that the geometry is realisable (power-of-two
// fields, at least one set).
func (c Config) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(c.SizeBytes) || !pow2(c.Ways) || !pow2(c.LineBytes) {
		return fmt.Errorf("cache: size/ways/line must be powers of two, got %d/%d/%d",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.LineBytes < 4 {
		return fmt.Errorf("cache: line size %d below word size", c.LineBytes)
	}
	if c.SizeBytes < c.Ways*c.LineBytes {
		return fmt.Errorf("cache: %dB/%d-way/%dB-line leaves no full set",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// OffsetBits returns the number of line-offset address bits.
func (c Config) OffsetBits() int { return bits.TrailingZeros(uint(c.LineBytes)) }

// SetBits returns the number of set-index address bits.
func (c Config) SetBits() int { return bits.TrailingZeros(uint(c.Sets())) }

// WayBits returns the number of way-select bits used by a
// way-placement access (the tag's least significant bits).
func (c Config) WayBits() int { return bits.TrailingZeros(uint(c.Ways)) }

// TagBits returns the tag width for 32-bit addresses. The paper keeps
// the tag full length: the way-placement bits are *also* part of the
// tag, so a WP probe still verifies the full tag.
func (c Config) TagBits() int { return 32 - c.SetBits() - c.OffsetBits() }

// SetOf returns the set index of an address.
func (c Config) SetOf(addr uint32) int {
	return int(addr>>c.OffsetBits()) & (c.Sets() - 1)
}

// TagOf returns the tag of an address.
func (c Config) TagOf(addr uint32) uint32 {
	return addr >> (c.OffsetBits() + c.SetBits())
}

// WayOf returns the way a way-placed address maps to: the least
// significant WayBits of the tag (section 4.2: "the least significant
// bits from the address tag ... a simple multiplexor can be used to
// select one of 2^N ways given N bits from the tag").
func (c Config) WayOf(addr uint32) int {
	return int(c.TagOf(addr)) & (c.Ways - 1)
}

// LineAddr returns the address of the line containing addr.
func (c Config) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.LineBytes-1)
}

// InstrsPerLine returns how many 4-byte instructions fit in a line.
func (c Config) InstrsPerLine() int { return c.LineBytes / 4 }

// LinkBits returns the width of one way-memoization link: way-select
// bits plus a valid bit (6 bits for a 32-way cache).
func (c Config) LinkBits() int { return c.WayBits() + 1 }

// LinkOverhead returns the fraction by which way-memoization links
// enlarge the data array: (instrsPerLine+1) links per line over the
// line's data bits. For 32B lines and 32 ways this is 9*6/256 = 21%,
// the figure quoted in section 5.
func (c Config) LinkOverhead() float64 {
	linkBits := (c.InstrsPerLine() + 1) * c.LinkBits()
	return float64(linkBits) / float64(c.LineBytes*8)
}

// Stats counts the events the energy model charges for. Every field is
// a plain event count, so Cache.RepeatSince can charge a repeated
// fetch sequence by scaling the counts of one copy; a new field must
// join addRepeats.
type Stats struct {
	Fetches uint64 // instruction fetches requested (I-side)

	SameLineHits   uint64 // sequential fetches served without any tag check
	FullSearches   uint64 // accesses comparing all W tags
	SingleSearches uint64 // way-placement accesses comparing 1 tag
	LinkedAccesses uint64 // way-memoization accesses comparing 0 tags
	TagComparisons uint64 // total individual tag comparisons

	Hits      uint64
	Misses    uint64
	LineFills uint64

	DataReads  uint64 // data-array word reads
	DataWrites uint64 // data-array word writes (D-cache)
	Writebacks uint64 // dirty line writebacks (D-cache)

	LinkWrites uint64 // way-memoization link updates
	StaleLinks uint64 // links found invalidated by eviction

	Flushes uint64 // whole-cache invalidations (OS area resizes)

	HintCorrectWP      uint64 // hint=WP and access was WP
	HintCorrectNon     uint64 // hint=non-WP and access was non-WP
	HintMissedSaving   uint64 // hint=non-WP but access was WP (lost saving)
	HintExtraAccess    uint64 // hint=WP but access was non-WP (second access)
	WPAccesses         uint64 // fetches that used the single-tag path
	WPAreaFetches      uint64 // fetches whose address lies in the WP area
	DesignatedFills    uint64 // fills forced into the way-placed way
	NonDesignatedFills uint64 // fills chosen by the replacement policy
}

// addRepeats adds n times the counts accrued since snap: s becomes
// what n further copies of the same activity would leave.
func (s *Stats) addRepeats(snap *Stats, n uint64) {
	rep := func(f *uint64, was uint64) { *f += n * (*f - was) }
	rep(&s.Fetches, snap.Fetches)
	rep(&s.SameLineHits, snap.SameLineHits)
	rep(&s.FullSearches, snap.FullSearches)
	rep(&s.SingleSearches, snap.SingleSearches)
	rep(&s.LinkedAccesses, snap.LinkedAccesses)
	rep(&s.TagComparisons, snap.TagComparisons)
	rep(&s.Hits, snap.Hits)
	rep(&s.Misses, snap.Misses)
	rep(&s.LineFills, snap.LineFills)
	rep(&s.DataReads, snap.DataReads)
	rep(&s.DataWrites, snap.DataWrites)
	rep(&s.Writebacks, snap.Writebacks)
	rep(&s.LinkWrites, snap.LinkWrites)
	rep(&s.StaleLinks, snap.StaleLinks)
	rep(&s.Flushes, snap.Flushes)
	rep(&s.HintCorrectWP, snap.HintCorrectWP)
	rep(&s.HintCorrectNon, snap.HintCorrectNon)
	rep(&s.HintMissedSaving, snap.HintMissedSaving)
	rep(&s.HintExtraAccess, snap.HintExtraAccess)
	rep(&s.WPAccesses, snap.WPAccesses)
	rep(&s.WPAreaFetches, snap.WPAreaFetches)
	rep(&s.DesignatedFills, snap.DesignatedFills)
	rep(&s.NonDesignatedFills, snap.NonDesignatedFills)
}

// MissRate returns misses / (hits+misses).
func (s *Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

type link struct {
	valid bool
	set   int
	way   int
	gen   uint64 // matches the target line's generation when still valid
}

type line struct {
	valid   bool
	tag     uint32
	dirty   bool
	lastUse uint64
	gen     uint64 // bumped on every (re)fill, invalidating inbound links
	seq     link   // way-memoization: way of the next sequential line
	slots   []link // way-memoization: per-instruction branch links
}

// Cache is one cache array instance.
type Cache struct {
	Cfg   Config
	Stats Stats

	sets [][]line
	rr   []int // round-robin victim pointer per set
	mru  []int // most recently touched/filled way per set (probe shortcut)
	tick uint64
	gen  uint64

	// Address decomposition, precomputed from Cfg at construction: the
	// Config methods derive shifts and masks from first principles on
	// every call, which is measurable on the per-fetch path.
	offBits  uint32
	setMask  uint32
	tagShift uint32
	lineMask uint32
	wayMask  uint32
	slotMask uint32
}

// setOf/tagOf/wayOf/lineAddr/slotOf mirror the Config methods of the
// same names using the precomputed masks (hot-path variants).
func (c *Cache) setOf(addr uint32) int       { return int((addr >> c.offBits) & c.setMask) }
func (c *Cache) tagOf(addr uint32) uint32    { return addr >> c.tagShift }
func (c *Cache) wayOf(addr uint32) int       { return int((addr >> c.tagShift) & c.wayMask) }
func (c *Cache) lineAddr(addr uint32) uint32 { return addr & c.lineMask }
func (c *Cache) slotOf(addr uint32) int      { return int((addr >> 2) & c.slotMask) }

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{Cfg: cfg}
	c.offBits = uint32(cfg.OffsetBits())
	c.setMask = uint32(cfg.Sets() - 1)
	c.tagShift = uint32(cfg.OffsetBits() + cfg.SetBits())
	c.lineMask = ^uint32(cfg.LineBytes - 1)
	c.wayMask = uint32(cfg.Ways - 1)
	c.slotMask = uint32(cfg.InstrsPerLine() - 1)
	c.sets = make([][]line, cfg.Sets())
	storage := make([]line, cfg.Sets()*cfg.Ways)
	for i := range c.sets {
		c.sets[i], storage = storage[:cfg.Ways:cfg.Ways], storage[cfg.Ways:]
	}
	c.rr = make([]int, cfg.Sets())
	c.mru = make([]int, cfg.Sets())
	return c, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// probeAll compares the tag against every way of the set, counting W
// comparisons, and returns the matching way.
func (c *Cache) probeAll(set int, tag uint32) (int, bool) {
	c.Stats.TagComparisons += uint64(c.Cfg.Ways)
	c.Stats.FullSearches++
	// Most-recently-used shortcut. All W comparisons are charged above
	// regardless — in hardware they happen in parallel — and a tag is
	// resident in at most one way (fills only follow a full-search
	// miss, and way-placed lines only ever fill their designated way),
	// so checking the MRU way first cannot change the outcome.
	if w := c.mru[set]; w < len(c.sets[set]) {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// probeOne compares the tag against a single way, counting one
// comparison.
func (c *Cache) probeOne(set, way int, tag uint32) bool {
	c.Stats.TagComparisons++
	c.Stats.SingleSearches++
	l := &c.sets[set][way]
	return l.valid && l.tag == tag
}

// Contains reports (without charging any events) whether the line
// holding addr is present, and in which way. Test/diagnostic helper.
func (c *Cache) Contains(addr uint32) (way int, ok bool) {
	set, tag := c.Cfg.SetOf(addr), c.Cfg.TagOf(addr)
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// victim selects a way to evict in the set according to the policy.
func (c *Cache) victim(set int) int {
	ways := c.sets[set]
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			return w
		}
	}
	switch c.Cfg.Policy {
	case LRU:
		best, bestUse := 0, ways[0].lastUse
		for w := 1; w < len(ways); w++ {
			if ways[w].lastUse < bestUse {
				best, bestUse = w, ways[w].lastUse
			}
		}
		return best
	default: // round-robin
		w := c.rr[set]
		c.rr[set] = (w + 1) % c.Cfg.Ways
		return w
	}
}

// fillAt installs the line for addr into (set, way), returning whether
// a dirty line was evicted. The line's generation is bumped so that
// way-memoization links into the old occupant die.
func (c *Cache) fillAt(set, way int, tag uint32) (evictedDirty bool) {
	l := &c.sets[set][way]
	evictedDirty = l.valid && l.dirty
	c.gen++
	*l = line{valid: true, tag: tag, lastUse: c.tick, gen: c.gen}
	c.Stats.LineFills++
	c.mru[set] = way
	return evictedDirty
}

// touch updates LRU state for a hit.
func (c *Cache) touch(set, way int) {
	c.tick++
	c.sets[set][way].lastUse = c.tick
	c.mru[set] = way
}

// Repeatable reports whether RepeatSince can ever charge: only a
// round-robin cache qualifies.
func (c *Cache) Repeatable() bool { return c.Cfg.Policy == RoundRobin }

// RepeatSince charges n further repeats of the fetches counted since
// snap (a copy of Stats taken before them), in closed form, and
// reports whether it could. The caller guarantees that the fetches
// since snap — the probe — followed an identical sequence and that n
// identical copies follow it. The charge is exact only when the probe
// was clean: no miss, line fill, link write, stale-link invalidation or
// flush, so no resident line and no link changed and no victim pointer
// moved. Every other piece of engine state the next fetch reads (the
// line buffer and way hint, the way-memoization predecessor, the
// baseline's last line) is then a function of the resident lines and
// of the probe's last fetch, which equals the previous copy's, so the
// state after the probe equals the state before it (the MRU way only
// shortens a search and never changes an outcome) and each copy
// repeats the probe's counts. Recency is the exception: hits advance
// it and it is not charged here, so only round-robin caches, whose
// victims never read it, qualify. On false nothing is charged and the
// caller fetches the copies itself.
func (c *Cache) RepeatSince(snap *Stats, n uint64) bool {
	s := &c.Stats
	if !c.Repeatable() || s.Misses != snap.Misses || s.LineFills != snap.LineFills ||
		s.LinkWrites != snap.LinkWrites || s.StaleLinks != snap.StaleLinks || s.Flushes != snap.Flushes {
		return false
	}
	s.addRepeats(snap, n)
	return true
}

// lineRef returns the line at (set, way).
func (c *Cache) lineRef(set, way int) *line { return &c.sets[set][way] }

// Flush invalidates every line. The operating system flushes the
// instruction cache when it resizes the way-placement area (section
// 4.1 lets the OS adjust the area during execution; a flush keeps
// "designated way" placement consistent across the change). Flushes
// are counted so their refill cost shows up in energy and cycles.
func (c *Cache) Flush() {
	for set := range c.sets {
		for way := range c.sets[set] {
			l := &c.sets[set][way]
			if l.valid {
				c.gen++
				*l = line{gen: c.gen}
			}
		}
	}
	c.Stats.Flushes++
}

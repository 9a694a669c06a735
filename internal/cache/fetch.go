package cache

// Instruction-fetch engines. Each engine owns a Cache and implements
// one of the three fetch disciplines the paper evaluates. Engines
// return what happened per fetch; the CPU turns that into stall
// cycles, and internal/energy turns the accumulated Stats into energy.

// FetchResult describes one instruction fetch.
type FetchResult struct {
	Hit         bool // line was present (possibly after the extra access)
	Filled      bool // a line fill happened (miss serviced)
	ExtraAccess bool // way-hint mispredict forced a second cache access
}

// FetchEngine is the instruction-side cache interface used by the CPU.
type FetchEngine interface {
	// Fetch performs the instruction fetch for addr. indirect reports
	// that control arrived via an indirect transfer (a return): the
	// previous instruction could not name this target statically.
	// Way-memoization needs this — a link can only be followed
	// blindly when the transfer it memoizes is static, so indirect
	// targets always take the full-search path. The other engines
	// ignore it.
	Fetch(addr uint32, indirect bool) FetchResult
	// Cache exposes the underlying array for statistics.
	Cache() *Cache
	// Name identifies the scheme in reports.
	Name() string
}

// --- baseline ---

// BaselineEngine performs a full W-way tag search on every fetch, the
// paper's unmodified instruction cache (figure 1(b): three fetches on
// a 2-set/4-way cache cost 12 comparisons).
type BaselineEngine struct {
	c *Cache

	// Way holding the most recently fetched line, for FetchSameLine.
	lastSet int
	lastWay int
}

// NewBaseline returns the baseline fetch engine.
func NewBaseline(cfg Config) (*BaselineEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &BaselineEngine{c: c}, nil
}

// Cache returns the underlying array.
func (e *BaselineEngine) Cache() *Cache { return e.c }

// Name returns "baseline".
func (e *BaselineEngine) Name() string { return "baseline" }

// Fetch performs a full-search access.
func (e *BaselineEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	set, tag := c.setOf(addr), c.tagOf(addr)
	way, hit := c.probeAll(set, tag)
	if hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		e.lastSet, e.lastWay = set, way
		return FetchResult{Hit: true}
	}
	c.Stats.Misses++
	w := c.victim(set)
	c.fillAt(set, w, tag)
	c.Stats.NonDesignatedFills++
	c.Stats.DataReads++
	e.lastSet, e.lastWay = set, w
	return FetchResult{Filled: true}
}

// FetchSameLine charges n further fetches of the line the previous
// Fetch touched, in bulk. The caller guarantees every one of the n
// addresses lies in that line (sim.RunMulti's stream segmentation):
// the line is resident — nothing was filled since — so each fetch is a
// full-search hit, and the bulk update leaves every counter and every
// replacement-relevant field (recency, generation, victim pointers)
// exactly as n individual Fetch calls would.
func (e *BaselineEngine) FetchSameLine(n int) {
	c := e.c
	un := uint64(n)
	c.Stats.Fetches += un
	c.Stats.TagComparisons += uint64(c.Cfg.Ways) * un
	c.Stats.FullSearches += un
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.lastSet][e.lastWay].lastUse = c.tick
	c.mru[e.lastSet] = e.lastWay
}

// --- way-placement ---

// WPOracle answers whether an address lies in the way-placement area.
// In hardware this is the way-placement bit read from the I-TLB in
// parallel with the cache access (internal/tlb implements it); tests
// can plug in a plain function.
type WPOracle interface {
	WayPlaced(addr uint32) bool
}

// WPOracleFunc adapts a function to the WPOracle interface.
type WPOracleFunc func(addr uint32) bool

// WayPlaced calls f.
func (f WPOracleFunc) WayPlaced(addr uint32) bool { return f(addr) }

// WayPlacementEngine implements the paper's scheme: fetches predicted
// (by the 1-bit way hint) to be inside the way-placement area probe
// only the way named by the address's tag bits; everything else falls
// back to a full search. Sequential fetches within the current line
// skip tag checks entirely (section 4.2's "further modification").
type WayPlacementEngine struct {
	c      *Cache
	oracle WPOracle
	hint   bool // way-hint bit: was the previous fetch way-placed?

	// OracleHint replaces the 1-bit way hint with perfect knowledge
	// of the way-placement bit before the access (as if the I-TLB
	// were read first, at a latency cost the paper rejects). Used by
	// the way-hint ablation.
	OracleHint bool
	// NoSameLine disables the same-line tag-check skip of section
	// 4.2. Used by the same-line ablation.
	NoSameLine bool

	haveLine bool
	lineAddr uint32
	lineSet  int
	lineWay  int
	lineGen  uint64
}

// NewWayPlacement returns the way-placement fetch engine.
func NewWayPlacement(cfg Config, oracle WPOracle) (*WayPlacementEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &WayPlacementEngine{c: c, oracle: oracle}, nil
}

// Cache returns the underlying array.
func (e *WayPlacementEngine) Cache() *Cache { return e.c }

// Name returns "wayplace".
func (e *WayPlacementEngine) Name() string { return "wayplace" }

// sameLine reports whether addr lies in the line buffer established by
// the previous fetch and that line is still resident.
func (e *WayPlacementEngine) sameLine(addr uint32) bool {
	if !e.haveLine || e.c.lineAddr(addr) != e.lineAddr {
		return false
	}
	return e.c.lineRef(e.lineSet, e.lineWay).gen == e.lineGen
}

func (e *WayPlacementEngine) noteLine(addr uint32, set, way int) {
	e.haveLine = true
	e.lineAddr = e.c.lineAddr(addr)
	e.lineSet, e.lineWay = set, way
	e.lineGen = e.c.lineRef(set, way).gen
}

// Fetch performs one way-placement-aware fetch.
func (e *WayPlacementEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	inWP := e.oracle.WayPlaced(addr)
	if inWP {
		c.Stats.WPAreaFetches++
	}

	if !e.NoSameLine && e.sameLine(addr) {
		c.Stats.SameLineHits++
		c.Stats.Hits++
		c.Stats.DataReads++
		c.touch(e.lineSet, e.lineWay)
		// The way hint tracks the last *fetched* page kind; same-line
		// accesses are on the same page, so the hint is unchanged and
		// stays consistent.
		return FetchResult{Hit: true}
	}

	set, tag := c.setOf(addr), c.tagOf(addr)
	res := FetchResult{}

	hint := e.hint
	if e.OracleHint {
		hint = inWP
	}

	switch {
	case hint && inWP:
		// Predicted way-placed, and it is: single-tag probe.
		c.Stats.HintCorrectWP++
		c.Stats.WPAccesses++
		way := c.wayOf(addr)
		if c.probeOne(set, way, tag) {
			c.Stats.Hits++
			c.touch(set, way)
			c.Stats.DataReads++
			res.Hit = true
			e.noteLine(addr, set, way)
		} else {
			c.Stats.Misses++
			c.fillAt(set, way, tag)
			c.Stats.DesignatedFills++
			c.Stats.DataReads++
			res.Filled = true
			e.noteLine(addr, set, way)
		}

	case hint && !inWP:
		// Predicted way-placed but the I-TLB bit says otherwise: the
		// single-way access already happened and must be discarded; a
		// second, full access follows (cycle + energy penalty, both
		// charged — section 4.1's second scenario).
		c.Stats.HintExtraAccess++
		way := c.wayOf(addr)
		c.probeOne(set, way, tag) // wasted probe
		c.Stats.DataReads++       // wasted data read
		res.ExtraAccess = true
		res = e.fullAccess(addr, set, tag, inWP, res)

	case !hint && inWP:
		// Predicted normal but actually way-placed: we only lose the
		// energy saving (section 4.1's first scenario).
		c.Stats.HintMissedSaving++
		res = e.fullAccess(addr, set, tag, inWP, res)

	default:
		c.Stats.HintCorrectNon++
		res = e.fullAccess(addr, set, tag, inWP, res)
	}

	e.hint = inWP
	return res
}

// FetchSameLine charges n further fetches inside the current line
// buffer, in bulk. The caller guarantees every address lies in the
// line of the previous fetch, on the same page (lastAddr is one of
// them, used for the way-placement-area check — the whole run shares
// its page, so one oracle consultation covers all n). Each fetch hits
// with no tag check, or, under NoSameLine, with the hint (either kind)
// equal to the page's way-placement bit: a single-way probe on a
// way-placed page, a full search elsewhere.
func (e *WayPlacementEngine) FetchSameLine(n int, lastAddr uint32) {
	c := e.c
	un := uint64(n)
	c.Stats.Fetches += un
	if e.oracle.WayPlaced(lastAddr) {
		c.Stats.WPAreaFetches += un
	}
	switch {
	case !e.NoSameLine:
		c.Stats.SameLineHits += un
	case e.hint:
		c.Stats.HintCorrectWP += un
		c.Stats.WPAccesses += un
		c.Stats.SingleSearches += un
		c.Stats.TagComparisons += un
	default:
		c.Stats.HintCorrectNon += un
		c.Stats.FullSearches += un
		c.Stats.TagComparisons += uint64(c.Cfg.Ways) * un
	}
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.lineSet][e.lineWay].lastUse = c.tick
	c.mru[e.lineSet] = e.lineWay
}

// fullAccess performs a conventional all-ways access. Lines belonging
// to the way-placement area are still filled into their designated
// way: placement is a property of the address, not of how the access
// that missed happened to be performed.
func (e *WayPlacementEngine) fullAccess(addr uint32, set int, tag uint32, inWP bool, res FetchResult) FetchResult {
	c := e.c
	if way, hit := c.probeAll(set, tag); hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		res.Hit = true
		e.noteLine(addr, set, way)
		return res
	}
	c.Stats.Misses++
	var way int
	if inWP {
		way = c.wayOf(addr)
		c.Stats.DesignatedFills++
	} else {
		way = c.victim(set)
		c.Stats.NonDesignatedFills++
	}
	c.fillAt(set, way, tag)
	c.Stats.DataReads++
	res.Filled = true
	e.noteLine(addr, set, way)
	return res
}

// --- way-memoization ---

// WayMemoizationEngine implements Ma et al.'s scheme: every line
// carries a link per instruction slot (plus one sequential link)
// naming the way the next fetch will hit. A valid link skips all tag
// comparisons; an invalid one falls back to a full search and then
// writes the link. Links die when their target line is evicted
// (modelled precisely with per-line generation numbers).
type WayMemoizationEngine struct {
	c *Cache

	havePrev bool
	prevAddr uint32
	prevSet  int
	prevWay  int
	prevGen  uint64
}

// NewWayMemoization returns the way-memoization fetch engine.
func NewWayMemoization(cfg Config) (*WayMemoizationEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &WayMemoizationEngine{c: c}, nil
}

// Cache returns the underlying array.
func (e *WayMemoizationEngine) Cache() *Cache { return e.c }

// Name returns "waymem".
func (e *WayMemoizationEngine) Name() string { return "waymem" }

func (e *WayMemoizationEngine) prevLine() *line {
	return e.c.lineRef(e.prevSet, e.prevWay)
}

// slotOf returns the instruction slot index of addr within its line.
func (e *WayMemoizationEngine) slotOf(addr uint32) int {
	return e.c.slotOf(addr)
}

// linkFor returns the link the previous fetch provides for the
// current one: the sequential link when execution ran off the end of
// the previous line, or the previous slot's branch link otherwise.
func (e *WayMemoizationEngine) linkFor(addr uint32) *link {
	prev := e.prevLine()
	if prev.gen != e.prevGen {
		// The previous line was replaced between fetches; its links
		// are gone with it.
		return nil
	}
	if addr == e.prevAddr+4 {
		return &prev.seq
	}
	if prev.slots == nil {
		return nil
	}
	return &prev.slots[e.slotOf(e.prevAddr)]
}

// Fetch performs one way-memoizing fetch.
func (e *WayMemoizationEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	cfg := c.Cfg
	set, tag := c.setOf(addr), c.tagOf(addr)

	// Intra-line sequential fetch: no tag check (the same optimisation
	// the paper applies to its own scheme, section 4.2 / ref [12]).
	if e.havePrev && c.lineAddr(addr) == c.lineAddr(e.prevAddr) &&
		e.prevLine().gen == e.prevGen {
		c.Stats.SameLineHits++
		c.Stats.Hits++
		c.Stats.DataReads++
		c.touch(e.prevSet, e.prevWay)
		e.prevAddr = addr
		return FetchResult{Hit: true}
	}

	// Cross-line: consult the link left by the previous fetch.
	// Indirect transfers (returns) cannot be memoized: the link in the
	// return instruction's slot names whatever call site ran last, and
	// following it blindly would deliver the wrong line, so the
	// hardware always takes the verified full-search path for them.
	if e.havePrev && !indirect {
		if lk := e.linkFor(addr); lk != nil && lk.valid {
			if lk.gen == c.lineRef(lk.set, lk.way).gen && lk.set == set &&
				c.lineRef(lk.set, lk.way).tag == tag {
				// Valid link: zero tag comparisons.
				c.Stats.LinkedAccesses++
				c.Stats.Hits++
				c.Stats.DataReads++
				c.touch(lk.set, lk.way)
				e.note(addr, lk.set, lk.way)
				return FetchResult{Hit: true}
			}
			// Link points at a replaced or mismatching line: it has
			// been invalidated by the eviction logic.
			c.Stats.StaleLinks++
			lk.valid = false
		}
	}

	// No usable link: conventional access, then memoize.
	res := FetchResult{}
	way, hit := c.probeAll(set, tag)
	if hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		res.Hit = true
	} else {
		c.Stats.Misses++
		way = c.victim(set)
		c.fillAt(set, way, tag)
		c.Stats.NonDesignatedFills++
		c.Stats.DataReads++
		res.Filled = true
	}
	// Write the link into the previous line (if it survived). Links
	// are only written for static transfers, matching the follow rule.
	if e.havePrev && !indirect {
		prev := e.prevLine()
		if prev.gen == e.prevGen {
			target := link{valid: true, set: set, way: way, gen: c.lineRef(set, way).gen}
			if addr == e.prevAddr+4 {
				prev.seq = target
			} else {
				if prev.slots == nil {
					prev.slots = make([]link, cfg.InstrsPerLine())
				}
				prev.slots[e.slotOf(e.prevAddr)] = target
			}
			c.Stats.LinkWrites++
		}
	}
	e.note(addr, set, way)
	return res
}

// FetchSameLine charges n further fetches inside the previous fetch's
// line, in bulk. The caller guarantees every address lies in that line
// (the intra-line path ignores the indirect flag, so any same-line
// transfer qualifies). lastAddr must be the last of the n addresses:
// the next cross-line fetch consults the link slot of the previous
// *address*, so the memoization state has to end exactly where n
// individual Fetch calls would leave it.
func (e *WayMemoizationEngine) FetchSameLine(n int, lastAddr uint32) {
	c := e.c
	un := uint64(n)
	c.Stats.Fetches += un
	c.Stats.SameLineHits += un
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.prevSet][e.prevWay].lastUse = c.tick
	c.mru[e.prevSet] = e.prevWay
	e.prevAddr = lastAddr
}

func (e *WayMemoizationEngine) note(addr uint32, set, way int) {
	e.havePrev = true
	e.prevAddr = addr
	e.prevSet, e.prevWay = set, way
	e.prevGen = e.c.lineRef(set, way).gen
}

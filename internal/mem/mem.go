// Package mem models the off-chip main memory of the simulated
// embedded system: a sparse byte-addressable store with a fixed access
// latency and a narrow bus, matching the paper's baseline platform
// (50-cycle latency, 32-bit bus).
package mem

import (
	"encoding/binary"
	"sort"
)

const pageShift = 12 // 4KB allocation granules (host-side only)
const pageSize = 1 << pageShift

// Config describes memory timing.
type Config struct {
	LatencyCycles int // cycles for the first word of an access
	BusBytes      int // bytes transferred per cycle after the first word
}

// DefaultConfig is the paper's Table 1 memory system: 50-cycle latency
// over a 32-bit bus.
func DefaultConfig() Config {
	return Config{LatencyCycles: 50, BusBytes: 4}
}

// LineFillCycles returns the stall for fetching lineBytes from memory:
// initial latency plus one bus beat per word.
func (c Config) LineFillCycles(lineBytes int) int {
	beats := lineBytes / c.BusBytes
	if beats < 1 {
		beats = 1
	}
	return c.LatencyCycles + beats
}

// Stats counts memory traffic for the energy model.
type Stats struct {
	Reads      uint64 // line reads
	Writes     uint64 // line or word writebacks
	BytesRead  uint64
	BytesWrite uint64
}

// Memory is a sparse little-endian byte store.
type Memory struct {
	Config Config
	Stats  Stats
	pages  map[uint32]*[pageSize]byte

	// Recently served pages, direct-mapped by page number: accesses
	// cluster on a few pages (stack frames, sequential buffers), and
	// the data path comes here on every load and store.
	recent [16]struct {
		key  uint32
		page *[pageSize]byte
	}
}

// New returns an empty memory with the given timing.
func New(cfg Config) *Memory {
	return &Memory{Config: cfg, pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	key := addr >> pageShift
	r := &m.recent[key%uint32(len(m.recent))]
	if r.page != nil && r.key == key {
		return r.page
	}
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	if p != nil {
		r.key, r.page = key, p
	}
	return p
}

// LoadImage copies a byte image into memory at base.
func (m *Memory) LoadImage(base uint32, data []byte) {
	for i, b := range data {
		m.put8(base+uint32(i), b)
	}
}

func (m *Memory) put8(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

func (m *Memory) get8(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Read8 returns the byte at addr. Unwritten memory reads as zero.
func (m *Memory) Read8(addr uint32) byte { return m.get8(addr) }

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v byte) { m.put8(addr, v) }

// Read32 returns the little-endian word at addr. The simulated machine
// requires natural alignment; the CPU checks before calling.
func (m *Memory) Read32(addr uint32) uint32 {
	// Fast path: whole word inside one page.
	if addr&(pageSize-1) <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[addr&(pageSize-1):])
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.get8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&(pageSize-1) <= pageSize-4 {
		p := m.page(addr, true)
		binary.LittleEndian.PutUint32(p[addr&(pageSize-1):], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.put8(addr+i, byte(v>>(8*i)))
	}
}

// Hash returns an FNV-1a digest of the memory contents below limit:
// every page holding a non-zero byte is folded in (page address, then
// bytes), in ascending address order; pages at or above limit are
// ignored. Untouched pages and pages written back to all-zeroes hash
// identically — memory reads as zero either way — so two runs with
// the same architectural side effects always agree, regardless of
// which addresses they happened to touch. Used by internal/check to
// compare memory state across fetch schemes and layouts; callers pass
// a limit below the stack region, whose dead frames hold spilled
// return addresses that legitimately differ between code layouts.
func (m *Memory) Hash(limit uint32) uint64 {
	keys := make([]uint32, 0, len(m.pages))
	for k, p := range m.pages {
		if uint64(k)<<pageShift >= uint64(limit) {
			continue
		}
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, k := range keys {
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(k>>shift))) * prime64
		}
		for _, b := range m.pages[k] {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// ReadLine records a line fetch (for stats) and returns the fill stall.
func (m *Memory) ReadLine(addr uint32, lineBytes int) int {
	m.Stats.Reads++
	m.Stats.BytesRead += uint64(lineBytes)
	return m.Config.LineFillCycles(lineBytes)
}

// WriteBack records a line writeback and returns its stall
// contribution (buffered: the paper's platform has a write buffer, so
// writebacks do not stall the core in our model).
func (m *Memory) WriteBack(addr uint32, lineBytes int) int {
	m.Stats.Writes++
	m.Stats.BytesWrite += uint64(lineBytes)
	return 0
}

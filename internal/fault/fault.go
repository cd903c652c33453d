// Package fault is the deterministic, seed-driven fault-injection subsystem
// of the simulator: models for transient bit flips (a per-bit rate applied
// to every device memory write), persistent stuck-at bits, and whole-core
// (subarray/bank) failures, scoped to a core range, together with an
// optional SEC-DED (72,64) ECC model that corrects single-bit errors,
// detects double-bit errors, and charges its check-bit maintenance overhead
// through the performance/energy model.
//
// Determinism contract: every fault decision derives from pure hashes of
// (seed, write sequence number, bit position) — never from scheduling or
// worker count — so a fixed seed yields bit-identical injected data, fault
// counters, and error verdicts across any Workers setting and across
// command-stream record/replay. Injection runs serially inside the
// dispatcher (which is single-threaded); the sharded element loops never
// see the injector.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// ErrUncorrectable reports a detected-but-uncorrectable memory error: a
// double-bit ECC error or a write into a failed core under ECC. The device
// and pim packages re-export it for errors.Is matching.
var ErrUncorrectable = errors.New("fault: uncorrectable memory error detected")

// Config describes the fault environment of one simulated device. The zero
// value injects nothing; a nil *Config leaves the dispatch pipeline
// byte-identical to a fault-free build.
type Config struct {
	// Seed drives every fault decision. Identical seeds reproduce
	// identical faults regardless of worker count.
	Seed int64 `json:"seed"`
	// TransientBitRate is the probability that any single logical bit
	// written by a device operation flips before it is next read
	// (per-bit, per-write).
	TransientBitRate float64 `json:"transient_bit_rate,omitempty"`
	// StuckBits plants this many persistent stuck-at bit faults at
	// seed-derived locations inside the scope. A stuck bit forces its
	// value on every write that lands on it.
	StuckBits int `json:"stuck_bits,omitempty"`
	// FailedCores marks this many whole PIM cores (subarrays or banks,
	// by architecture) as dead: without ECC their regions return
	// seed-derived garbage; with ECC every write touching them is a
	// detected uncorrectable error.
	FailedCores int `json:"failed_cores,omitempty"`
	// ECC enables the SEC-DED (72,64) model over each 64-bit logical
	// memory word: single-bit errors are corrected, double-bit errors
	// are detected (ErrUncorrectable), and the 8-bits-per-64 check-bit
	// maintenance overhead is charged on every command and copy.
	ECC bool `json:"ecc,omitempty"`
	// FirstCore and NumCores scope injection to the core range
	// [FirstCore, FirstCore+NumCores); NumCores == 0 extends the scope
	// to the last core. Cores outside the scope never fault.
	FirstCore int `json:"first_core,omitempty"`
	NumCores  int `json:"num_cores,omitempty"`
}

// maxFaultCount caps StuckBits and FailedCores. The injector allocates
// state per planted fault, and a configuration arriving in a stream header
// or snapshot must not choose that size.
const maxFaultCount = 1 << 20

// Validate checks the configuration ranges.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.TransientBitRate < 0 || c.TransientBitRate > 1 || math.IsNaN(c.TransientBitRate) {
		return fmt.Errorf("fault: transient bit rate %v outside [0,1]", c.TransientBitRate)
	}
	if c.StuckBits < 0 || c.StuckBits > maxFaultCount {
		return fmt.Errorf("fault: stuck bit count %d outside [0,%d]", c.StuckBits, maxFaultCount)
	}
	if c.FailedCores < 0 || c.FailedCores > maxFaultCount {
		return fmt.Errorf("fault: failed core count %d outside [0,%d]", c.FailedCores, maxFaultCount)
	}
	if c.FirstCore < 0 || c.NumCores < 0 {
		return fmt.Errorf("fault: scope [%d,+%d) negative", c.FirstCore, c.NumCores)
	}
	return nil
}

// Enabled reports whether the configuration injects or models anything.
func (c *Config) Enabled() bool {
	return c != nil && (c.TransientBitRate > 0 || c.StuckBits > 0 || c.FailedCores > 0 || c.ECC)
}

// Counts are the accumulated fault and ECC statistics of one device.
type Counts struct {
	// TransientFlips counts injected transient bit flips (pre-ECC).
	TransientFlips int64 `json:"transient_flips,omitempty"`
	// StuckFaults counts writes that landed on a stuck-at bit with the
	// opposite value (pre-ECC).
	StuckFaults int64 `json:"stuck_faults,omitempty"`
	// FailedWords counts 64-bit words written into failed cores.
	FailedWords int64 `json:"failed_words,omitempty"`
	// Corrected counts words whose single-bit error SEC-DED corrected.
	Corrected int64 `json:"corrected,omitempty"`
	// Detected counts words with a detected uncorrectable error.
	Detected int64 `json:"detected,omitempty"`
	// Silent counts words left corrupted in memory: every corrupted word
	// without ECC, plus ECC miscorrections of triple-or-worse errors.
	Silent int64 `json:"silent,omitempty"`
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.TransientFlips += o.TransientFlips
	c.StuckFaults += o.StuckFaults
	c.FailedWords += o.FailedWords
	c.Corrected += o.Corrected
	c.Detected += o.Detected
	c.Silent += o.Silent
}

// Any reports whether any counter is non-zero.
func (c Counts) Any() bool { return c != Counts{} }

// ECCOverhead returns the check-bit maintenance cost the SEC-DED model adds
// on top of a base access cost: 8 check bits per 64 data bits widen every
// row access by 1/8 in both time and energy (the uniform storage-overhead
// model; see DESIGN.md §11).
func ECCOverhead(base perf.Cost) perf.Cost { return base.Scale(1.0 / 8.0) }

// stuckBit is one persistent stuck-at fault. Core index and fractional
// position are fixed at injector construction; the fraction maps onto each
// written object's per-core region, modeling how one physical row/column
// lands at different logical offsets under different data layouts.
type stuckBit struct {
	core     int
	elemFrac float64 // position within the core's element region, in [0,1)
	bitFrac  float64 // position within the element's logical bits, in [0,1)
	value    bool    // the value the bit is stuck at
}

// Injector is the per-device fault-injection state: the planted persistent
// faults, the write sequence counter that seeds each transient draw, and
// the accumulated counters. It is used only from the single-threaded
// dispatch stage and is not safe for concurrent use.
type Injector struct {
	cfg    Config
	cores  int
	stuck  []stuckBit
	failed map[int]bool
	seq    uint64
	counts Counts
}

// NewInjector plants the persistent faults for a device with the given
// core count. The placement is a pure function of (seed, cores), so two
// devices with the same geometry and seed fault identically.
func NewInjector(cfg Config, cores int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg, cores: cores, failed: make(map[int]bool)}
	lo, hi := in.scope()
	if hi <= lo {
		return in, nil
	}
	span := hi - lo
	rng := newSplitMix(mix2(uint64(cfg.Seed), 0x5e11ed_b175))
	for i := 0; i < cfg.StuckBits; i++ {
		in.stuck = append(in.stuck, stuckBit{
			core:     lo + int(rng.next()%uint64(span)),
			elemFrac: rng.float(),
			bitFrac:  rng.float(),
			value:    rng.next()&1 != 0,
		})
	}
	nFailed := cfg.FailedCores
	if nFailed > span {
		nFailed = span
	}
	for len(in.failed) < nFailed {
		in.failed[lo+int(rng.next()%uint64(span))] = true
	}
	return in, nil
}

// Config returns the injector's fault configuration.
func (in *Injector) Config() Config { return in.cfg }

// Counts returns the accumulated fault statistics.
func (in *Injector) Counts() Counts { return in.counts }

// scope resolves the configured core range against the device's core count.
func (in *Injector) scope() (lo, hi int) {
	lo = in.cfg.FirstCore
	hi = in.cores
	if in.cfg.NumCores > 0 && lo+in.cfg.NumCores < hi {
		hi = lo + in.cfg.NumCores
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Region describes one device memory write for injection: the destination
// object's storage and layout, plus the written element range [Lo, Hi).
// Faults act on Data's stored bits, Type.Bits() per element.
type Region struct {
	Data         isa.Elems
	Type         isa.DataType
	Lo, Hi       int64
	ElemsPerCore int64
	ActiveCores  int
}

// InjectWrite runs the fault stage over one completed memory write: it
// corrupts failed-core regions, applies transient flips and stuck-at bits,
// adjudicates each touched 64-bit logical word through the ECC model, and
// returns the per-write fault counters. The returned error is
// ErrUncorrectable (wrapped) when ECC detected an unrecoverable error; the
// written data then holds the corrupted words, mirroring hardware where the
// read-out fails. Each call consumes one write sequence number, so a
// replayed command stream reproduces the injection bit-for-bit.
func (in *Injector) InjectWrite(r Region) (Counts, error) {
	in.seq++
	var delta Counts
	if r.Data == nil || r.Data.Len() == 0 || r.Hi <= r.Lo {
		return delta, nil
	}
	b := int64(r.Type.Bits())
	epc := r.ElemsPerCore
	if epc <= 0 {
		epc = r.Data.Len()
	}
	scopeLo, scopeHi := in.scope()

	var uncorrectable bool

	// Stage 1: whole-core failures. Writes landing in a dead core's region
	// come back as seed-derived garbage (no ECC) or as detected
	// uncorrectable words (ECC).
	failedElems := make(map[int64]bool)
	if len(in.failed) > 0 {
		for c := r.Lo / epc; c <= (r.Hi-1)/epc; c++ {
			if !in.failed[int(c)] || int(c) >= r.ActiveCores {
				continue
			}
			lo, hi := maxi64(r.Lo, c*epc), mini64(r.Hi, (c+1)*epc)
			words := ((hi*b + 63) / 64) - (lo * b / 64)
			delta.FailedWords += words
			if in.cfg.ECC {
				delta.Detected += words
				uncorrectable = true
			} else {
				delta.Silent += words
			}
			for i := lo; i < hi; i++ {
				failedElems[i] = true
				if !in.cfg.ECC {
					g := mix2(uint64(in.cfg.Seed)^in.seq, 0xdead_c07e+uint64(i))
					r.Data.SetBits(i, g)
				}
			}
		}
	}

	// Stage 2: collect transient flips and stuck-at mismatches per 64-bit
	// logical word (logical bit g = elem*bits + bit; word = g/64 — element
	// widths divide 64, so words cover whole elements).
	flips := make(map[int64]uint64) // word index -> xor mask of flipped logical bits
	addFault := func(elem, bit int64, stuck bool, stuckVal bool) {
		if failedElems[elem] {
			return
		}
		core := int(elem / epc)
		if core < scopeLo || core >= scopeHi {
			return
		}
		if stuck {
			// Stuck bit: only a mismatch with the written value is an error.
			cur := r.Data.Bits(elem) >> uint(bit) & 1
			want := uint64(0)
			if stuckVal {
				want = 1
			}
			if cur == want {
				return
			}
			delta.StuckFaults++
		} else {
			delta.TransientFlips++
		}
		g := elem*b + bit
		flips[g/64] ^= 1 << uint(g%64)
	}

	if p := in.cfg.TransientBitRate; p > 0 {
		rng := newSplitMix(mix2(uint64(in.cfg.Seed), in.seq))
		totalBits := (r.Hi - r.Lo) * b
		// Geometric skipping: jump straight between flip positions instead
		// of drawing per bit, keeping injection O(faults) not O(bits).
		pos := int64(-1)
		for {
			pos += 1 + rng.geometric(p)
			if pos >= totalBits {
				break
			}
			g := r.Lo*b + pos
			addFault(g/b, g%b, false, false)
		}
	}
	for _, s := range in.stuck {
		if s.core >= r.ActiveCores {
			continue
		}
		elem := int64(s.core)*epc + int64(s.elemFrac*float64(epc))
		if elem < r.Lo || elem >= r.Hi || elem >= r.Data.Len() {
			continue
		}
		bit := int64(s.bitFrac * float64(b))
		if bit >= b {
			bit = b - 1
		}
		addFault(elem, bit, true, s.value)
	}

	// Stage 3: ECC adjudication (or direct application) word by word, in
	// ascending word order for determinism.
	words := make([]int64, 0, len(flips))
	for w := range flips {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	epw := 64 / b // elements per 64-bit word
	for _, w := range words {
		mask := flips[w]
		clean := gatherWord(r.Data, w, epw, b)
		dirty := clean ^ mask
		if !in.cfg.ECC {
			scatterWord(r.Data, w, epw, b, dirty)
			delta.Silent++
			continue
		}
		check := ECCEncode(clean)
		decoded, status := ECCDecode(dirty, check)
		switch {
		case status == ECCDetected:
			// Data lost: leave the corrupted word in memory and fail the
			// operation.
			scatterWord(r.Data, w, epw, b, dirty)
			delta.Detected++
			uncorrectable = true
		case decoded == clean:
			delta.Corrected++
		default:
			// A 3+-bit error aliased into a "correction" of the wrong bit.
			scatterWord(r.Data, w, epw, b, decoded)
			delta.Silent++
		}
	}

	in.counts.Add(delta)
	if uncorrectable {
		return delta, fmt.Errorf("%w: %d word(s) in write #%d", ErrUncorrectable, delta.Detected, in.seq)
	}
	return delta, nil
}

// gatherWord assembles 64-bit logical word w from the stored bits of epw
// consecutive b-bit elements (missing tail elements read as zero).
func gatherWord(data isa.Elems, w, epw, b int64) uint64 {
	var v uint64
	for k := int64(0); k < epw; k++ {
		e := w*epw + k
		if e >= data.Len() {
			break
		}
		v |= data.Bits(e) << uint(k*b)
	}
	return v
}

// scatterWord stores 64-bit logical word w back into its elements, each
// keeping its b bits of the word.
func scatterWord(data isa.Elems, w, epw, b int64, v uint64) {
	for k := int64(0); k < epw; k++ {
		e := w*epw + k
		if e >= data.Len() {
			break
		}
		data.SetBits(e, v>>uint(k*b))
	}
}

// splitMix is the SplitMix64 generator: tiny, fast, and a pure function of
// its seed, which is all the determinism contract needs.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in (0, 1].
func (s *splitMix) float() float64 {
	return float64((s.next()>>11)+1) / float64(1<<53)
}

// geometric returns the number of Bernoulli(p) failures before the next
// success — the gap between consecutive flipped bits.
func (s *splitMix) geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	g := math.Floor(math.Log(s.float()) / math.Log1p(-p))
	if g < 0 || g > 1<<62 {
		return 1 << 62
	}
	return int64(g)
}

// mix2 hashes two words into one (used to derive independent streams).
func mix2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(b, 31)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	return x ^ (x >> 27)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

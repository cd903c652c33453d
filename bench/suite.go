package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	_ "pimeval/benchmarks/all"
	"pimeval/benchmarks/suite"
	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/pim"
)

// suiteLive's operation is one app x target functional run.
var suiteLive = &Workload{
	Name: "suite-live",
	Why:  "the paper's main use: every PIMbench app on every target, functional and golden-verified; device dispatch, kernels and app host code do the work",
	setup: func(o Options) (runner, error) {
		s := &suiteRunner{mult: suiteSizeMult}
		apps := suiteApps()
		if o.Small {
			apps, s.mult = apps[:4], 1
		}
		for _, b := range apps {
			for _, t := range pim.AllTargets {
				s.pairs = append(s.pairs, suitePair{b: b, target: t})
			}
		}
		// The seed fixes the order apps run in; their inputs are the apps'
		// own fixed-seed data.
		rng := rand.New(rand.NewSource(o.Seed))
		rng.Shuffle(len(s.pairs), func(i, j int) { s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i] })
		s.digest = committedDigest(o.Small)
		// Warm-up pass at the apps' default functional size: compiles every
		// microprogram into the process-wide BuildCached cache.
		for _, p := range s.pairs {
			if _, err := p.run(1, false); err != nil {
				return nil, err
			}
		}
		return s, nil
	},
}

// suiteSizeMult scales every app's DefaultSize(true) input in the measured
// passes, so that a pass is long enough to time yet several fit in a run.
const suiteSizeMult = 2

// suiteApps returns the 18 Table I apps and the 6 extensions, by name.
func suiteApps() []suite.Benchmark {
	apps := append(suite.All(), suite.Extensions()...)
	sort.Slice(apps, func(i, j int) bool { return apps[i].Info().Name < apps[j].Info().Name })
	return apps
}

type suitePair struct {
	b      suite.Benchmark
	target pim.Target
}

// run executes the pair functionally at mult times its default size and
// checks the app's own golden verification.
func (p suitePair) run(mult int64, record bool) (suite.Result, error) {
	r, err := p.b.Run(suite.Config{
		Target:     p.target,
		Functional: true,
		Workers:    1,
		Size:       mult * p.b.DefaultSize(true),
		EmitReport: true,
		Record:     record,
	})
	switch {
	case err != nil:
		return r, fmt.Errorf("%s/%v: %w", p.b.Info().Name, p.target, err)
	case !r.Verified || r.Degraded:
		return r, gateErr("%s/%v not verified against its golden reference %s", p.b.Info().Name, p.target, r.Err)
	}
	return r, nil
}

type suiteRunner struct {
	pairs  []suitePair
	mult   int64
	digest string
}

func (s *suiteRunner) close() {}

func (s *suiteRunner) measure(m *meter) error {
	var passS = map[string][]float64{}  // target -> pass times
	var benchS = map[string][]float64{} // app -> pass times
	var hostS []float64
	for !m.done() {
		pass := map[string]float64{}
		bench := map[string]float64{}
		var live, replay time.Duration
		results := make([]suite.Result, 0, len(s.pairs))
		for i, p := range s.pairs {
			m.lane.SetReq(int64(i))
			m.lane.Begin("bench.op")
			t0 := time.Now()
			m.lane.Begin("suite.bench")
			r, err := p.run(s.mult, m.lane != nil)
			m.lane.End()
			dt := time.Since(t0)
			if err == nil && m.lane != nil {
				// Replay the run's recorded stream through the timed
				// executor: the live run's device time, by command kind.
				t1 := time.Now()
				err = replayStream(r.Stream, m.lane)
				live += dt
				replay += time.Since(t1)
				r.Stream = nil
			}
			m.lane.End()
			m.op(t0, err)
			if err == nil {
				results = append(results, r)
			}
			pass[p.target.String()] += dt.Seconds()
			bench[p.b.Info().Name] += dt.Seconds()
		}
		if len(results) == len(s.pairs) {
			var err error
			if got := simDigest(results); got != s.digest {
				err = gateErr("sim_digest %s, committed %s", got, s.digest)
			}
			m.count(err)
		}
		for k, v := range pass {
			passS[k] = append(passS[k], v)
		}
		for k, v := range bench {
			benchS[k] = append(benchS[k], v)
		}
		hostS = append(hostS, (live - replay).Seconds())
	}
	if m.lane != nil {
		// Traced passes also record and replay, so only the host share
		// comes from them; pass and app times come from untraced passes.
		m.set("suite.host_s", Median(hostS))
		return nil
	}
	for k, v := range passS {
		m.set("suite.pass_s."+k, Median(v))
	}
	for k, v := range benchS {
		m.set("suite.bench_s."+k, Median(v))
	}
	return nil
}

// replayStream replays a recorded stream onto a fresh device through the
// timing wrappers.
func replayStream(s *pim.Stream, lane *Lane) error {
	d, err := device.NewFromStream(s, 1)
	if err != nil {
		return err
	}
	return replayTimed(d, cmdstream.FromStream(s), lane, cmdstream.ReplayOptions{})
}

// simDigest hashes the simulated outputs of one pass in a fixed order: the
// float64 bits of simulated time and energy, the copy byte counts, and the
// statistics report with its per-command counts. It must never change: the
// harness measures the simulator's wall clock, not its model.
func simDigest(results []suite.Result) string {
	rs := append([]suite.Result(nil), results...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Benchmark != rs[j].Benchmark {
			return rs[i].Benchmark < rs[j].Benchmark
		}
		return rs[i].Target < rs[j].Target
	})
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range rs {
		fmt.Fprintf(h, "%s/%v\n", r.Benchmark, r.Target)
		mt := r.Metrics
		for _, f := range []float64{mt.KernelMS, mt.HostMS, mt.CopyMS, mt.KernelMJ, mt.HostMJ, mt.CopyMJ} {
			word(math.Float64bits(f))
		}
		for _, n := range []int64{mt.HostToDeviceBytes, mt.DeviceToHostBytes, mt.DeviceToDeviceBytes} {
			word(uint64(n))
		}
		h.Write([]byte(r.Report))
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed sim_digest.json
var simDigestJSON []byte

// committedDigest returns the committed sim_digest for the full or the
// miniature suite-live pass.
func committedDigest(small bool) string {
	var d struct{ Full, Small string }
	if err := json.Unmarshal(simDigestJSON, &d); err != nil {
		return "unreadable sim_digest.json: " + err.Error()
	}
	if small {
		return d.Small
	}
	return d.Full
}

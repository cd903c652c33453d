// Package knn implements the PIMbench K-nearest-neighbors benchmark
// (PIM + Host): batched inference with Manhattan distance. Distance
// computation runs on PIM (sub/abs/add per dimension); the per-query
// selection and classification run on the host, since PIM lacks shuffle
// support — the host phase is a significant share of runtime, as the paper
// reports.
package knn

import (
	"pimeval/benchmarks/suite"
	"pimeval/internal/workload"
	"pimeval/pim"
)

const (
	k       = 5
	classes = 4
	queries = 64 // inference batch
)

type bench struct{}

func init() { suite.Register(bench{}) }

// New returns the benchmark.
func New() suite.Benchmark { return bench{} }

func (bench) Info() suite.Info {
	return suite.Info{
		Name:       "knn",
		Domain:     "Supervised Learning",
		Access:     suite.AccessPattern{Sequential: true, Random: true},
		HostPhase:  true,
		PaperInput: "6,710,886 2D data points",
	}
}

// DefaultSize returns the training-set size.
func (bench) DefaultSize(functional bool) int64 {
	if functional {
		return 2048
	}
	return 6_710_886
}

// classify returns the majority label among the k nearest points, ordered
// by distance then index. One streaming pass keeps the k nearest so far in
// order; a later point never displaces an equal-distance earlier one.
func classify(dist []int64, labels []int32) int32 {
	var top [k]int // indices of the nearest points so far, nearest first
	m := 0
	for i, d := range dist {
		if m == k && d >= dist[top[k-1]] {
			continue
		}
		j := min(m, k-1)
		for ; j > 0 && dist[top[j-1]] > d; j-- {
			top[j] = top[j-1]
		}
		top[j] = i
		m = min(m+1, k)
	}
	var votes [classes]int
	for _, i := range top[:m] {
		votes[labels[i]]++
	}
	best := int32(0)
	for c := 1; c < classes; c++ {
		if votes[c] > votes[best] {
			best = int32(c)
		}
	}
	return best
}

func (b bench) Run(cfg suite.Config) (suite.Result, error) {
	r, err := suite.NewRunner(b, cfg)
	if err != nil {
		return suite.Result{}, err
	}
	dev, n := r.Dev, r.Size

	var tx, ty []int32
	var labels []int32
	var qx, qy []int32
	if cfg.Functional {
		rng := workload.RNG(110)
		pts := workload.Points2D(rng, int(n), -10000, 10000)
		tx = make([]int32, n)
		ty = make([]int32, n)
		labels = make([]int32, n)
		for i := int64(0); i < n; i++ {
			tx[i], ty[i] = pts[2*i], pts[2*i+1]
			labels[i] = rng.Int31n(classes)
		}
		q := workload.Points2D(rng, queries, -10000, 10000)
		qx = make([]int32, queries)
		qy = make([]int32, queries)
		for i := 0; i < queries; i++ {
			qx[i], qy[i] = q[2*i], q[2*i+1]
		}
	}

	objX, err := dev.Alloc(n, pim.Int32)
	if err != nil {
		return suite.Result{}, err
	}
	objY, err := dev.AllocAssociated(objX)
	if err != nil {
		return suite.Result{}, err
	}
	dx, err := dev.AllocAssociated(objX)
	if err != nil {
		return suite.Result{}, err
	}
	dy, err := dev.AllocAssociated(objX)
	if err != nil {
		return suite.Result{}, err
	}
	if err := pim.CopyToDevice(dev, objX, tx); err != nil {
		return suite.Result{}, err
	}
	if err := pim.CopyToDevice(dev, objY, ty); err != nil {
		return suite.Result{}, err
	}

	// distances computes |tx-qx| + |ty-qy| into dx on PIM.
	distances := func(qxv, qyv int64) error {
		if err := dev.SubScalar(objX, qxv, dx); err != nil {
			return err
		}
		if err := dev.Abs(dx, dx); err != nil {
			return err
		}
		if err := dev.SubScalar(objY, qyv, dy); err != nil {
			return err
		}
		if err := dev.Abs(dy, dy); err != nil {
			return err
		}
		return dev.Add(dx, dy, dx)
	}
	// Per query, the host scans the fetched distance vector once to select
	// the top-k (a streaming selection, no sort of the full vector).
	hostSelect := func() { dev.RecordHostKernel(4*n, n, false) }

	verified := true
	if cfg.Functional {
		for q := 0; q < queries; q++ {
			if err := distances(int64(qx[q]), int64(qy[q])); err != nil {
				return suite.Result{}, err
			}
			dist := make([]int32, n)
			if err := pim.CopyFromDevice(dev, dx, dist); err != nil {
				return suite.Result{}, err
			}
			hostSelect()
			d64 := make([]int64, n)
			want := make([]int64, n)
			for i := int64(0); i < n; i++ {
				d64[i] = int64(dist[i])
				wx, wy := int64(tx[i])-int64(qx[q]), int64(ty[i])-int64(qy[q])
				if wx < 0 {
					wx = -wx
				}
				if wy < 0 {
					wy = -wy
				}
				want[i] = wx + wy
			}
			if classify(d64, labels) != classify(want, labels) {
				verified = false
			}
		}
	} else {
		err := dev.WithRepeat(queries, func() error {
			if err := distances(0, 0); err != nil {
				return err
			}
			if err := pim.CopyFromDevice(dev, dx, []int32(nil)); err != nil {
				return err
			}
			hostSelect()
			return nil
		})
		if err != nil {
			return suite.Result{}, err
		}
	}
	for _, id := range []pim.ObjID{objX, objY, dx, dy} {
		if err := dev.Free(id); err != nil {
			return suite.Result{}, err
		}
	}

	// Baselines compute all distances and select per query.
	per := suite.Kernel{Bytes: 8 * n, Ops: 6 * n}
	var cpuKernels, gpuKernels []suite.Kernel
	for q := 0; q < queries; q++ {
		cpuKernels = append(cpuKernels, per)
		gpuKernels = append(gpuKernels, per)
	}
	cpu := suite.CPUCost(cpuKernels...)
	gpu := suite.GPUCost(gpuKernels...)
	return r.Finish(b, verified, cpu, gpu), nil
}

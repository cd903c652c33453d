package difftest

import (
	"bytes"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/pim"
)

// FuzzOptimizeStream interprets the fuzz input as a random program over a
// small object pool, records its command stream through the public API,
// optimizes it under a fuzz-chosen pass combination, replays the result,
// and checks the differential contract: identical live-object data, costs
// never above the recorded run, and a structurally valid optimized stream.
// The stream fits one optimizer window, so the streaming entry point
// (OptimizeSource) must also return exactly Optimize's records and counters,
// over the recorded records and over the stream's PIMB decoding alike; the
// latter must also replay bit for bit like the optimized stream.
func FuzzOptimizeStream(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x10, 0x04, 0x7F, 0x51, 0x02, 0x33}, uint8(15))
	f.Add([]byte{0x33, 0xFF, 0x00, 0x62, 0x01, 0x00, 0x05, 0x10, 0x20}, uint8(9))
	f.Add([]byte{0x77, 0x01, 0x00, 0x14, 0x22, 0x80, 0x44, 0x05, 0x06}, uint8(4))
	f.Fuzz(func(t *testing.T, prog []byte, passBits uint8) {
		if len(prog) > 96 {
			prog = prog[:96] // bound the stream size
		}
		const n = 8
		dev, err := pim.NewDevice(pim.Config{Target: pim.Fulcrum, Ranks: 1, Functional: true})
		if err != nil {
			t.Fatal(err)
		}
		dev.RecordStream()

		var pool [4]pim.ObjID
		for i := range pool {
			if pool[i], err = dev.Alloc(n, pim.Int32); err != nil {
				t.Fatal(err)
			}
			seed := make([]int32, n)
			for j := range seed {
				seed[j] = int32(i*1000003 + j*7919)
			}
			if err := pim.CopyToDevice(dev, pool[i], seed); err != nil {
				t.Fatal(err)
			}
		}

		binOps := []func(a, b, dst pim.ObjID) error{
			dev.Add, dev.Sub, dev.Mul, dev.And, dev.Or, dev.Xor, dev.Min, dev.Max,
		}
		scalarOps := []func(a pim.ObjID, s int64, dst pim.ObjID) error{
			dev.AddScalar, dev.SubScalar, dev.MulScalar, dev.XorScalar,
			dev.MinScalar, dev.MaxScalar, dev.AndScalar,
		}
		unaryOps := []func(a, dst pim.ObjID) error{dev.Not, dev.Abs, dev.PopCount}

		// Three bytes per instruction: action, operand selector, payload.
		for i := 0; i+2 < len(prog); i += 3 {
			b0, b1, b2 := prog[i], prog[i+1], prog[i+2]
			a := pool[b1&3]
			b := pool[(b1>>2)&3]
			dst := pool[(b1>>4)&3]
			s := int64(int8(b2))
			switch b0 % 9 {
			case 0:
				err = binOps[int(b2)%len(binOps)](a, b, dst)
			case 1:
				err = scalarOps[int(b2>>3)%len(scalarOps)](a, s, dst)
			case 2:
				err = unaryOps[int(b2)%len(unaryOps)](a, dst)
			case 3:
				err = dev.Broadcast(dst, s)
			case 4:
				if a != dst {
					err = dev.CopyDeviceToDevice(a, dst)
				}
			case 5:
				// A repeat scope whose body is one scalar op — hoisting bait.
				err = dev.WithRepeat(2+int64(b1%3), func() error {
					return scalarOps[int(b2)%len(scalarOps)](a, s, dst)
				})
			case 6:
				_, err = dev.RedSum(a)
			case 7:
				// Churn an object: free it and allocate a replacement, giving
				// the stream interleaved lifetimes and ID gaps for DCE.
				slot := b1 & 3
				if err = dev.Free(pool[slot]); err == nil {
					pool[slot], err = dev.Alloc(n, pim.Int32)
				}
			default:
				cnt := 1 + int64(b1>>6)
				err = dev.CopyDeviceToDeviceRange(a, int64(b2)%(n-cnt+1), dst, 0, cnt)
			}
			if err != nil {
				t.Fatalf("op %d (action %d): %v", i/3, b0%9, err)
			}
		}

		stream := dev.RecordedStream()
		cfg := pim.OptimizeConfig{
			DeadCode: passBits&1 != 0,
			Hoist:    passBits&2 != 0,
			Schedule: passBits&4 != 0,
			Fuse:     passBits&8 != 0,
		}
		liveM := dev.Metrics()
		objs := liveObjects(stream)
		liveData := readObjects(t, dev, objs)

		opt, res, err := pim.OptimizeWith(stream, cfg)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("optimized stream is structurally invalid: %v", err)
		}
		// The windowed entry point, over the recorded records and over the
		// stream's PIMB decoding (whose windows hold payloads packed at
		// element width; Collect widens them back).
		var enc bytes.Buffer
		if err := stream.EncodeFormat(&enc, pim.StreamBinary); err != nil {
			t.Fatal(err)
		}
		optimizeSource := func(src pim.StreamSource) (pim.StreamSource, *pim.OptimizeResult) {
			osrc, sres, err := pim.OptimizeSource(src, cfg)
			if err != nil {
				t.Fatalf("optimize source: %v", err)
			}
			return osrc, sres
		}
		openPIMB := func() pim.StreamSource {
			src, err := pim.OpenStreamSource(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		for _, packed := range []bool{false, true} {
			src := cmdstream.FromStream(stream)
			if packed {
				src = openPIMB()
			}
			osrc, sres := optimizeSource(src)
			windowed, err := cmdstream.Collect(osrc)
			if err != nil {
				t.Fatalf("optimize source: %v", err)
			}
			if !reflect.DeepEqual(windowed.Records, opt.Records) || *sres != res {
				t.Fatalf("combo %s, PIMB %v: OptimizeSource (%+v) differs from Optimize (%+v)", comboName(cfg), packed, *sres, res)
			}
		}
		rdev, err := pim.Replay(opt, pim.ReplayConfig{Workers: 1})
		if err != nil {
			t.Fatalf("optimized replay (combo %s, %+v): %v", comboName(cfg), res, err)
		}
		optM, optReport := rdev.Metrics(), rdev.Report()
		optData := readObjects(t, rdev, objs)
		for _, pipelined := range []bool{false, true} {
			osrc, _ := optimizeSource(openPIMB())
			pdev, err := pim.ReplaySource(osrc, pim.ReplayConfig{Workers: 1, Pipelined: pipelined})
			if err != nil {
				t.Fatalf("optimized PIMB replay (combo %s, pipelined %v): %v", comboName(cfg), pipelined, err)
			}
			if pdev.Report() != optReport || !reflect.DeepEqual(readObjects(t, pdev, objs), optData) {
				t.Fatalf("combo %s: optimized PIMB replay (pipelined %v) differs from the optimized stream's", comboName(cfg), pipelined)
			}
		}
		for id := range objs {
			if !reflect.DeepEqual(optData[id], liveData[id]) {
				t.Fatalf("combo %s: object %d data diverged\n got %v\nwant %v",
					comboName(cfg), id, optData[id], liveData[id])
			}
		}
		if !leq(optM.TotalMS(), liveM.TotalMS()) || !leq(optM.TotalMJ(), liveM.TotalMJ()) {
			t.Fatalf("combo %s: cost regressed: %+v vs %+v", comboName(cfg), optM, liveM)
		}
	})
}

package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/fault"
	"pimeval/pim"
)

// mergedFrameBody records Alloc(262144, Int8) plus an h2d copy as PIMB and
// returns that canonical encoding together with a variant whose two
// 131072-element payload frames are merged into one 262144-element frame.
// The variant is non-canonical but valid: decoders accept frames up to
// 2Mi elements, and both frame counts take three uvarint bytes.
func mergedFrameBody(t *testing.T) (canonical, merged []byte) {
	t.Helper()
	dev, err := pim.NewDevice(pim.Config{Target: pim.Fulcrum, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	dev.RecordStream()
	const n, frame = 262144, 131072
	x, err := dev.Alloc(n, pim.Int8)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int8, n)
	for i := range data {
		data[i] = int8(i*7 - 3)
	}
	if err := pim.CopyToDevice(dev, x, data); err != nil {
		t.Fatal(err)
	}
	// Replay checks the recorded sum, so it checks the decoded payload too.
	if _, err := dev.RedSum(x); err != nil {
		t.Fatal(err)
	}
	s := dev.RecordedStream()
	canonical = encodeStream(t, s, pim.StreamBinary)
	hdr := binary.AppendUvarint(nil, frame)
	i := bytes.Index(canonical, hdr)
	second := i + len(hdr) + frame
	if i < 0 || !bytes.Equal(canonical[second:second+len(hdr)], hdr) {
		t.Fatal("canonical encoding does not hold two full payload frames")
	}
	merged = append(merged, canonical[:i]...)
	merged = binary.AppendUvarint(merged, n)
	merged = append(merged, canonical[i+len(hdr):second]...)
	merged = append(merged, canonical[second+len(hdr):]...)
	return canonical, merged
}

// TestHostileInputs throws malformed and adversarial bodies at the submit
// boundary: truncated streams, garbage, oversized payloads, bad headers,
// and semantically invalid (but well-formed) streams. Every one must map to
// the documented 4xx without leaking a device slot, and the server must
// still serve a good session afterwards.
func TestHostileInputs(t *testing.T) {
	srv := New(Config{Devices: 2, Workers: 1, MaxBodyBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	good := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	goodJSON := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamJSON)

	// A syntactically valid stream whose replay must fail: the header is
	// real, but the first record executes an object that was never
	// allocated (ErrBadObject -> 400) or names an op that does not exist
	// (no sentinel -> 422).
	base, err := cmdstream.Decode(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	badObject := &cmdstream.Stream{Header: base.Header, Records: []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindExec, Form: cmdstream.FormUnary, Op: "abs", Type: "int32", N: 8, A: 42, Dst: 42},
	}}
	var badObjectEnc bytes.Buffer
	if err := badObject.EncodeBinary(&badObjectEnc); err != nil {
		t.Fatal(err)
	}
	badOp := &cmdstream.Stream{Header: base.Header, Records: []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 8},
		{Seq: 2, Kind: cmdstream.KindExec, Form: cmdstream.FormUnary, Op: "frobnicate", Type: "int32", N: 8, A: 1, Dst: 1},
	}}
	var badOpEnc bytes.Buffer
	if err := badOp.Encode(&badOpEnc); err != nil {
		t.Fatal(err)
	}

	// A small body whose header asks for more stuck bits than the fault
	// model allows: rejected at decode, before a device is built from it.
	hostileFaults := &cmdstream.Stream{Header: base.Header}
	hostileFaults.Header.Faults = &fault.Config{StuckBits: 1 << 40}
	var hostileFaultsEnc bytes.Buffer
	if err := hostileFaults.EncodeBinary(&hostileFaultsEnc); err != nil {
		t.Fatal(err)
	}

	// A well-formed stream whose encoding exceeds the server's body limit:
	// the decoder streams records until the MaxBytesReader trips mid-body.
	oversized := &cmdstream.Stream{Header: base.Header}
	for i := 0; int64(i) < 1<<17; i++ {
		oversized.Records = append(oversized.Records,
			cmdstream.Record{Seq: int64(i + 1), Kind: cmdstream.KindHost, TimeNS: 1.5, EnergyPJ: 2.5})
	}
	var oversizedEnc bytes.Buffer
	if err := oversized.EncodeBinary(&oversizedEnc); err != nil {
		t.Fatal(err)
	}
	if oversizedEnc.Len() <= 1<<20 {
		t.Fatalf("oversized fixture is only %d bytes, need > 1 MiB", oversizedEnc.Len())
	}

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty-body", nil, http.StatusBadRequest},
		{"garbage-text", []byte("this is not a stream"), http.StatusBadRequest},
		{"garbage-binary", []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3}, http.StatusBadRequest},
		{"magic-bad-version", append([]byte("PIMB"), 0xff, 0xff, 0xff, 0xff, 0xff), http.StatusBadRequest},
		{"binary-cut-mid-header", good[:8], http.StatusBadRequest},
		{"binary-cut-mid-records", good[:len(good)*3/4], http.StatusBadRequest},
		{"binary-cut-last-byte", good[:len(good)-1], http.StatusBadRequest},
		{"json-cut-in-half", goodJSON[:len(goodJSON)/2], http.StatusBadRequest},
		{"json-open-brace-only", []byte("{"), http.StatusBadRequest},
		{"json-wrong-shape", []byte(`{"hello":"world"}`), http.StatusBadRequest},
		{"bad-version", []byte(`{"header":{"version":99}}`), http.StatusBadRequest},
		{"exec-unallocated-object", badObjectEnc.Bytes(), http.StatusBadRequest},
		{"unknown-op", badOpEnc.Bytes(), http.StatusUnprocessableEntity},
		{"fault-count-over-cap", hostileFaultsEnc.Bytes(), http.StatusBadRequest},
		{"oversized-body", oversizedEnc.Bytes(), http.StatusRequestEntityTooLarge},
	}

	failed := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			resp, _, errMsg := submit(t, ts, c.body, "hostile", "")
			if resp.StatusCode != c.want {
				t.Errorf("status %d, want %d (error %q)", resp.StatusCode, c.want, errMsg)
			}
			if resp.StatusCode != http.StatusOK {
				if errMsg == "" {
					t.Error("error response carries no JSON error message")
				}
				failed++
			}
			// The failed session must not hold a device slot or queue entry.
			if a := srv.active(); a != 0 {
				t.Fatalf("device slot leaked: active = %d", a)
			}
			if q := srv.queue.Load(); q != 0 {
				t.Fatalf("queue entry leaked: depth = %d", q)
			}
		})
	}

	// Wrong method is rejected before a session even starts.
	resp, err := ts.Client().Get(ts.URL + "/v1/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/submit: %d, want 405", resp.StatusCode)
	}

	// A valid but non-canonical stream with one payload frame larger than
	// encoders emit replays exactly like its canonical encoding, serial and
	// pipelined.
	canonical, merged := mergedFrameBody(t)
	want := localExpected(t, canonical, 1)
	for _, q := range []string{"?pipelined=0", "?pipelined=1"} {
		resp, sr, errMsg := submit(t, ts, merged, "merged", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("merged payload frame %s: %d %s", q, resp.StatusCode, errMsg)
		}
		checkMatches(t, sr, want)
	}

	// The server is still healthy: a good submit succeeds and the failure
	// counters account for exactly the hostile sessions.
	okResp, sr, errMsg := submit(t, ts, good, "survivor", "")
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("post-hostile submit: %d %s", okResp.StatusCode, errMsg)
	}
	if sr.Records == 0 {
		t.Error("post-hostile submit replayed no records")
	}
	snap := srv.snapshot()
	if snap.SessionsTotal != 3 {
		t.Errorf("sessions_total = %d, want 3 (the merged-frame and good sessions)", snap.SessionsTotal)
	}
	if snap.SessionsFailed != int64(failed) {
		t.Errorf("sessions_failed = %d, want %d", snap.SessionsFailed, failed)
	}
	if snap.ActiveSessions != 0 || snap.QueueDepth != 0 {
		t.Errorf("gauges non-zero after battery: %+v", snap)
	}
}

// TestHostileErrorMessages spot-checks that rejections carry actionable
// sentinel text rather than opaque 400s.
func TestHostileErrorMessages(t *testing.T) {
	srv := New(Config{Devices: 1, Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	good := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	_, _, truncMsg := submit(t, ts, good[:len(good)-1], "t", "")
	if !strings.Contains(truncMsg, "truncated") {
		t.Errorf("truncation error %q does not mention truncation", truncMsg)
	}
	_, _, fmtMsg := submit(t, ts, []byte("garbage"), "t", "")
	if !strings.Contains(fmtMsg, "format") {
		t.Errorf("format error %q does not mention format", fmtMsg)
	}
}

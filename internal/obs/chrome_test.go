package obs

import (
	"bytes"
	"strings"
	"testing"
)

func sampleHub() *Obs {
	o := New(2, ClockVirtual)
	o.Rank(0).Begin("phase", 0)
	o.Rank(0).End(1e-6, Attr{Key: "alg", Value: "ssar"})
	o.Rank(0).EventLane(LaneNet, "send", 0, 2e-6,
		Attr{Key: "dst", Value: "1"}, Attr{Key: "bytes", Value: "64"})
	o.Rank(1).EventLane(LaneMerge, "split:merge", 5e-7, 1.5e-6)
	o.Rank(1).Instant("adapt:decision", 1e-6, Attr{Key: "alg", Value: "dsar"})
	o.Named("job-7").Event("job:step", 0, 3e-6)
	return o
}

func TestChromeTraceLayout(t *testing.T) {
	tr := sampleHub().ChromeTrace()
	if tr.DisplayTimeUnit != "ms" || tr.OtherData["clock"] != "virtual" {
		t.Fatalf("header wrong: %+v", tr)
	}
	var meta, complete, instant int
	tids := map[int]string{}
	for _, ev := range tr.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			if ev.Name == "thread_name" && ev.PID == PIDRanks {
				tids[ev.TID] = ev.Args["name"]
			}
		case "X":
			complete++
		case "i":
			instant++
			if ev.Scope != "t" {
				t.Fatal("instant missing thread scope")
			}
		}
	}
	// 2 process_name + 4 rank thread lanes + 1 job thread.
	if meta != 7 {
		t.Fatalf("meta events = %d, want 7", meta)
	}
	if complete != 4 || instant != 1 {
		t.Fatalf("complete=%d instant=%d", complete, instant)
	}
	// tid layout: rank*3 + lane index.
	if tids[0] != "rank 0" || tids[1] != "rank 0 net" ||
		tids[3] != "rank 1" || tids[5] != "rank 1 merge" {
		t.Fatalf("thread names wrong: %v", tids)
	}
	// Timestamps are microseconds.
	for _, ev := range tr.TraceEvents {
		if ev.Name == "send" && (ev.TS != 0 || ev.Dur != 2) {
			t.Fatalf("send ts/dur = %g/%g, want 0/2", ev.TS, ev.Dur)
		}
	}
}

func TestChromeDecodeEncodeIdentity(t *testing.T) {
	// decode∘encode must be the identity on encoder output: this is
	// the contract the committed Perfetto golden file relies on.
	first, err := EncodeChromeTrace(sampleHub().ChromeTrace())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeChromeTrace(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeChromeTrace(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decode∘encode not identity:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// FuzzDecodeChromeTrace: whatever bytes a trace file holds,
// DecodeChromeTrace returns a document or an error — it never panics — and
// an accepted document re-encodes to JSON that decodes again and encodes
// to the same bytes (the identity the Perfetto golden relies on, for any
// input rather than the encoder's own output).
func FuzzDecodeChromeTrace(f *testing.F) {
	enc, err := EncodeChromeTrace(sampleHub().ChromeTrace())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte("{\n  \"traceEvents\": [\n  ]\n}\n"))
	f.Add([]byte(`{"displayTimeUnit":"\u0007<ns>","otherData":{"clock":"wall"},"traceEvents":[{"name":"\ufffd","ph":"X","ts":-0,"dur":1e300,"pid":1,"tid":-2,"args":{}}]}`))
	f.Add([]byte(`{"traceEvents":[{"ts":1e999}]}`))
	f.Add([]byte(`{"traceEvents":null,"TRACEEVENTS":[{"PH":"i","s":"t"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeChromeTrace(data)
		if err != nil {
			return
		}
		first, err := EncodeChromeTrace(doc)
		if err != nil {
			t.Fatalf("an accepted document does not encode: %v", err)
		}
		again, err := DecodeChromeTrace(first)
		if err != nil {
			t.Fatalf("an accepted document re-encodes to JSON that does not decode: %v\n%s", err, first)
		}
		second, err := EncodeChromeTrace(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode∘encode not identity:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}

func TestWriteChromeNilHub(t *testing.T) {
	var o *Obs
	var b bytes.Buffer
	if err := o.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChromeTrace(b.Bytes()); err != nil {
		t.Fatalf("nil hub export not valid JSON: %v", err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatal("nil hub export missing traceEvents")
	}
}

func TestWriteMetrics(t *testing.T) {
	o := New(2, ClockWall)
	o.Metrics().Counter("comm.sends").Add(1, 3)
	var b bytes.Buffer
	if err := o.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "counter comm.sends = 3\n" {
		t.Fatalf("metrics dump: %q", b.String())
	}
	if o.Clock().String() != "wall" {
		t.Fatal("clock string")
	}
}

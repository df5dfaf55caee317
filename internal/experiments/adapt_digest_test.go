package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// TestAdaptDecisionDigests pins every adaptive decision of the library
// cells (the four BENCH_5 cells among them, on the BENCH_5 machine shape
// and key): per cell, SHA-256 over each "adapt:decision" instant's rank,
// per-rank order and every attr. predicted_s is printed at full precision
// and priced on the agreed calibrated α–β, so a change in which sends the
// link calibrators fold, or in what order, moves a digest even where it
// moves no choice. Recorded at the commit before the calibrators' send
// history was replaced by the send hook (comm.World.OnSend).
func TestAdaptDecisionDigests(t *testing.T) {
	want := map[string]string{
		"clustered":     "27ebf2987e20dab074b03112e895f36fd7633c0334caccc48a761e287d3eaafd",
		"drift-cluster": "e9451d1ca5b8c32df3c7bd39a3ad49b2245590f30f4e9bf6990fa4d401a4b162",
		"drift-shift":   "e3f8e246594f1305b3e9c28fc8b953ed1a1f8169c0929c6975944686cfc3775b",
		"lstm":          "a39b52223826cb5fbaa75f9463dc71a16bcf3e5bb27ad1cd35183de49230f8ae",
		"multimodal":    "b14797b1f883504d799bf932978813f8d1f2c9d93d0565be192b7d3222bf5cf1",
		"ragged":        "c6044333a5263eeb11b323e919b0925940a35ab17f460608121e7e78cff3b8ce",
		"transformer":   "eef08951caa620c12812e6d6de246cb55d1b494c27f3e3204224bc6fb4cf5064",
		"uniform":       "cfdf6c827366e91b5d5b7cbf632fe0fc7826353c0ee44ab3e35dd343e2146c6e",
		"zipf":          "cd567957927fbd89e73b379a5910c3da32bb5c679f0c2a67115c42bac24bf69a",
	}
	key := scenario.NewKey(AdaptSeed)
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, hub := RunAdaptCell(4, 1, scenario.Record(sc, key), true)
		h := sha256.New()
		order := map[int]int{}
		for _, s := range hub.Spans() {
			if s.Name != "adapt:decision" {
				continue
			}
			fmt.Fprintf(h, "%d %d", s.Rank, order[s.Rank])
			order[s.Rank]++
			for _, a := range s.Attrs {
				fmt.Fprintf(h, " %s=%s", a.Key, a.Value)
			}
			h.Write([]byte{'\n'})
		}
		if len(order) != sc.P {
			t.Errorf("%s: decisions on %d ranks, want %d", name, len(order), sc.P)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, want[name])
		}
	}
}

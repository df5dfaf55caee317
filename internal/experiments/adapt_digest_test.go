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
// moves no choice. Recorded when the hierarchical algorithms became depths
// of the flat ones: against the previous digests every decision kept its
// depth, support model and reason, the algorithm was renamed at the same
// depth (the sparse one by core.AutoSSARAtDepth), and predicted_s moved in
// its last digits (relative 7e-13 at most) only because the leaders' size
// agreement no longer sends messages for the calibrators to fold.
func TestAdaptDecisionDigests(t *testing.T) {
	want := map[string]string{
		"clustered":     "d69fedf9488062f67ec84f9ff7c9f4c876a773fca5a11e99018ca8e72320b3a9",
		"drift-cluster": "4a5311398356a8879d9766f91272da40d84ee4966e18bcb436da729467216b6a",
		"drift-shift":   "c9a7e01a7db9673fc9831e0ed824134945dad1367786cab90c93601d0c051f81",
		"lstm":          "18a5d7f487534c69a5310f364f93ccbd8c3f0b9b52b1fbf40e9364e61351c4f8",
		"multimodal":    "ebb9b45f93ca3ed8cb170058b2d8bea5e51e02011acfcdb0da7966d781e5197c",
		"ragged":        "38feda6912e78b0d9eef14c911aaf8e691969daa7a9368df2a47366d6679289e",
		"transformer":   "dbb6a457caa46e01e7b974eda9516ff8a88d4fe7501e418dad5f5af2962ccd09",
		"uniform":       "1fd32072901e4f6bb23ec9772b9ceda0d39350a900fde242a5fecd5eed0e779f",
		"zipf":          "c21409cc8207a504f197292b08f890517aa784db0ade4ade922936fd3d26d8de",
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

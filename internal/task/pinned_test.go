package task

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fveval/internal/engine"
)

// TestPinnedFormalDigests pins the full-size formal-judge reports, the
// Design2SVA categories and AGR at their registry defaults, by the
// SHA-256 of their encoding. The golden files cover small slices; these
// digests cover every instance, sample and model, so any change to how
// the design judge parses, elaborates or proves must leave every
// verdict in place. The digests were recorded before the per-instance
// parse cache existed; a change to how the judge works, rather than to
// what it decides, must reproduce them exactly.
func TestPinnedFormalDigests(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"design2sva-pipeline", Request{Task: "design2sva", Params: Params{Kinds: []string{"pipeline"}}},
			"13dba38a41f7e9f7bef0d2c1976cec2d381ee8759de94293ae63e8518927ce89"},
		{"design2sva-fsm", Request{Task: "design2sva", Params: Params{Kinds: []string{"fsm"}}},
			"2eda9f85ced2025c7a51baa6f0071e5ac52d8c41ca48cfd45e141c1f37b675af"},
		{"agr", Request{Task: "agr"},
			"ac98f21b9237d8c6d56bc1200ca8f4b62edc9dbbce668e19a00ca35cdf83aaa1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := NewEngine(engine.Config{}).Run(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := run.Report.Encode()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("report digest drifted: got %s, want %s", got, c.want)
			}
		})
	}
}

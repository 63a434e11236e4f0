package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/proto"
	"dqemu/internal/workloads"
)

// Wire measures the wire-efficiency layer (delta page transfers,
// invalidation coalescing, push piggybacking) on the two most
// coherence-bound workloads of §6: the write-heavy fluidanimate-like
// stencil and the x264-like pipeline. Each benchmark runs the full ablation
// matrix — layer off (the pre-layer baseline), coalescing only, deltas
// only, and both — and reports coherence payload bytes, message counts and
// the mean remote-fault stall. Table 1 charges ≈410 µs per remote fault and
// §6 blames the gigabit link for the scaling knee, so bytes-on-the-wire is
// the honest figure of merit here: every number below flows through
// proto.Msg.WireSize() and the netsim bandwidth model.
type Wire struct {
	Benches []WireBench `json:"benches"`
}

// WireBench is one workload's ablation matrix.
type WireBench struct {
	Name string    `json:"name"`
	Rows []WireRow `json:"rows"`
}

// WireRow is one ablation's measurement.
type WireRow struct {
	Config     string `json:"config"` // baseline | no-delta | no-coalesce | full
	NoDelta    bool   `json:"no_delta"`
	NoCoalesce bool   `json:"no_coalesce"`

	// CohPayloadBytes is what the coherence protocol shipped past the
	// fixed per-message headers; CohWireBytes adds those headers back (the
	// figure the netsim bandwidth model actually bills — coalescing trades
	// header bytes for a few payload bytes, so this is the ordered metric);
	// CohMsgs counts its messages. TotalBytes is everything on the wire
	// including non-DSM traffic.
	CohPayloadBytes uint64 `json:"coh_payload_bytes"`
	CohWireBytes    uint64 `json:"coh_wire_bytes"`
	CohMsgs         uint64 `json:"coh_msgs"`
	TotalBytes      uint64 `json:"total_bytes"`

	// MeanFaultNs is the average remote-fault stall across slave faults.
	MeanFaultNs float64 `json:"mean_fault_ns"`
	TimeNs      int64   `json:"time_ns"`

	Wire core.WireStats `json:"wire"`
}

// cohKinds are the message kinds that make up the DSM coherence protocol.
var cohKinds = []proto.Kind{
	proto.KPageReq, proto.KPageContent, proto.KInvalidate, proto.KInvAck,
	proto.KFetch, proto.KFetchReply, proto.KRetry, proto.KRemap, proto.KPush,
	proto.KInvBatch, proto.KInvAckBatch,
}

// wireAblations is the fixed row order: each row must ship no more
// coherence payload than the one before it.
var wireAblations = []struct {
	name                string
	noDelta, noCoalesce bool
}{
	{"baseline", true, true},
	{"no-delta", true, false},
	{"no-coalesce", false, true},
	{"full", false, false},
}

// RunWire executes the wire-efficiency ablation matrix.
func RunWire(o Options) (*Wire, error) {
	o.normalize()
	slaves := 4
	if o.MaxSlaves < slaves {
		slaves = o.MaxSlaves
	}
	stThreads, stGrid, stIters := 32, 192, 6
	xThreads, xGroup, xFrames := 16, 4, 8
	switch o.Scale {
	case Full:
		stThreads, stGrid, stIters = 64, 512, 12
		xFrames = 24
	case Smoke:
		stThreads, stGrid, stIters = 8, 64, 2
		xThreads, xGroup, xFrames = 8, 2, 3
	}

	benches := []struct {
		name  string
		build func() (*image.Image, error)
	}{
		{"fluidanimate", func() (*image.Image, error) {
			return workloads.Fluidanimate(stThreads, stGrid, stIters, slaves)
		}},
		{"x264", func() (*image.Image, error) {
			return workloads.X264(xThreads, xGroup, xFrames)
		}},
	}

	out := &Wire{}
	for _, b := range benches {
		im, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("wire %s: %w", b.name, err)
		}
		bench := WireBench{Name: b.name}
		for _, abl := range wireAblations {
			cfg := baseConfig(slaves)
			cfg.Forwarding = true
			cfg.HintSched = true
			cfg.NoDelta = abl.noDelta
			cfg.NoCoalesce = abl.noCoalesce
			res, err := run(im, cfg)
			if err != nil {
				return nil, fmt.Errorf("wire %s %s: %w", b.name, abl.name, err)
			}
			row := WireRow{
				Config:     abl.name,
				NoDelta:    abl.noDelta,
				NoCoalesce: abl.noCoalesce,
				TotalBytes: res.Net.Bytes,
				TimeNs:     res.TimeNs,
				Wire:       res.Wire,
			}
			for _, k := range cohKinds {
				row.CohMsgs += res.Net.ByKind[k]
				row.CohWireBytes += res.Net.BytesByKind[k]
				row.CohPayloadBytes += res.Net.BytesByKind[k] - uint64(proto.HeaderSize)*res.Net.ByKind[k]
			}
			var faults uint64
			var waitNs int64
			for _, n := range res.Nodes {
				if n.Node == 0 {
					continue
				}
				faults += n.PageFaults
				waitNs += n.PageWaitNs
			}
			if faults > 0 {
				row.MeanFaultNs = float64(waitNs) / float64(faults)
			}
			bench.Rows = append(bench.Rows, row)
			o.logf("wire %s: %-12s %7.1f KB payload, %6d msgs, fault %6.1f us, wall %.3fs",
				b.name, abl.name, float64(row.CohPayloadBytes)/1e3, row.CohMsgs,
				row.MeanFaultNs/1e3, seconds(row.TimeNs))
		}
		out.Benches = append(out.Benches, bench)
	}
	return out, nil
}

// row returns the named ablation row.
func (b *WireBench) row(name string) *WireRow {
	for i := range b.Rows {
		if b.Rows[i].Config == name {
			return &b.Rows[i]
		}
	}
	return nil
}

// Fails counts acceptance-gate violations: on every bench the billed
// coherence wire bytes must be monotone baseline >= no-delta >= full and
// baseline >= no-coalesce >= full (each ablation independently recovers
// toward baseline, never worsens it); on the stencil the full layer must
// cut payload bytes by at least 40% and shorten the mean remote-fault
// stall.
func (wr *Wire) Fails() int {
	fails := 0
	for _, b := range wr.Benches {
		base, nd, nc, full := b.row("baseline"), b.row("no-delta"), b.row("no-coalesce"), b.row("full")
		if base == nil || nd == nil || nc == nil || full == nil {
			fails++
			continue
		}
		if !(base.CohWireBytes >= nd.CohWireBytes && nd.CohWireBytes >= full.CohWireBytes) {
			fails++
		}
		if !(base.CohWireBytes >= nc.CohWireBytes && nc.CohWireBytes >= full.CohWireBytes) {
			fails++
		}
		if base.CohMsgs < full.CohMsgs {
			fails++
		}
		if b.Name == "fluidanimate" {
			if float64(full.CohPayloadBytes) > 0.6*float64(base.CohPayloadBytes) {
				fails++
			}
			if full.MeanFaultNs >= base.MeanFaultNs {
				fails++
			}
		}
	}
	return fails
}

// Print renders the matrix.
func (wr *Wire) Print(w io.Writer) {
	for _, b := range wr.Benches {
		fmt.Fprintf(w, "Wire efficiency: %s (4 slaves, forwarding + hint scheduling)\n", b.Name)
		fmt.Fprintf(w, "%-13s %-16s %-12s %-8s %-11s %-9s %-22s\n",
			"config", "payload(KB)", "wire(KB)", "msgs", "fault(us)", "wall(s)", "pages same/delta/rle/full")
		base := b.row("baseline")
		for _, r := range b.Rows {
			enc := fmt.Sprintf("%d/%d/%d/%d",
				r.Wire.SamePages, r.Wire.DeltaPages, r.Wire.RLEPages, r.Wire.FullPages)
			saved := ""
			if base != nil && base.CohPayloadBytes > 0 && r.Config != "baseline" {
				saved = fmt.Sprintf(" (%+.0f%%)",
					-100*(1-float64(r.CohPayloadBytes)/float64(base.CohPayloadBytes)))
			}
			fmt.Fprintf(w, "%-13s %-16s %-12.1f %-8d %-11.1f %-9.3f %-22s\n",
				r.Config, fmt.Sprintf("%.1f%s", float64(r.CohPayloadBytes)/1e3, saved),
				float64(r.CohWireBytes)/1e3, r.CohMsgs, r.MeanFaultNs/1e3, seconds(r.TimeNs), enc)
		}
		fmt.Fprintln(w)
	}
	if n := wr.Fails(); n > 0 {
		fmt.Fprintf(w, "WIRE GATES FAILED: %d\n", n)
	}
}

// WriteJSON emits the machine-readable form (committed as BENCH_pr4.json).
func (wr *Wire) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wr)
}

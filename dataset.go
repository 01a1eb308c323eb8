package rtbh

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/ip2as"
	"repro/internal/ipfix"
	"repro/internal/peeringdb"
	"repro/internal/scenario"
)

// Dataset is a loaded measurement dataset: the parsed control plane, the
// side tables, and a re-iterable flow-record source. Flow records are
// streamed, never held in memory, so full paper-scale datasets analyze in
// bounded space.
type Dataset struct {
	Meta    *analysis.Metadata
	Updates []analysis.ControlUpdate
	// FlowUpdates is the FlowSpec signaling stream extracted from the
	// same control-plane archive (empty for datasets without fine-grained
	// mitigation).
	FlowUpdates []analysis.FlowUpdate
	// Truth is the simulator's ground truth if present (nil otherwise);
	// analysis never consumes it, the experiment harness does.
	Truth *scenario.GroundTruth

	eachBatch func(fn ipfix.BatchSink) error
}

// OpenDataset loads the dataset written by Simulate from dir.
func OpenDataset(dir string) (*Dataset, error) {
	var dm datasetMeta
	if err := readJSON(filepath.Join(dir, FileMetadata), &dm); err != nil {
		return nil, err
	}
	meta := &analysis.Metadata{
		SamplingRate: dm.SamplingRate,
		TrafficScale: dm.TrafficScale,
		Start:        dm.Start,
		End:          dm.End,
		MemberByMAC:  make(map[ipfix.MAC]uint32, len(dm.Members)),
		BlackholeMAC: dm.BlackholeMAC,
		InternalMACs: make(map[ipfix.MAC]bool, len(dm.InternalMACs)),
	}
	for _, m := range dm.Members {
		meta.MemberByMAC[m.MAC] = m.ASN
	}
	for _, mac := range dm.InternalMACs {
		meta.InternalMACs[mac] = true
	}

	tblFile, err := os.Open(filepath.Join(dir, FileIP2AS))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	meta.IP2AS, err = ip2as.ReadJSON(tblFile)
	tblFile.Close()
	if err != nil {
		return nil, err
	}

	pdbFile, err := os.Open(filepath.Join(dir, FilePDB))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	meta.PDB, err = peeringdb.ReadJSON(pdbFile)
	pdbFile.Close()
	if err != nil {
		return nil, err
	}

	mrtFile, err := os.Open(filepath.Join(dir, FileUpdates))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	updates, flowUpdates, err := analysis.ParseMRTAll(mrtFile)
	mrtFile.Close()
	if err != nil {
		return nil, err
	}

	ds := &Dataset{
		Meta:        meta,
		Updates:     updates,
		FlowUpdates: flowUpdates,
		eachBatch: func(fn ipfix.BatchSink) error {
			f, err := os.Open(filepath.Join(dir, FileFlows))
			if err != nil {
				return fmt.Errorf("rtbh: %w", err)
			}
			defer f.Close()
			rd := ipfix.NewReader(f)
			for {
				b := ipfix.GetBatch()
				if err := rd.NextBatch(b); err != nil {
					b.Release()
					if errors.Is(err, io.EOF) {
						return nil
					}
					return err
				}
				err := fn(b)
				b.Release()
				if err != nil {
					return err
				}
			}
		},
	}

	// Ground truth is optional: a real-world dataset would not have one.
	if tf, err := os.Open(filepath.Join(dir, FileTruth)); err == nil {
		truth, terr := scenario.ReadTruthJSON(tf)
		tf.Close()
		if terr != nil {
			return nil, terr
		}
		ds.Truth = truth
	}
	return ds, nil
}

// NewDataset builds an in-memory dataset (tests, examples) from parsed
// parts. flows must remain unmodified for the dataset's lifetime. Set
// Dataset.FlowUpdates afterwards to attach a FlowSpec signaling stream.
func NewDataset(meta *analysis.Metadata, updates []analysis.ControlUpdate, flows []ipfix.FlowRecord) *Dataset {
	return &Dataset{
		Meta:    meta,
		Updates: updates,
		eachBatch: func(fn ipfix.BatchSink) error {
			const chunk = 1024
			for off := 0; off < len(flows); off += chunk {
				end := off + chunk
				if end > len(flows) {
					end = len(flows)
				}
				b := ipfix.GetBatch()
				b.Recs = append(b.Recs, flows[off:end]...)
				err := fn(b)
				b.Release()
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// EachFlowBatch streams the flow records to fn in batches — one batch
// per archived IPFIX message for on-disk datasets — handing each batch
// per the ipfix.RecordBatch contract; callable repeatedly. This is the
// hot-path seam: the pooled batches make a full pass allocation-free per
// record.
func (d *Dataset) EachFlowBatch(fn ipfix.BatchSink) error {
	return d.eachBatch(fn)
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("rtbh: parsing %s: %w", path, err)
	}
	return nil
}

package rtbh

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

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

// ixpDirs names the dataset directories of a run over several exchanges:
// <dir>/ixp0, <dir>/ixp1, ...
func ixpDirs(dir string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, "ixp"+strconv.Itoa(i))
	}
	return dirs
}

// exchangeDirs is the dataset layout of a run over n exchanges: dir
// itself holds the dataset of a single exchange, ixpDirs the datasets of
// several. Simulate and LiveRun write by it, DatasetDirs reads it back.
func exchangeDirs(dir string, n int) []string {
	if n == 1 {
		return []string{dir}
	}
	return ixpDirs(dir, n)
}

// DatasetDirs decides what dir holds and returns the dataset directories
// in it, by exchange: dir itself when it has a metadata.json, else the
// consecutive run dir/ixp0..ixp<N-1> that Simulate and LiveRun write for
// cfg.IXPs = N. One directory goes to OpenDataset, several to
// AnalyzeFederated. Every dataset returned is complete — holds its two
// archives, metadata and side tables — so a gap in the run or a missing
// file is an error here, naming the file, before any work starts.
func DatasetDirs(dir string) ([]string, error) {
	st, err := os.Stat(dir)
	switch {
	case os.IsNotExist(err):
		return nil, fmt.Errorf("dataset directory %q does not exist (generate one with rtbh-sim -out %s)", dir, dir)
	case err != nil:
		return nil, fmt.Errorf("dataset directory %q: %v", dir, err)
	case !st.IsDir():
		return nil, fmt.Errorf("%q is not a directory", dir)
	}
	dirs := []string{dir}
	if _, err := os.Stat(filepath.Join(dir, FileMetadata)); err != nil {
		// Not a dataset itself: as many ixp<i> entries as there are have
		// to be the run ixp0, ixp1, ... without a gap.
		ixps, _ := filepath.Glob(filepath.Join(dir, "ixp[0-9]*"))
		if len(ixps) == 0 {
			return nil, fmt.Errorf("%q does not look like a dataset directory: missing %s, and no ixp0 of a run over several exchanges either (generate one with rtbh-sim -out %s)", dir, FileMetadata, dir)
		}
		dirs = ixpDirs(dir, len(ixps))
	}
	for _, d := range dirs {
		for _, name := range []string{FileMetadata, FileUpdates, FileFlows, FileIP2AS, FilePDB} {
			if _, err := os.Stat(filepath.Join(d, name)); err != nil {
				return nil, fmt.Errorf("%q is not a complete dataset: missing %s (regenerate it with rtbh-sim)", dir, filepath.Join(d, name))
			}
		}
	}
	return dirs, nil
}

// newMetadata builds the analyzer-side metadata from what metadata.json
// records and the two side tables: OpenDataset reads all three from disk,
// a LiveRun has them in the planned world.
func newMetadata(dm datasetMeta, tbl *ip2as.Table, pdb *peeringdb.Registry) *analysis.Metadata {
	meta := &analysis.Metadata{
		SamplingRate: dm.SamplingRate,
		TrafficScale: dm.TrafficScale,
		Start:        dm.Start,
		End:          dm.End,
		MemberByMAC:  make(map[ipfix.MAC]uint32, len(dm.Members)),
		BlackholeMAC: dm.BlackholeMAC,
		InternalMACs: make(map[ipfix.MAC]bool, len(dm.InternalMACs)),
		IP2AS:        tbl,
		PDB:          pdb,
	}
	for _, m := range dm.Members {
		meta.MemberByMAC[m.MAC] = m.ASN
	}
	for _, mac := range dm.InternalMACs {
		meta.InternalMACs[mac] = true
	}
	return meta
}

// OpenDataset loads the dataset written by Simulate from dir.
func OpenDataset(dir string) (*Dataset, error) {
	var dm datasetMeta
	if err := readJSON(filepath.Join(dir, FileMetadata), &dm); err != nil {
		return nil, err
	}

	tblFile, err := os.Open(filepath.Join(dir, FileIP2AS))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	tbl, err := ip2as.ReadJSON(tblFile)
	tblFile.Close()
	if err != nil {
		return nil, err
	}

	pdbFile, err := os.Open(filepath.Join(dir, FilePDB))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	pdb, err := peeringdb.ReadJSON(pdbFile)
	pdbFile.Close()
	if err != nil {
		return nil, err
	}
	meta := newMetadata(dm, tbl, pdb)

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

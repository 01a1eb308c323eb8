package rtbh

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

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

	dir       string // the directory OpenDataset read; "" in memory
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

// OpenDataset loads the dataset written by Simulate from dir: first
// metadata.json, then the two side tables and the control archive side by
// side, one goroutine each, all joined before it returns. When several
// files fail, the error names the first of ip2as.json, peeringdb.json and
// updates.mrt that did, whatever order they failed in. The flow archive is
// streamed by EachFlowBatch, and the ground truth read by GroundTruth.
func OpenDataset(dir string) (*Dataset, error) {
	var dm datasetMeta
	if err := readJSON(filepath.Join(dir, FileMetadata), &dm); err != nil {
		return nil, err
	}

	var (
		tbl         *ip2as.Table
		pdb         *peeringdb.Registry
		updates     []analysis.ControlUpdate
		flowUpdates []analysis.FlowUpdate
	)
	loads := []struct {
		name string
		read func(io.Reader) error
	}{
		{FileIP2AS, func(r io.Reader) (err error) { tbl, err = ip2as.ReadJSON(r); return err }},
		{FilePDB, func(r io.Reader) (err error) { pdb, err = peeringdb.ReadJSON(r); return err }},
		{FileUpdates, func(r io.Reader) (err error) {
			updates, flowUpdates, err = analysis.ParseMRTAll(r)
			return err
		}},
	}
	errs := make([]error, len(loads))
	var wg sync.WaitGroup
	for i, l := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = readFile(filepath.Join(dir, l.name), l.read)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return &Dataset{
		Meta:        newMetadata(dm, tbl, pdb),
		Updates:     updates,
		FlowUpdates: flowUpdates,
		dir:         dir,
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
	}, nil
}

// GroundTruth reads the simulator's ground truth from the dataset's
// truth.json, on every call. It returns (nil, nil) when there is none: a
// real-world dataset would not have one, nor does one NewDataset builds.
// The analysis never reads it; tests and the experiment harness do.
func (d *Dataset) GroundTruth() (*GroundTruth, error) {
	if d.dir == "" {
		return nil, nil
	}
	var gt *GroundTruth
	err := readFile(filepath.Join(d.dir, FileTruth), func(r io.Reader) (err error) {
		gt, err = scenario.ReadTruthJSON(r)
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return gt, err
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
	return readFile(path, func(r io.Reader) error { return json.NewDecoder(r).Decode(v) })
}

// readFile opens path and parses it with read; the error names the file.
func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	defer f.Close()
	if err := read(f); err != nil {
		return fmt.Errorf("rtbh: parsing %s: %w", path, err)
	}
	return nil
}

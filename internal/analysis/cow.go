package analysis

// Stamp marks the one store that may write a sub-aggregate in place. A
// keyed operator store (hosts, collateral.Pending, anomaly) stamps every
// sub-aggregate it creates or copies with its own current stamp; a
// sub-aggregate carrying any other stamp is foreign — it may be shared
// with a snapshot, a sibling or a store that was merged in — and is never
// written: the store copies it first (see Cow).
type Stamp struct{ id *byte }

// Cow is the store side of copy-on-write snapshots: the stamp the store
// currently writes under and the number of sub-aggregates it has had to
// copy. Snapshot copies only the store's top-level index and calls Fork,
// which hands both sides a stamp no sub-aggregate carries yet; from then
// on whichever side first writes a shared sub-aggregate pays for its copy,
// and one neither side writes is never copied at all. A stamp is given up
// for good at the next Fork, so a sub-aggregate that was once shared can
// never again be taken for owned.
//
// Stamps are not state: they are absent from every wire encoding.
type Cow struct {
	stamp  Stamp
	copies int64
}

// NewCow returns the copy-on-write state of a fresh store.
func NewCow() Cow { return Cow{stamp: Stamp{new(byte)}} }

// Stamp is the mark for a sub-aggregate the store creates.
func (c *Cow) Stamp() Stamp { return c.stamp }

// Owns reports whether a sub-aggregate marked s may be written in place.
func (c *Cow) Owns(s Stamp) bool { return s == c.stamp }

// Copied counts one copy on first write and returns the mark for the copy.
func (c *Cow) Copied() Stamp {
	c.copies++
	return c.stamp
}

// Fork is the Snapshot step: the store moves to a fresh stamp and the
// returned state, for the snapshot, starts under another.
func (c *Cow) Fork() Cow {
	c.stamp = Stamp{new(byte)}
	return NewCow()
}

// Copies returns how many sub-aggregates the store has copied on first
// write since it was created.
func (c *Cow) Copies() int64 { return c.copies }

package ipfix

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// templateMsg builds one message holding a template set that declares
// fields under template id 300, then a data set of that template carrying
// data.
func templateMsg(fields []templateField, data []byte) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint16(b, ipfixVersion)
	b = append(b, 0, 0) // length, patched below
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint16(b, templateSetID)
	b = binary.BigEndian.AppendUint16(b, uint16(setHeaderLen+4+4*len(fields)))
	b = binary.BigEndian.AppendUint16(b, 300)
	b = binary.BigEndian.AppendUint16(b, uint16(len(fields)))
	for _, f := range fields {
		b = binary.BigEndian.AppendUint16(b, f.id)
		b = binary.BigEndian.AppendUint16(b, f.length)
	}
	b = binary.BigEndian.AppendUint16(b, 300)
	b = binary.BigEndian.AppendUint16(b, uint16(setHeaderLen+len(data)))
	b = append(b, data...)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	return b
}

// appendField appends the wire encoding of r's value for one element; an
// element FlowRecord has no field for gets length bytes of 0xee.
func appendField(b []byte, f templateField, r *FlowRecord) []byte {
	switch f.id {
	case ieFlowStartMilliseconds:
		return binary.BigEndian.AppendUint64(b, uint64(r.Start.UnixMilli()))
	case ieSourceMacAddress:
		return appendMAC(b, r.SrcMAC)
	case ieDestMacAddress:
		return appendMAC(b, r.DstMAC)
	case ieSourceIPv4Address:
		return binary.BigEndian.AppendUint32(b, r.SrcIP)
	case ieDestIPv4Address:
		return binary.BigEndian.AppendUint32(b, r.DstIP)
	case ieSourceTransportPort:
		return binary.BigEndian.AppendUint16(b, r.SrcPort)
	case ieDestTransportPort:
		return binary.BigEndian.AppendUint16(b, r.DstPort)
	case ieProtocolIdentifier:
		return append(b, r.Proto)
	case iePacketDeltaCount:
		return binary.BigEndian.AppendUint64(b, r.Packets)
	case ieOctetDeltaCount:
		return binary.BigEndian.AppendUint64(b, r.Bytes)
	}
	for range f.length {
		b = append(b, 0xee)
	}
	return b
}

// TestOtherTemplatesDecodeFieldByField feeds layouts other than
// flowTemplate: they must not be taken for it, and decode as they did
// before the constant-offset path existed — elements in any order, the
// last of a repeated element winning, unknown elements skipped by length,
// and a missing timestamp left zero.
func TestOtherTemplatesDecodeFieldByField(t *testing.T) {
	a, b := fuzzSeedRecords()[0], fuzzSeedRecords()[1]
	reordered := slices.Clone(flowTemplate)
	slices.Reverse(reordered)
	repeated := append(slices.Clone(flowTemplate), templateField{ieDestTransportPort, 2}, templateField{ieSourceIPv4Address, 4})
	unknown := slices.Insert(slices.Clone(flowTemplate), 3, templateField{999, 3})
	noStart := flowTemplate[1:]

	lastWins := a
	lastWins.DstPort, lastWins.SrcIP = b.DstPort, b.SrcIP
	undated := a
	undated.Start = time.Time{}

	cases := []struct {
		name   string
		fields []templateField
		// second, when set, supplies the fields past len(flowTemplate).
		second *FlowRecord
		want   FlowRecord
	}{
		{"reordered", reordered, nil, a},
		{"repeated", repeated, &b, lastWins},
		{"unknown element", unknown, nil, a},
		{"no flowStartMilliseconds", noStart, nil, undated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rec []byte
			for i, f := range c.fields {
				src := &a
				if i >= len(flowTemplate) && c.second != nil {
					src = c.second
				}
				rec = appendField(rec, f, src)
			}
			data := append(append(slices.Clone(rec), rec...), 0, 0, 0) // two records and padding
			d := NewMsgDecoder()
			got, _, err := d.Decode(templateMsg(c.fields, data), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.templates[300].canonical {
				t.Fatal("the layout is taken for flowTemplate")
			}
			if len(got) != 2 || got[0] != c.want || got[1] != c.want {
				t.Fatalf("decoded %+v, want two of %+v", got, c.want)
			}
		})
	}

	d := NewMsgDecoder()
	if _, _, err := d.Decode(templateMsg(flowTemplate, nil), nil); err != nil || !d.templates[300].canonical {
		t.Fatalf("flowTemplate under another id: canonical %v, err %v", d.templates[300].canonical, err)
	}
}

// FuzzCanonicalDecodeMatchesTemplate decodes arbitrary data-set bytes
// under flowTemplate twice: through the constant-offset loop, inside a
// message as the decoder meets it, and record by record through
// template.decode, the path every other layout takes. The records must be
// equal field for field, trailing bytes shorter than a record must be
// padding, and the records already in dst must survive, whether its spare
// capacity, filled with stale records, takes the decoded ones or is too
// small and dst grows.
//
// The data is cut to maxFuzzRecords records and a partial one: every
// record takes the same path, and more of them only add loop counts, new
// coverage that the fuzzer's minimizer would spend the run shrinking.
func FuzzCanonicalDecodeMatchesTemplate(f *testing.F) {
	const maxFuzzRecords = 8
	enc := NewMsgEncoder(1)
	msg := enc.Encode(fuzzSeedRecords(), false, 0)
	set := slices.Clone(msg[msgHeaderLen+setHeaderLen:])
	f.Add(set, uint8(0))
	f.Add(append(slices.Clone(set), 1, 2, 3), uint8(3)) // padding
	f.Add(set[:flowRecordLen-1], uint8(5))              // padding alone, no spare capacity
	f.Add(slices.Concat(set, set), uint8(6))            // no spare capacity
	f.Add([]byte{}, uint8(2))

	ref := &template{fields: flowTemplate, recordLen: flowRecordLen}
	f.Fuzz(func(t *testing.T, data []byte, kept uint8) {
		data = data[:min(len(data), (maxFuzzRecords+1)*flowRecordLen-1)]
		var want []FlowRecord
		for rest := data; len(rest) >= flowRecordLen; rest = rest[flowRecordLen:] {
			var rec FlowRecord
			if err := ref.decode(rest[:flowRecordLen], &rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}

		// dst keeps kept%4 records. Unless bit 2 of kept is set, it has
		// room for every decoded one, all of it filled with stale records
		// first.
		stale := fuzzSeedRecords()
		n, roomy := int(kept%4), kept&4 == 0
		size := n
		if roomy {
			size += len(want) + 1
		}
		buf := make([]FlowRecord, size)
		for i := range buf {
			buf[i] = stale[i%len(stale)]
		}
		d := NewMsgDecoder()
		got, _, err := d.Decode(templateMsg(flowTemplate, data), buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !d.templates[300].canonical {
			t.Fatal("flowTemplate is not taken for itself")
		}
		if len(got) != n+len(want) {
			t.Fatalf("%d records into a %d-record dst: got %d", len(want), n, len(got))
		}
		if roomy && &got[:1][0] != &buf[0] {
			t.Fatalf("%d records into a dst with room for them: reallocated", len(want))
		}
		for i := range n {
			if got[i] != stale[i%len(stale)] {
				t.Fatalf("kept record %d overwritten: %+v", i, got[i])
			}
		}
		for i, w := range want {
			if got[n+i] != w {
				t.Fatalf("record %d: constant offsets %+v, template.decode %+v", i, got[n+i], w)
			}
		}
	})
}

package trace

import (
	"encoding/binary"
	"fmt"
)

// Wire batch codec: the worker ships its span records to the
// coordinator hex-encoded on the COMPLETE line, so the format must be
// compact, line-safe, and truncatable without corruption. Layout:
//
//	byte 0        codec version (1)
//	per record    ph(1) tid(4 LE) ts(8 LE) id(8 LE)
//	              nameLen(2 LE) name  catLen(2 LE) cat  argLen(2 LE) arg
//
// Records are encoded oldest-first. A batch over its byte budget drops
// its newest whole spans, as a Writer does: a Begin is kept only with
// room for its own End and the Ends of every span kept open, and a
// dropped Begin takes everything nested in it on its lane, End
// included. So a truncated batch still nests, and a kept lease span
// keeps its End. A batch holds at least one record, and every record
// has one of the phases the recorder writes, so the decoder accepts
// exactly what the encoder can produce.

const codecVersion = 1

// recordOverhead is the fixed per-record encoding size.
const recordOverhead = 1 + 4 + 8 + 8 + 2 + 2 + 2

// The loss record DrainBatch appends to a batch that lost records;
// lossRoom is its largest encoding (a count of up to 20 digits).
const (
	lossName = "trace_dropped"
	lossCat  = "trace"
	lossRoom = recordOverhead + len(lossName) + len(lossCat) + 20
)

// EncodeBatch encodes records into at most max bytes, dropping the
// newest whole spans that do not fit. It returns the encoding (nil when
// no record fits) and the number of records dropped.
func EncodeBatch(recs []Record, max int) ([]byte, int) {
	keep, size := fit(recs, max)
	if size == 0 {
		return nil, len(recs)
	}
	buf := make([]byte, 1, size)
	buf[0] = codecVersion
	kept := 0
	for i, rec := range recs {
		if keep[i] {
			buf = appendRecord(buf, rec)
			kept++
		}
	}
	return buf, len(recs) - kept
}

// fit chooses the records EncodeBatch keeps under a budget of max
// bytes and returns them as a mask with the encoding's size (0 when
// none fits).
func fit(recs []Record, max int) ([]bool, int) {
	if len(recs) == 0 || max < 1+recordOverhead {
		return nil, 0
	}
	// pair[i] is the index of the record that closes or opens record
	// i's span on its lane, or -1 when record i is not half of a span
	// in this batch.
	pair := make([]int, len(recs))
	open := map[int32][]int{}
	for i, rec := range recs {
		pair[i] = -1
		switch st := open[rec.TID]; rec.Ph {
		case 'B':
			open[rec.TID] = append(st, i)
		case 'E':
			if n := len(st); n > 0 {
				pair[i], pair[st[n-1]] = st[n-1], i
				open[rec.TID] = st[:n-1]
			}
		}
	}
	keep := make([]bool, len(recs))
	skip := map[int32]int{} // lane → the End of the span being dropped
	used, reserved := 1, 0
	for i, rec := range recs {
		if end, ok := skip[rec.TID]; ok {
			if i == end {
				delete(skip, rec.TID)
			}
			continue
		}
		need := encodedSize(rec)
		switch p := pair[i]; {
		case p >= 0 && p < i: // the End of a kept span: its room is reserved
			reserved -= need
		case p > i: // a Begin: keep it only with room for its End
			end := encodedSize(recs[p])
			if used+need+reserved+end > max {
				skip[rec.TID] = p
				continue
			}
			reserved += end
		default:
			if used+need+reserved > max {
				continue
			}
		}
		used += need
		keep[i] = true
	}
	if used == 1 {
		return nil, 0
	}
	return keep, used
}

func encodedSize(rec Record) int {
	return recordOverhead + len(clip(rec.Name)) + len(clip(rec.Cat)) + len(clip(rec.Arg))
}

func appendRecord(buf []byte, rec Record) []byte {
	buf = append(buf, rec.Ph)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.TID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.TS))
	buf = binary.LittleEndian.AppendUint64(buf, rec.ID)
	buf = appendString(buf, clip(rec.Name))
	buf = appendString(buf, clip(rec.Cat))
	return appendString(buf, clip(rec.Arg))
}

// DecodeBatch parses an EncodeBatch payload. An empty payload is an
// empty batch; a version byte with no record, or a phase the recorder
// never writes, is an error, since Merge copies remote records straight
// into the export.
func DecodeBatch(b []byte) ([]Record, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if b[0] != codecVersion {
		return nil, fmt.Errorf("trace: batch codec version %d, want %d", b[0], codecVersion)
	}
	if len(b) == 1 {
		return nil, fmt.Errorf("trace: batch holds no record")
	}
	b = b[1:]
	recs := make([]Record, 0, len(b)/recordOverhead) // a record takes at least recordOverhead bytes
	for len(b) > 0 {
		if len(b) < recordOverhead-6 { // fixed header before the strings
			return nil, fmt.Errorf("trace: truncated record header (%d bytes left)", len(b))
		}
		var rec Record
		switch rec.Ph = b[0]; rec.Ph {
		case 'B', 'E', 'i', 's', 'f':
		default:
			return nil, fmt.Errorf("trace: record phase %q", rec.Ph)
		}
		rec.TID = int32(binary.LittleEndian.Uint32(b[1:5]))
		rec.TS = int64(binary.LittleEndian.Uint64(b[5:13]))
		rec.ID = binary.LittleEndian.Uint64(b[13:21])
		b = b[21:]
		var err error
		if rec.Name, b, err = takeString(b); err != nil {
			return nil, err
		}
		if rec.Cat, b, err = takeString(b); err != nil {
			return nil, err
		}
		if rec.Arg, b, err = takeString(b); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func clip(s string) string {
	if len(s) > 0xffff {
		return s[:0xffff]
	}
	return s
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("trace: truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("trace: truncated string (%d of %d bytes)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

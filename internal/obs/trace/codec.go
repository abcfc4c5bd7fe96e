package trace

import (
	"encoding/binary"
	"fmt"
)

// Wire batch codec: the worker ships its span records to the
// coordinator hex-encoded on SPANS lines, so the format must be compact
// and line-safe. Layout:
//
//	byte 0        codec version (1)
//	per record    ph(1) tid(4 LE) ts(8 LE) id(8 LE)
//	              nameLen(2 LE) name  catLen(2 LE) cat  argLen(2 LE) arg
//
// Records are encoded oldest-first, and a run of records too large for
// one batch is cut into several at record boundaries, so no record is
// ever dropped. Each string is clipped to 0xffff bytes, so one record
// encodes to at most recordOverhead + 3·0xffff = 196,632 bytes. A
// batch holds at least one record, and every record has one of the
// phases the recorder writes, so the decoder accepts exactly what the
// encoder can produce.

const codecVersion = 1

// recordOverhead is the fixed per-record encoding size.
const recordOverhead = 1 + 4 + 8 + 8 + 2 + 2 + 2

// Batch is one encoded run of consecutive records.
type Batch struct {
	N    int    // records in the batch
	Data []byte // the encoding, version byte first
}

// EncodeBatches encodes records, oldest first, into consecutive batches
// of at most max bytes each, cut at record boundaries, so every record
// lands in exactly one batch. A batch outgrows max only when its one
// record alone does, which no max above 196,632 allows. No record
// means no batch.
func EncodeBatches(recs []Record, max int) []Batch {
	var out []Batch
	for len(recs) > 0 {
		n, size := 1, 1+encodedSize(recs[0])
		for n < len(recs) && size+encodedSize(recs[n]) <= max {
			size += encodedSize(recs[n])
			n++
		}
		buf := make([]byte, 1, size)
		buf[0] = codecVersion
		for _, rec := range recs[:n] {
			buf = appendRecord(buf, rec)
		}
		out = append(out, Batch{N: n, Data: buf})
		recs = recs[n:]
	}
	return out
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

// DecodeBatch parses one EncodeBatches payload. An empty payload is an
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

package sweep

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// CodecVersion identifies the wire format of encoded trial results. It
// participates in every cache key and shard-file header, so bumping it
// atomically invalidates all persisted results rather than decoding
// them wrongly. Bump it after any change to (a) the encoding rules,
// (b) a registered type's shape, or (c) the semantics of any trial
// function — fingerprints pin the workload's *parameters* (config,
// trial keys, seeds), not the code, so a trial-logic change without a
// bump would let old cached results splice silently into new runs.
//
// Version history: 1 = initial format; 2 = cache entry headers carry
// the plan fingerprint (enabling GC by fingerprint, cache.go).
const CodecVersion = 2

// The result-type registry. Wire names are part of the persistence
// contract: renaming a registered type's wire name orphans its cached
// results, and two types can never share a name.
var (
	regMu     sync.RWMutex
	regByName = map[string]reflect.Type{}
	regByType = map[reflect.Type]string{}
)

// RegisterResult registers T under the given stable wire name, so
// values of dynamic type T can cross process boundaries via
// EncodeResult/DecodeResult. T must be an encodable type: bools, ints,
// uints, floats, strings, slices of encodable types, and structs whose
// fields are all exported and encodable. Registration panics on
// violations — they are programming errors, caught by the first test
// that imports the registering package.
func RegisterResult[T any](name string) {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("sweep: RegisterResult of interface type")
	}
	if err := checkEncodable(t, nil); err != nil {
		panic(fmt.Sprintf("sweep: RegisterResult(%q): %v", name, err))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := regByName[name]; ok && prev != t {
		panic(fmt.Sprintf("sweep: wire name %q already registered for %v", name, prev))
	}
	if prev, ok := regByType[t]; ok && prev != name {
		panic(fmt.Sprintf("sweep: type %v already registered as %q", t, prev))
	}
	regByName[name] = t
	regByType[t] = name
}

// checkEncodable validates that t fits the codec's type system. path
// guards against recursive types, which the flat encoding cannot
// represent.
func checkEncodable(t reflect.Type, path []reflect.Type) error {
	for _, p := range path {
		if p == t {
			return fmt.Errorf("recursive type %v", t)
		}
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return nil
	case reflect.Slice:
		return checkEncodable(t.Elem(), append(path, t))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("%v has unexported field %s (codec requires exported fields for exact round-trips)", t, f.Name)
			}
			if err := checkEncodable(f.Type, append(path, t)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported kind %v (%v)", t.Kind(), t)
	}
}

// EncodeResult encodes one trial result as its wire name followed by
// the deterministic binary encoding of the value. The dynamic type of
// v must have been registered. Equal values always produce equal bytes
// (fixed-width integers, IEEE-754 float bits, declaration-order struct
// fields), so encodings can be compared and hashed.
func EncodeResult(v any) ([]byte, error) {
	t := reflect.TypeOf(v)
	regMu.RLock()
	name, ok := regByType[t]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sweep: result type %T not registered (call sweep.RegisterResult)", v)
	}
	buf := appendString(nil, name)
	return appendValue(buf, reflect.ValueOf(v)), nil
}

// DecodeResult decodes bytes produced by EncodeResult back into a
// value of the originally registered concrete type (returned as that
// type, not a pointer, so reductions can type-assert it exactly as
// they assert in-process results).
func DecodeResult(data []byte) (any, error) {
	d := &decoder{buf: data}
	name := d.string()
	regMu.RLock()
	t, ok := regByName[name]
	regMu.RUnlock()
	if d.err != nil {
		return nil, fmt.Errorf("sweep: decoding result header: %w", d.err)
	}
	if !ok {
		return nil, fmt.Errorf("sweep: unknown result wire name %q (registered by a newer binary?)", clip(name))
	}
	v := reflect.New(t).Elem()
	d.value(v)
	if d.err != nil {
		return nil, fmt.Errorf("sweep: decoding %s: %w", name, d.err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("sweep: decoding %s: %d trailing bytes", name, len(d.buf)-d.pos)
	}
	return v.Interface(), nil
}

// appendValue appends the deterministic encoding of v. v's type was
// validated at registration, so unsupported kinds cannot occur.
//
//sf:hotpath
func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(buf, v.Uint())
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(buf, v.String())
	case reflect.Slice:
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = appendValue(buf, v.Index(i))
		}
		return buf
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendValue(buf, v.Field(i))
		}
		return buf
	default:
		//sflint:ignore hotpath panic formatting on a registration-validated unreachable branch
		panic(fmt.Sprintf("sweep: unvalidated kind %v reached the encoder", v.Kind()))
	}
}

//sf:hotpath
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a cursor over an encoded buffer; the first error sticks
// and every subsequent read is a no-op, so call sites check once.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.pos, len(d.buf))
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.pos)
		return 0
	}
	// binary.Uvarint also accepts zero-padded forms (0x80 0x00 for 0).
	// The encoder writes only the minimal form, and accepting another
	// would let a decoded value re-encode to different bytes.
	if n > 1 && d.buf[d.pos+n-1] == 0 {
		d.fail("non-minimal uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.pos) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.buf)-d.pos)
	}
	b := d.bytes(int(n))
	return string(b)
}

// value decodes into the addressable v.
func (d *decoder) value(v reflect.Value) {
	if d.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b := d.bytes(1)
		if b == nil {
			return
		}
		// The encoder writes only 0 and 1; any other byte would decode
		// to true and re-encode differently.
		if b[0] > 1 {
			d.fail("bool byte %d at offset %d, want 0 or 1", b[0], d.pos-1)
			return
		}
		v.SetBool(b[0] == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := d.uint64()
		i := int64(u)
		if d.err == nil && v.OverflowInt(i) {
			d.fail("value %d overflows %v", i, v.Type())
			return
		}
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := d.uint64()
		if d.err == nil && v.OverflowUint(u) {
			d.fail("value %d overflows %v", u, v.Type())
			return
		}
		v.SetUint(u)
	case reflect.Float32:
		b := d.bytes(4)
		if b != nil {
			v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		}
	case reflect.Float64:
		u := d.uint64()
		v.SetFloat(math.Float64frombits(u))
	case reflect.String:
		v.SetString(d.string())
	case reflect.Slice:
		n := d.uvarint()
		if d.err != nil {
			return
		}
		if n == 0 {
			// Canonical: empty decodes to nil, matching the zero value
			// a fresh in-process run would carry.
			v.SetZero()
			return
		}
		// Cap pre-allocation by what the buffer could possibly hold
		// (every element costs at least one byte), so corrupt lengths
		// fail cleanly instead of allocating wildly.
		if n > uint64(len(d.buf)-d.pos) {
			d.fail("slice length %d exceeds remaining %d bytes", n, len(d.buf)-d.pos)
			return
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := 0; i < int(n) && d.err == nil; i++ {
			d.value(s.Index(i))
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField() && d.err == nil; i++ {
			d.value(v.Field(i))
		}
	default:
		d.fail("unsupported kind %v", v.Kind())
	}
}

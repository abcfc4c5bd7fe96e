package sweep

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The on-disk decoders a resume reads: cache entries (written by any
// process sharing the cache, the coordinator included) and shard files.
// Seed corpora live in testdata/fuzz/<target>/: a valid input, its
// truncations, and every input that once broke a property below. Each
// target must hold for any bytes:
//   - no input panics;
//   - a length field longer than the remaining input is an error, never
//     an allocation;
//   - a successfully decoded value re-encodes to exactly the input, so
//     the decoder accepts only what the encoder writes.

func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fingerprint, payload, err := parseEntry(data)
		if err != nil {
			return
		}
		v, err := DecodeResult(payload)
		if err != nil {
			return
		}
		enc, err := EncodeResult(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if re := append(entryHeader(fingerprint), enc...); !bytes.Equal(re, data) {
			t.Fatalf("entry re-encodes to different bytes:\n got %x\nwant %x", re, data)
		}
	})
}

func FuzzShardFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, results, err := parseShardFile(data)
		if err != nil {
			return
		}
		re, err := encodeShardFile(h, results)
		if err != nil {
			t.Fatalf("decoded shard file does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("shard file re-encodes to different bytes:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzWireMessages feeds arbitrary protocol lines to splitMsg and every
// field parser of the coordinator wire protocol (parseLease,
// parseResult, parseSpans, parseID and parseMillis), whatever the
// verb. Seed corpora live in testdata/fuzz/FuzzWireMessages: one valid
// line per verb, plus a WAIT whose millisecond count overflows a
// Duration. For any line:
//   - no input panics;
//   - parseMillis never returns a negative duration without an error;
//   - a parsed LEASE or RESULT, formatted again by formatLease or
//     formatResult and parsed, gives back the same message, and a
//     parsed duration formatted as milliseconds parses to itself;
//   - fields parseSpans accepts re-format by formatSpans to themselves,
//     so it accepts only the canonical count and hex.
func FuzzWireMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		_, fields := splitMsg(line)
		parseID(fields) // any text may fail to parse; only a panic is a bug
		if len(fields) > 0 {
			if d, err := parseMillis(fields[0]); err == nil {
				if d < 0 {
					t.Fatalf("parseMillis(%q) = %v without an error", fields[0], d)
				}
				again, err := parseMillis(strconv.FormatInt(d.Milliseconds(), 10))
				if err != nil || again != d {
					t.Fatalf("parseMillis(%q) = %v, but its millisecond count parses to %v, %v", fields[0], d, again, err)
				}
			}
		}
		if m, err := parseLease(fields); err == nil {
			v, fs := splitMsg(formatLease(m))
			again, err := parseLease(fs)
			if v != "LEASE" || err != nil || again != m {
				t.Fatalf("lease %+v formats to %q and parses back as %q %+v, %v", m, formatLease(m), v, again, err)
			}
		}
		if m, err := parseResult(fields); err == nil {
			line := formatResult(m.LeaseID, m.ExpID, m.Index, m.Payload)
			v, fs := splitMsg(line)
			again, err := parseResult(fs)
			if v != "RESULT" || err != nil || again.LeaseID != m.LeaseID || again.ExpID != m.ExpID ||
				again.Index != m.Index || !bytes.Equal(again.Payload, m.Payload) {
				t.Fatalf("result %+v formats to %q and parses back as %q %+v, %v", m, line, v, again, err)
			}
		}
		if n, batch, err := parseSpans(fields); err == nil {
			if line, want := formatSpans(n, batch), "SPANS "+strings.Join(fields, " "); line != want {
				t.Fatalf("spans fields %q re-format to %q", want, line)
			}
		}
	})
}

// proveLine, as a line of a FuzzHandshake script, is sent as AUTH with
// the correct proof for the last nonce the coordinator sent on CHAL:
// the one answer a script cannot spell itself.
const proveLine = "AUTH *"

// FuzzHandshake drives the coordinator's connection handler over a
// net.Pipe with a fuzzed worker script, against a keyless or a keyed
// coordinator of one four-trial job. The script is split into lines,
// and each line goes out only once the handler waits for input, so
// the transcript interleaves in protocol order. For any script:
//   - no input panics;
//   - no LEASE, WAIT or DONE goes out before a HELLO with the right
//     version and, when keyed, an AUTH with a valid proof;
//   - a rejection is one ERR line, the last line sent, followed by a
//     closed connection, and a handler that stops reading before the
//     script ends has sent it;
//   - no line the handler writes reaches wireMaxLine, so a worker can
//     read every reply, an ABORT that quotes a peer's message included;
//   - the handler leaves the connected-workers gauge where it found it;
//   - the run allocates at most 32 bytes per script byte and 512 per
//     line, plus 1 MiB of slack for the connection's buffers. Measured
//     with the transcript, a NEXT flood costs about 350 bytes a line,
//     and a 900 KB line that an ERR answers 4–6 bytes a byte: its read
//     and its copies in the transcript, since the ERR quotes at most
//     maxEcho bytes of the field. The count comes from ReadMemStats,
//     which flushes every P's allocation cache first. The heap metric
//     the decoder targets read credits a cache's allocations when it
//     refills a span, and with the handler and the drain on other Ps
//     it charged 1.07 MB to the 23-byte script kept as
//     testdata/fuzz/FuzzHandshake/span-refill.
//
// The seeds are a valid keyed and a valid keyless handshake, a wrong
// proof, a missing nonce, a keyed worker against a keyless
// coordinator, AUTH and NEXT before HELLO, a version mismatch, a
// repeated HELLO, SPANS lines in a session, the six longFieldLines
// after a keyless HELLO, and a
// REFUSE with 300 KB of 0xff bytes, whose ABORT once quoted all of it
// (1.2 MB) to the next NEXT; every input that once broke a property is
// kept in testdata/fuzz/FuzzHandshake.
func FuzzHandshake(f *testing.F) {
	hello := "HELLO " + protoVersion + " w1"
	keyedHello := hello + " 00112233445566778899aabbccddeeff"
	for _, seed := range []struct {
		keyed  bool
		script string
	}{
		{true, keyedHello + "\n" + proveLine + "\nNEXT\nNEXT\nPING 1"},
		{false, hello + "\nNEXT\nNEXT\nNEXT\nCOMPLETE 1"},
		{true, keyedHello + "\nAUTH " + strings.Repeat("0", 64) + "\nNEXT"},
		{true, hello + "\nNEXT"},
		{false, keyedHello + "\n" + proveLine + "\nNEXT"},
		{true, proveLine + "\n" + keyedHello + "\nNEXT"},
		{false, "NEXT\n" + hello},
		{false, "HELLO SFCOORD3 w1\nNEXT"},
		{false, hello + "\n" + hello + "\nNEXT"},
		{false, hello + "\nNEXT\nSPANS 3 0142\nSPANS 01 00\nCOMPLETE 1"},
	} {
		f.Add(seed.keyed, seed.script)
	}
	for _, line := range longFieldLines(900_000) {
		f.Add(false, hello+"\n"+line)
	}
	f.Add(false, hello+"\nREFUSE 1 "+strings.Repeat("\xff", 300_000)+"\nNEXT")
	f.Fuzz(func(t *testing.T, keyed bool, script string) {
		lines := strings.Split(script, "\n")
		for _, line := range lines {
			if len(line) >= wireMaxLine {
				return // a line this long is a transport error, not a handshake
			}
		}
		opts := CoordOptions{ChunkSize: 2, LeaseTTL: time.Minute}
		var key []byte
		if keyed {
			opts.AuthKey = "fuzz-key"
			key = []byte(opts.AuthKey)
		}
		trials := makeTrials(4)
		st, err := newCoordState([]CoordJob{{Job: testJob(trials), Trials: trials}}, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		gauge := mWorkersConnected.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		srv, cli := net.Pipe()
		conn := &scriptConn{Conn: srv, ready: make(chan struct{}, 1)}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			st.handle(conn)
		}()
		drained := make(chan struct{})
		go func() { io.Copy(io.Discard, cli); close(drained) }()

		sent := 0
		var panicked any
	feed:
		for {
			select {
			case <-conn.ready:
			case panicked = <-done:
				break feed
			}
			if sent == len(lines) {
				cli.Close() // the worker hangs up; the handler reads EOF
				panicked = <-done
				break
			}
			line := lines[sent]
			if line == proveLine {
				line = "AUTH " + authProof(key, authWorkerLabel, conn.lastNonce())
			}
			conn.send(cli, line)
			sent++
		}
		cli.Close()
		<-drained
		if panicked != nil {
			t.Fatalf("handler panicked: %v", panicked)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(script))+512*uint64(len(lines))+1<<20 {
			t.Fatalf("a %d-byte, %d-line script allocated %d bytes", len(script), len(lines), grew)
		}
		if got := mWorkersConnected.Value(); got != gauge {
			t.Fatalf("connected-workers gauge moved from %d to %d", gauge, got)
		}

		helloOK, authOK := false, !keyed
		var nonces []string
		errs, lastOut := 0, ""
		for _, e := range conn.log {
			verb, fields := splitMsg(e.line)
			if e.in {
				switch {
				case verb == "HELLO" && len(fields) > 0 && fields[0] == protoVersion:
					helloOK = true
				case verb == "AUTH" && len(fields) == 1 && keyed:
					for _, n := range nonces {
						authOK = authOK || verifyAuthProof(key, authWorkerLabel, n, fields[0])
					}
				}
				continue
			}
			if errs > 0 {
				t.Fatalf("%q went out after an ERR", e.line)
			}
			if len(e.line) >= wireMaxLine {
				t.Fatalf("a %d-byte %s line went out, past the %d bytes a worker reads", len(e.line), verb, wireMaxLine)
			}
			switch verb {
			case "LEASE", "WAIT", "DONE":
				if !helloOK || !authOK {
					t.Fatalf("%q went out before a valid handshake (keyed %v)", e.line, keyed)
				}
			case "CHAL":
				if len(fields) > 0 {
					nonces = append(nonces, fields[0])
				}
			case "ERR":
				errs++
			}
			lastOut = verb
		}
		if errs > 0 && !conn.closed {
			t.Fatal("the handler sent ERR and left the connection open")
		}
		if sent < len(lines) && lastOut != "ERR" {
			t.Fatalf("the handler stopped after %d of %d lines without an ERR", sent, len(lines))
		}
	})
}

// longFieldLines are six lines a worker may send after HELLO, each
// with one run of n 0xff bytes in the field an ERR answers: the verb, a
// PING lease id, a RESULT trial index, a SPANS record count and batch,
// and a COMPLETE lease id.
func longFieldLines(n int) []string {
	junk := strings.Repeat("\xff", n)
	return []string{
		junk,
		"PING " + junk,
		"RESULT 1 E1 " + junk + " 00",
		"SPANS " + junk + " 00",
		"SPANS 1 " + junk,
		"COMPLETE " + junk,
	}
}

// TestErrEchoBounded: an ERR quotes at most maxEcho bytes of the field
// at fault, so answering one 900 KB line costs the handler about what
// reading it does: at most 8 bytes of allocation per line byte, the
// peer's read of the reply included. An ERR that quoted the whole
// field twice cost 75–84.
func TestErrEchoBounded(t *testing.T) {
	const n = 900_000
	for _, line := range longFieldLines(n) {
		trials := makeTrials(4)
		st, err := newCoordState([]CoordJob{{Job: testJob(trials), Trials: trials}}, CoordOptions{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		in := []byte("HELLO " + protoVersion + " w1\n" + line + "\n")
		srv, cli := net.Pipe()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			st.handle(srv)
		}()
		replies := make(chan []byte, 1)
		go func() {
			out, _ := io.ReadAll(cli)
			replies <- out
		}()
		cli.Write(in) // fails only if the handler hangs up early
		<-handled
		cli.Close()
		out := <-replies
		runtime.ReadMemStats(&after)

		verb := line[:min(len(line), 8)]
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "ERR ") || len(last) > 8*maxEcho {
			t.Errorf("%q…: last reply is %d bytes, want a short ERR: %.120q", verb, len(last), last)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("%q…: %.1f bytes allocated per line byte", verb, float64(grew)/float64(len(line)))
		if grew > 8*uint64(len(line)) {
			t.Errorf("%q…: a %d-byte line allocated %d bytes (%.1f per byte), want at most 8 per byte",
				verb, len(line), grew, float64(grew)/float64(len(line)))
		}
	}
}

// scriptConn is the coordinator's end of a FuzzHandshake pipe. It logs
// every line in both directions in protocol order, and signals ready
// when the handler reads with every byte the worker sent consumed,
// that is, when it waits for the worker's next line.
type scriptConn struct {
	net.Conn
	ready   chan struct{}
	written atomic.Int64 // bytes the worker has started to send
	read    int64        // bytes the handler has read
	out     []byte       // the handler's unterminated output
	closed  bool

	mu  sync.Mutex
	log []scriptLine
}

type scriptLine struct {
	in   bool // sent by the worker
	line string
}

// send writes one worker line to peer, the worker's end of the pipe.
// The handler is waiting for input, so the line is logged before any
// answer to it.
func (c *scriptConn) send(peer net.Conn, line string) {
	c.mu.Lock()
	c.log = append(c.log, scriptLine{in: true, line: line})
	c.mu.Unlock()
	c.written.Add(int64(len(line)) + 1)
	peer.Write([]byte(line + "\n")) // fails only once the handler has closed
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.read == c.written.Load() {
		select {
		case c.ready <- struct{}{}:
		default:
		}
	}
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	for {
		i := bytes.IndexByte(c.out, '\n')
		if i < 0 {
			break
		}
		c.mu.Lock()
		c.log = append(c.log, scriptLine{line: string(c.out[:i])})
		c.mu.Unlock()
		c.out = c.out[i+1:]
	}
	return c.Conn.Write(p)
}

// SetReadDeadline and SetWriteDeadline do nothing: a script never
// stalls, and a pipe would start a timer for every line, whose queue
// growth the allocation bound counted (1.2 MB for the 64-byte script
// kept as testdata/fuzz/FuzzHandshake/timer-heap).
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

func (c *scriptConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// lastNonce returns the nonce of the last CHAL the handler sent, or ""
// before any.
func (c *scriptConn) lastNonce() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.log) - 1; i >= 0; i-- {
		if verb, fields := splitMsg(c.log[i].line); !c.log[i].in && verb == "CHAL" && len(fields) > 0 {
			return fields[0]
		}
	}
	return ""
}

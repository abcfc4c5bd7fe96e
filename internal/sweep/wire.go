package sweep

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"
)

// The coordinator wire protocol (DESIGN.md §6.4): a line-oriented
// exchange over one TCP connection per worker. Every message is a
// single '\n'-terminated line of space-separated fields; binary result
// payloads travel hex-encoded on the line, so the protocol stays
// printable end to end and a sweep can be debugged with netcat.
//
// Client (worker) lines:
//
//	HELLO SFCOORD4 <name> [<nonce-hex>]       open the session (nonce iff keyed)
//	AUTH <proof-hex>                          answer a CHAL challenge
//	NEXT                                      request a chunk lease
//	PING <leaseID>                            heartbeat while executing
//	RESULT <leaseID> <expID> <trialIdx> <hex> one trial's encoded result
//	COMPLETE <leaseID> [<trace-hex>]          all of the lease's results sent (+ the worker's span batch when traced)
//	FAIL <leaseID> <quoted-msg>               the chunk's execution failed (retriable: the chunk is re-leased once)
//	REFUSE <leaseID> <quoted-msg>             this worker cannot run the sweep at all (plan mismatch, codec failure — aborts immediately)
//
// Server (coordinator) lines:
//
//	OK [<heartbeat-millis>]           HELLO/AUTH/COMPLETE acknowledgement
//	CHAL <nonce-hex> <proof-hex>      auth challenge + coordinator's own proof
//	LEASE <id> <expID> <fp> <lo> <hi> [<trace-ctx>] a chunk: trials [lo,hi) of expID
//	WAIT <millis>                     nothing leasable now; poll again
//	DONE                              the sweep succeeded; disconnect
//	ABORT <quoted-msg>                the sweep failed; exit nonzero
//	GONE                              the lease was revoked (PING/COMPLETE)
//	ERR <quoted-msg>                  protocol failure; connection closes
//
// Exchange discipline: HELLO, AUTH, NEXT, PING, COMPLETE, FAIL and
// REFUSE are request/response (exactly one reply line each); RESULT
// lines are fire-and-forget so a worker streams a chunk's results
// without a round trip per trial — the COMPLETE that follows them is
// the synchronization point. Results are valid even when their lease
// was revoked: trials are pure and content-addressed, so the
// coordinator accepts the value and resolves the duplicate by
// comparing encoded bytes.
//
// Authentication (optional, shared-key HMAC, DESIGN.md §6.6): a keyed
// worker appends a random nonce to HELLO; a keyed coordinator answers
// CHAL carrying its own nonce plus HMAC(key, coordinator-label ‖
// worker-nonce) — proving it holds the key before the worker reveals
// anything — and the worker replies AUTH HMAC(key, worker-label ‖
// coordinator-nonce), acknowledged by the usual OK. Either side
// missing or failing its proof is rejected at the handshake with ERR,
// so mixed keyed/keyless fleets and wrong-key workers die loudly
// instead of running unauthenticated or hanging.
//
// SFCOORD1 → SFCOORD2: REFUSE was added and FAIL became retriable
// (re-lease once) instead of abort-the-sweep; mixed-version fleets
// must die at the handshake, not hang on an unknown verb or retry a
// systematic failure. SFCOORD2 → SFCOORD3: the CHAL/AUTH handshake
// extension and the HELLO nonce field (the handshake *sequence* is
// unchanged for keyless fleets, but deadline-hardened peers are not
// interoperable with SFCOORD2's unbounded blocking reads, so the
// version gate keeps mixed fleets out). SFCOORD3 → SFCOORD4: trace
// propagation — LEASE grew an optional trailing trace-context field
// (a hex span id; its presence is also the worker's signal that the
// sweep is traced, so workers need no tracing flag of their own) and
// COMPLETE grew an optional hex-encoded span batch
// (internal/obs/trace codec) carrying the worker's child spans back
// for the merged timeline. Old peers would reject the extra LEASE
// field, so the version gate bumps.
const protoVersion = "SFCOORD4"

// wireMaxLine bounds one protocol line. Encoded trial results are
// small (tens of bytes of struct fields, doubled by hex), so 1 MiB is
// generous headroom rather than a practical limit.
const wireMaxLine = 1 << 20

// wireConn frames a TCP connection into protocol lines. A nonzero
// timeout arms a fresh read/write deadline before every operation, so
// a hung peer (one-way partition, stalled TCP window) surfaces as a
// timeout error within one timeout period instead of blocking the
// handler goroutine forever — the bound that keeps a hung worker from
// outliving its lease TTL and a hung coordinator from pinning a
// worker.
type wireConn struct {
	conn    net.Conn
	r       *bufio.Scanner
	w       *bufio.Writer
	timeout time.Duration // per-operation deadline; 0 = block forever
}

func newWireConn(conn net.Conn, ioTimeout time.Duration) *wireConn {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), wireMaxLine)
	return &wireConn{conn: conn, r: sc, w: bufio.NewWriter(conn), timeout: ioTimeout}
}

// armWrite/armRead push the deadline forward before an operation; each
// message restarts the clock, so only a genuinely stalled peer trips
// it.
//
//sf:wallclock — connection deadlines are inherently wall-clock.
func (c *wireConn) armWrite() {
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
}

//sf:wallclock — connection deadlines are inherently wall-clock.
func (c *wireConn) armRead() {
	if c.timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
}

// send writes one line and flushes it.
func (c *wireConn) send(line string) error {
	c.armWrite()
	if _, err := c.w.WriteString(line); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

// buffer queues one line without flushing — used for RESULT streams,
// flushed by the COMPLETE that follows. The write deadline is armed
// anyway: a full bufio buffer flushes implicitly, and that hidden
// write must be bounded too.
func (c *wireConn) buffer(line string) error {
	c.armWrite()
	if _, err := c.w.WriteString(line); err != nil {
		return err
	}
	return c.w.WriteByte('\n')
}

// recv reads one line. An EOF or read error surfaces as-is; the
// caller decides whether a vanished peer is fatal.
func (c *wireConn) recv() (string, error) {
	c.armRead()
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("sweep: connection closed")
	}
	return c.r.Text(), nil
}

func (c *wireConn) close() error { return c.conn.Close() }

// leaseMsg is the parsed form of a LEASE line.
type leaseMsg struct {
	ID          uint64
	ExpID       string
	Fingerprint string
	Lo, Hi      int // trial slice range [Lo,Hi) into the job's plan
	// Trace is the optional hex trace-context id (SFCOORD4): non-empty
	// iff the coordinator is tracing the sweep, in which case the
	// worker records its own spans and ships them on COMPLETE.
	Trace string
}

func formatLease(m leaseMsg) string {
	s := fmt.Sprintf("LEASE %d %s %s %d %d", m.ID, m.ExpID, m.Fingerprint, m.Lo, m.Hi)
	if m.Trace != "" {
		s += " " + m.Trace
	}
	return s
}

// resultMsg is the parsed form of a RESULT line. The experiment ID
// travels on every line (not just the lease) so a result from an
// already-revoked lease can still be routed to its job.
type resultMsg struct {
	LeaseID uint64
	ExpID   string
	Index   int
	Payload []byte
}

func formatResult(leaseID uint64, expID string, index int, payload []byte) string {
	return fmt.Sprintf("RESULT %d %s %d %s", leaseID, expID, index, hex.EncodeToString(payload))
}

// splitMsg splits a protocol line into its verb and fields.
func splitMsg(line string) (verb string, fields []string) {
	parts := strings.Fields(line)
	if len(parts) == 0 {
		return "", nil
	}
	return parts[0], parts[1:]
}

func parseLease(fields []string) (leaseMsg, error) {
	if len(fields) != 5 && len(fields) != 6 {
		return leaseMsg{}, fmt.Errorf("sweep: LEASE wants 5 or 6 fields, got %d", len(fields))
	}
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return leaseMsg{}, fmt.Errorf("sweep: LEASE id: %v", err)
	}
	lo, err := strconv.Atoi(fields[3])
	if err != nil {
		return leaseMsg{}, fmt.Errorf("sweep: LEASE lo: %v", err)
	}
	hi, err := strconv.Atoi(fields[4])
	if err != nil {
		return leaseMsg{}, fmt.Errorf("sweep: LEASE hi: %v", err)
	}
	if lo < 0 || hi < lo {
		return leaseMsg{}, fmt.Errorf("sweep: LEASE range [%d,%d) invalid", lo, hi)
	}
	m := leaseMsg{ID: id, ExpID: fields[1], Fingerprint: fields[2], Lo: lo, Hi: hi}
	if len(fields) == 6 {
		m.Trace = fields[5]
	}
	return m, nil
}

func parseResult(fields []string) (resultMsg, error) {
	if len(fields) != 4 {
		return resultMsg{}, fmt.Errorf("sweep: RESULT wants 4 fields, got %d", len(fields))
	}
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return resultMsg{}, fmt.Errorf("sweep: RESULT lease id: %v", err)
	}
	idx, err := strconv.Atoi(fields[2])
	if err != nil {
		return resultMsg{}, fmt.Errorf("sweep: RESULT trial index: %v", err)
	}
	payload, err := hex.DecodeString(fields[3])
	if err != nil {
		return resultMsg{}, fmt.Errorf("sweep: RESULT payload: %v", err)
	}
	return resultMsg{LeaseID: id, ExpID: fields[1], Index: idx, Payload: payload}, nil
}

// parseMillis parses the numeric field of WAIT and the optional
// heartbeat field of OK. A count whose Duration would overflow is
// rejected: multiplied out, it would wrap to a negative or garbage
// interval.
func parseMillis(field string) (time.Duration, error) {
	ms, err := strconv.ParseInt(field, 10, 64)
	if err != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("sweep: bad millisecond count %q", field)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// quoteMsg folds an error message onto one protocol line; unquoteMsg
// inverts it.
func quoteMsg(msg string) string { return strconv.Quote(msg) }

func unquoteMsg(fields []string) string {
	joined := strings.Join(fields, " ")
	if s, err := strconv.Unquote(joined); err == nil {
		return s
	}
	return joined
}

// parseID parses the lease-id field shared by PING/COMPLETE/FAIL/REFUSE.
func parseID(fields []string) (uint64, error) {
	if len(fields) < 1 {
		return 0, fmt.Errorf("sweep: missing lease id")
	}
	return strconv.ParseUint(fields[0], 10, 64)
}

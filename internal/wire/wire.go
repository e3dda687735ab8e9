// Package wire defines the length-prefixed binary protocol between a remote
// client and the networked LBS daemon (internal/server). A frame is
//
//	uint32 payload length (big endian) | uint8 message type | uint32 query ID | payload
//
// and payloads reuse the pagefile codec (fixed-width big-endian integers,
// IEEE float bits, uint16-length-prefixed strings).
//
// Since version 3 every frame carries a query ID, so one TCP connection
// multiplexes any number of concurrent query sessions: the client allocates
// IDs, the server keys per-query state (context, trace, round counter) by
// them, and responses are routed back by ID rather than by stream position.
// ID 0 is reserved for connection-level traffic (Hello/Welcome, Ping/Pong,
// connection errors).
//
// The protocol mirrors the §3.1 query structure one-to-one, so the server
// observes exactly what the paper's adversary observes: a session handshake
// (Hello/Welcome, the Welcome carrying the public header, which is the same
// for every client and needs no PIR), then per query a NextRound marker per
// protocol round and batched Fetch requests that name a file and a page
// count, the query opening on its first frame. Page indices ride inside the Fetch payload
// standing in for the PIR-encrypted request; the server's trace recorder
// never looks at them, only at the file name and count — that is the
// complete adversarial view (Theorem 1). A Cancel frame lets
// the client abandon an in-flight query; because clients only volunteer
// cancellation at round boundaries, the server-recorded trace of a
// cancelled query is a prefix of the one full-query trace, which leaks
// nothing beyond the (client-timed, data-independent) abort point.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/lbs"
	"repro/internal/pagefile"
)

// ProtocolVersion is bumped on any incompatible frame or payload change.
// Version 2 added the worker-pool gauges to the per-database stats.
// Version 3 put a query ID in every frame header (multiplexed queries),
// added the Cancel message, and extended the per-database stats with the
// in-flight gauge and the cancelled / deadline-exceeded counters.
// Version 4 added capability flags to Welcome and the FetchShare message:
// a client-supplied XOR PIR selector share answered without ever
// reconstructing a page, the building block of two-server fleet mode.
// Version 5 added the Busy message: an overloaded daemon sheds a query at
// admission — before any query content is read — and replies with a
// retry-after hint instead of opening the session.
// Version 6 moved the public header into the Welcome, deleting the
// per-query HeaderReq/Header exchange, and dropped the Welcome's cost-model
// parameters.
// Version 7 deleted the statistics request and reply, and the session bound
// to no database that only they could use: a daemon's counters leave it
// through the admin endpoint only, and a Welcome always names a scheme and
// a database. The bare Ping/Pong round trip took their place, and the
// message numbers after QueryDone moved down.
// Version 8 answers a Fetch or FetchShare with ReplyFrames consecutive Pages
// frames, each of at most ReplyCut pages, instead of one: a client sends a
// plan quota as one request (one store pass) and the daemon cuts the reply.
// A refused request still gets exactly one Error in place of its frames. A
// version 7 client would read a quota's second reply frame as the answer to
// its next request.
// Version 9 makes a refused request's Error the query's last reply: the
// daemon ends the query there, as it ends a shed one at its Busy, records
// the trace seen so far, and answers none of the requests the client
// pipelined behind it. A version 8 client would wait for those replies
// forever.
// Version 10 deleted the BeginQuery message: a query opens on its first
// frame, and the daemon drops, unanswered, any frame of a query that is
// over. A version 9 client's BeginQuery would never open its query.
const ProtocolVersion = 10

// DefaultMaxFrame bounds a single frame's payload; it must accommodate the
// largest header file and the largest batched page fetch.
const DefaultMaxFrame = 64 << 20

// MsgType discriminates frames.
type MsgType uint8

// The protocol messages. C→S is client to server, S→C the reverse. All
// query messages are addressed by the query ID in the frame header; Hello,
// Welcome, Ping and Pong ride on ControlID.
const (
	MsgHello      MsgType = iota + 1 // C→S: version + database name
	MsgWelcome                       // S→C: scheme, file table, public header
	MsgError                         // S→C: request refused, the query's last reply; connection stays up
	MsgNextRound                     // C→S: next protocol round begins (no reply)
	MsgFetch                         // C→S: batched PIR page retrieval
	MsgPages                         // S→C: the retrieved pages
	MsgEndQuery                      // C→S: query finished
	MsgQueryDone                     // S→C: server-side observed trace
	MsgCancel                        // C→S: abandon this frame's query (no reply)
	MsgFetchShare                    // C→S: XOR PIR selector shares; answered by MsgPages
	MsgBusy                          // S→C: query shed at admission; retry after the hinted delay
	MsgPing                          // C→S: liveness check, empty payload
	MsgPong                          // S→C: the answer to a Ping, empty payload
)

// String names a message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgWelcome:
		return "Welcome"
	case MsgError:
		return "Error"
	case MsgNextRound:
		return "NextRound"
	case MsgFetch:
		return "Fetch"
	case MsgPages:
		return "Pages"
	case MsgEndQuery:
		return "EndQuery"
	case MsgQueryDone:
		return "QueryDone"
	case MsgCancel:
		return "Cancel"
	case MsgFetchShare:
		return "FetchShare"
	case MsgBusy:
		return "Busy"
	case MsgPing:
		return "Ping"
	case MsgPong:
		return "Pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// ControlID is the query ID of connection-level frames: the handshake, the
// liveness ping, and errors that concern the connection rather than one
// query.
const ControlID uint32 = 0

// frameHdrLen is the fixed frame header size: length + type + query ID.
const frameHdrLen = 9

// FrameOverhead is frameHdrLen exported: the fixed per-frame cost the
// serving layer adds to a payload when accounting wire bytes.
const FrameOverhead = frameHdrLen

// WriteFrame emits one frame addressed to the given query ID (ControlID for
// connection-level traffic). Hot serving loops should hold a FrameWriter
// instead: the header array here escapes through the io.Writer, costing one
// allocation per frame.
func WriteFrame(w io.Writer, t MsgType, queryID uint32, payload []byte) error {
	var hdr [frameHdrLen]byte
	return writeFrame(w, hdr[:], t, queryID, payload)
}

// FrameWriter writes frames through a persistent header buffer, so a
// steady-state response path emits frames without allocating.
type FrameWriter struct {
	w   io.Writer
	hdr [frameHdrLen]byte
	n   [4]byte // a length prefix inside a streamed payload
}

// NewFrameWriter wraps w (typically a *bufio.Writer; FrameWriter never
// flushes).
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame emits one frame. Not safe for concurrent use: the caller
// serializes writers (the daemon's per-connection write lock).
func (fw *FrameWriter) WriteFrame(t MsgType, queryID uint32, payload []byte) error {
	return writeFrame(fw.w, fw.hdr[:], t, queryID, payload)
}

// WritePages emits one MsgPages frame of a fetch's reply, written from the
// page buffers themselves: the header, the count, then each page behind its
// length prefix. The bytes are those of WriteFrame with
// Pages{Pages: pages}.Encode(), without the payload ever being assembled in
// memory — a quota's pages are held once, by whoever filled them. It
// returns the frame's size, header included; a batch the 16-bit count
// cannot carry is refused before anything is written.
func (fw *FrameWriter) WritePages(queryID uint32, pages [][]byte) (int, error) {
	size := uint64(2)
	for _, p := range pages {
		size += 4 + uint64(len(p))
	}
	if size > math.MaxUint32 || len(pages) > MaxFetchBatch {
		return 0, fmt.Errorf("wire: %d pages (%d bytes) do not fit a frame", len(pages), size)
	}
	binary.BigEndian.PutUint32(fw.hdr[:4], uint32(size))
	fw.hdr[4] = byte(MsgPages)
	binary.BigEndian.PutUint32(fw.hdr[5:9], queryID)
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint16(fw.n[:2], uint16(len(pages)))
	if _, err := fw.w.Write(fw.n[:2]); err != nil {
		return 0, err
	}
	for _, p := range pages {
		binary.LittleEndian.PutUint32(fw.n[:], uint32(len(p)))
		if _, err := fw.w.Write(fw.n[:]); err != nil {
			return 0, err
		}
		if _, err := fw.w.Write(p); err != nil {
			return 0, err
		}
	}
	return frameHdrLen + int(size), nil
}

func writeFrame(w io.Writer, hdr []byte, t MsgType, queryID uint32, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("wire: payload of %d bytes does not fit a frame", len(payload))
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint32(hdr[5:9], queryID)
	if _, err := w.Write(hdr[:frameHdrLen]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, rejecting payloads beyond maxFrame bytes. The
// length is compared in 64 bits so a hostile header cannot overflow int on
// 32-bit platforms. It allocates the header as well as the payload, which
// is the caller's to keep (nil when the frame has none); a loop reading one
// stream holds a FrameReader instead.
func ReadFrame(r io.Reader, maxFrame int) (MsgType, uint32, []byte, error) {
	return NewFrameReader(r).ReadFrameInto(maxFrame, func(n int) []byte { return make([]byte, n) })
}

// FrameReader reads one stream's frames, staging each header in a buffer
// it owns. Not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	hdr [frameHdrLen]byte
}

// NewFrameReader wraps r (typically a *bufio.Reader).
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrameInto is ReadFrame on fr's stream, reading the payload into the
// buffer get returns for its length n, which must have room for n bytes;
// get is not called for a frame with no payload, which is returned nil.
// The payload is that buffer cut to n bytes: it never aliases the header
// buffer, so it survives the next read, and a get that hands out recycled
// buffers reads frames without allocating.
func (fr *FrameReader) ReadFrameInto(maxFrame int, get func(n int) []byte) (MsgType, uint32, []byte, error) {
	t, qid, n, err := readHeader(fr.r, fr.hdr[:], maxFrame)
	if err != nil {
		return 0, 0, nil, err
	}
	if n == 0 {
		return t, qid, nil, nil
	}
	payload := get(int(n))[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return t, qid, payload, nil
}

// readHeader reads a frame header into hdr and returns its type, query ID
// and payload length, refusing a length beyond maxFrame.
func readHeader(r io.Reader, hdr []byte, maxFrame int) (MsgType, uint32, uint32, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if uint64(n) > uint64(maxFrame) {
		return 0, 0, 0, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	return MsgType(hdr[4]), binary.BigEndian.Uint32(hdr[5:9]), n, nil
}

// MaxFetchBatch is the most items a Fetch, FetchShare or Pages frame
// carries (a 16-bit count); a client refuses a larger quota unsent.
const MaxFetchBatch = 0xFFFF

// FramePages is how many items of itemBytes each — pages, or selector
// shares — one frame of maxFrame payload bytes carries: at most
// MaxFetchBatch, and at least 1. A Pages reply is a 2-byte count and, per
// page, a 4-byte length and the page; a Fetch or FetchShare request a
// 2-byte name length, the name, a 2-byte count and, per item, at most 4
// bytes and itemBytes (0 for a Fetch's page indices). It is a function of
// the public file table, so ReplyCut, which cuts replies by it, keeps a
// query's frame shape a function of the plan. A request is never cut: it
// carries its whole quota or is refused.
func FramePages(file string, itemBytes, maxFrame int) int {
	return max(1, min(MaxFetchBatch, (maxFrame-4-len(file))/(4+itemBytes)))
}

// smallReply is the payload size a Pages frame is held to: the largest of
// the Go allocator's small-object size classes. The client reads each reply
// frame into a buffer of exactly its size, taken from its bounded reply
// list (pagefile.PageList) or allocated when none listed fits; past this
// size each such buffer is a large object, allocated from and swept back to
// the page heap one at a time, and a whole quota in one frame would take a
// quota-sized buffer per query in flight, which no bounded list keeps for
// long. Cut at 32 KiB (7 pages of 4 KB), the buffers stay small objects
// that a list holds several of, and a quota is still one request and one
// store pass.
const smallReply = 32 << 10

// ReplyCut is how many pages of file one Pages frame of a reply carries:
// FramePages at smallReply. The daemon writes a request's k answers as
// ReplyFrames consecutive frames of ReplyCut pages (the last one shorter),
// and the client counts on exactly that many; both call this one function.
func ReplyCut(file string, pageSize int) int {
	return FramePages(file, pageSize, smallReply)
}

// ReplyFrames is how many Pages frames answer a request for pages pages of
// file: ⌈pages / ReplyCut⌉.
func ReplyFrames(file string, pageSize, pages int) int {
	c := ReplyCut(file, pageSize)
	return (pages + c - 1) / c
}

// putCount writes a message's item count. A list longer than the 16-bit
// field holds is a caller bug — every caller cuts by FramePages — so it
// panics rather than write a count that has wrapped.
func putCount(e *pagefile.Enc, n int) {
	if n > MaxFetchBatch {
		panic(fmt.Sprintf("wire: %d items do not fit a 16-bit count", n))
	}
	e.U16(uint16(n))
}

func putString(e *pagefile.Enc, s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	e.U16(uint16(len(s)))
	e.Raw([]byte(s))
}

func getString(d *pagefile.Dec) string {
	n := int(d.U16())
	return string(d.Raw(n))
}

func putBytes(e *pagefile.Enc, b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

func getBytes(d *pagefile.Dec) []byte {
	n := int(d.U32())
	raw := d.Raw(n)
	if d.Err() != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, raw)
	return out
}

// Hello opens a session: protocol version and the database the client wants
// (empty selects the daemon's sole database).
type Hello struct {
	Version  uint16
	Database string
}

// Encode serializes the message payload.
func (m Hello) Encode() []byte {
	e := pagefile.NewEnc(4 + len(m.Database))
	e.U16(m.Version)
	putString(e, m.Database)
	return e.Bytes()
}

// DecodeHello reverses Hello.Encode.
func DecodeHello(b []byte) (Hello, error) {
	d := pagefile.NewDec(b)
	m := Hello{Version: d.U16(), Database: getString(d)}
	return m, decErr("Hello", d)
}

// Welcome capability flags. They describe the daemon, not the database: a
// fleet client uses them to decide whether replicas can answer selector
// shares, and whether plain page fetches would be rejected.
const (
	// WelcomeShareCapable: every hosted file sits on a store that answers
	// XOR PIR selector shares (FetchShare works).
	WelcomeShareCapable uint16 = 1 << 0
	// WelcomeReplicaRole: the daemon runs as a non-reconstructing fleet
	// replica and rejects plain Fetch frames.
	WelcomeReplicaRole uint16 = 1 << 1
)

// Welcome acknowledges a session: the scheme, the daemon's capability
// flags, the public file table and the bound database's public header —
// the §5.3 header every client downloads straight from the LBS, so a client
// holds it from the handshake on and no query asks for it. Every session is
// bound to one database, so a Welcome always names a scheme and a database.
type Welcome struct {
	Scheme   string
	Database string
	Flags    uint16
	Files    []lbs.FileInfo
	Header   []byte
}

// Encode serializes the message payload.
func (m Welcome) Encode() []byte {
	e := pagefile.NewEnc(128)
	putString(e, m.Scheme)
	putString(e, m.Database)
	e.U16(m.Flags)
	e.U16(uint16(len(m.Files)))
	for _, f := range m.Files {
		putString(e, f.Name)
		e.U32(uint32(f.NumPages))
		e.U32(uint32(f.PageSize))
	}
	putBytes(e, m.Header)
	return e.Bytes()
}

// DecodeWelcome reverses Welcome.Encode. A Welcome that names no scheme or
// no database is refused: the daemon binds every session before it welcomes
// it, so such a payload is not one it sends.
func DecodeWelcome(b []byte) (Welcome, error) {
	d := pagefile.NewDec(b)
	m := Welcome{Scheme: getString(d), Database: getString(d), Flags: d.U16()}
	n := int(d.U16())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Files = append(m.Files, lbs.FileInfo{
			Name:     getString(d),
			NumPages: int(d.U32()),
			PageSize: int(d.U32()),
		})
	}
	m.Header = getBytes(d)
	if err := decErr("Welcome", d); err != nil {
		return m, err
	}
	if m.Scheme == "" || m.Database == "" {
		return m, fmt.Errorf("wire: decoding Welcome: no scheme or no database named (scheme %q, database %q)", m.Scheme, m.Database)
	}
	return m, nil
}

// ErrorMsg reports a failed request. The session survives; the client
// surfaces the error to the caller.
type ErrorMsg struct {
	Text string
}

// Encode serializes the message payload.
func (m ErrorMsg) Encode() []byte {
	e := pagefile.NewEnc(2 + len(m.Text))
	putString(e, m.Text)
	return e.Bytes()
}

// DecodeErrorMsg reverses ErrorMsg.Encode.
func DecodeErrorMsg(b []byte) (ErrorMsg, error) {
	d := pagefile.NewDec(b)
	m := ErrorMsg{Text: getString(d)}
	return m, decErr("Error", d)
}

// Fetch is a batched PIR retrieval: up to 65535 pages of one file in a
// single round trip. The page indices model the PIR-encrypted request — the
// server's trace recorder sees only the file name and the count.
type Fetch struct {
	File  string
	Pages []uint32
}

// Encode serializes the message payload.
func (m Fetch) Encode() []byte {
	return m.EncodeTo(pagefile.NewEnc(4 + len(m.File) + 4*len(m.Pages)))
}

// EncodeTo serializes the message payload into e, which the caller has
// Reset: with a reused encoder, a steady-state stream of fetches encodes
// without allocating. The returned bytes alias e's buffer. More than
// MaxFetchBatch pages panics.
func (m Fetch) EncodeTo(e *pagefile.Enc) []byte {
	putString(e, m.File)
	putCount(e, len(m.Pages))
	for _, p := range m.Pages {
		e.U32(p)
	}
	return e.Bytes()
}

// DecodeInto reverses Fetch.Encode, reusing m's storage: the page list
// refills the existing slice, and the file name is re-made only when it
// differs from the previous decode (the raw-bytes comparison allocates
// nothing). A serving loop decoding fetch after fetch for the same file
// allocates nothing in steady state.
func (m *Fetch) DecodeInto(b []byte) error {
	d := pagefile.NewDec(b)
	raw := d.Raw(int(d.U16()))
	if string(raw) != m.File {
		m.File = string(raw)
	}
	n := int(d.U16())
	m.Pages = m.Pages[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Pages = append(m.Pages, d.U32())
	}
	return decErr("Fetch", d)
}

// ShareFetch is the two-server PIR retrieval: up to 65535 XOR selector
// bitvectors over one file, each answered by the XOR of the pages whose
// bits are set. Every selector a replica sees is (marginally) uniform — it
// is one share of a two-server split held by the client — so unlike Fetch
// there are no page indices to hide: the payload itself is the PIR request,
// and the trace recorder still sees only the file name and the count.
type ShareFetch struct {
	File string
	Sels [][]byte
}

// Encode serializes the message payload.
func (m ShareFetch) Encode() []byte {
	size := 4 + len(m.File)
	for _, s := range m.Sels {
		size += 4 + len(s)
	}
	return m.EncodeTo(pagefile.NewEnc(size))
}

// EncodeTo serializes the message payload into e, which the caller has
// Reset. The returned bytes alias e's buffer. More than MaxFetchBatch
// selectors panics.
func (m ShareFetch) EncodeTo(e *pagefile.Enc) []byte {
	putString(e, m.File)
	putCount(e, len(m.Sels))
	for _, s := range m.Sels {
		putBytes(e, s)
	}
	return e.Bytes()
}

// DecodeInto reverses ShareFetch.Encode, reusing m's storage. The selector
// slices alias b — the serving loop hands them straight to the scan kernel
// while the frame buffer is still pinned — so the caller must be done with
// them before reusing the frame buffer.
func (m *ShareFetch) DecodeInto(b []byte) error {
	d := pagefile.NewDec(b)
	raw := d.Raw(int(d.U16()))
	if string(raw) != m.File {
		m.File = string(raw)
	}
	n := int(d.U16())
	m.Sels = m.Sels[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		sel := d.Raw(int(d.U32()))
		if d.Err() == nil {
			m.Sels = append(m.Sels, sel)
		}
	}
	return decErr("FetchShare", d)
}

// Pages answers a Fetch with the page contents, in request order: one
// frame of a reply cut by ReplyCut.
type Pages struct {
	Pages [][]byte
}

// Encode serializes the message payload.
func (m Pages) Encode() []byte {
	size := 2
	for _, p := range m.Pages {
		size += 4 + len(p)
	}
	return m.EncodeTo(pagefile.NewEnc(size))
}

// EncodeTo serializes the message payload into e, which the caller has
// Reset: with a reused encoder, it allocates nothing in steady state. The
// daemon does not assemble its replies at all — FrameWriter.WritePages
// writes the same bytes from the page buffers. The returned bytes alias e's
// buffer and are valid until its next Reset. More than MaxFetchBatch pages
// panics.
func (m Pages) EncodeTo(e *pagefile.Enc) []byte {
	putCount(e, len(m.Pages))
	for _, p := range m.Pages {
		putBytes(e, p)
	}
	return e.Bytes()
}

// DecodePages reverses Pages.Encode. The pages alias b, and are valid as
// long as b is: a remote query reads each reply frame into a buffer it
// holds until the query is settled, so the pages it returns stay valid until
// its End or Cancel and copying them out would only double the bytes moved.
// A caller that keeps a page past that, or recycles b, copies it first.
func DecodePages(b []byte) (Pages, error) {
	d := pagefile.NewDec(b)
	var m Pages
	n := int(d.U16())
	if n > 0 {
		m.Pages = make([][]byte, 0, min(n, d.Remaining()/4))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := d.Raw(int(d.U32()))
		m.Pages = append(m.Pages, p[:len(p):len(p)])
	}
	return m, decErr("Pages", d)
}

// QueryDone closes a query session and returns the trace the server
// actually observed — the adversarial view the Theorem 1 tests compare
// across queries.
type QueryDone struct {
	Trace string
}

// Encode serializes the message payload.
func (m QueryDone) Encode() []byte {
	e := pagefile.NewEnc(4 + len(m.Trace))
	putBytes(e, []byte(m.Trace))
	return e.Bytes()
}

// DecodeQueryDone reverses QueryDone.Encode.
func DecodeQueryDone(b []byte) (QueryDone, error) {
	d := pagefile.NewDec(b)
	m := QueryDone{Trace: string(getBytes(d))}
	return m, decErr("QueryDone", d)
}

// Cancellation reasons carried by the Cancel message. They drive the
// server's accounting only — the abort itself is identical for all three.
const (
	// CancelAbandon discards a query that failed client-side; the partial
	// trace is not recorded and no counter moves (the query never ran to a
	// deliberate abort, it broke).
	CancelAbandon uint8 = 0
	// CancelContext is a client context cancelled mid-query; the partial
	// trace is recorded (it is what the adversary saw) and the database's
	// cancelled counter increments.
	CancelContext uint8 = 1
	// CancelDeadline is a client deadline expiring mid-query; the partial
	// trace is recorded and the deadline-exceeded counter increments.
	CancelDeadline uint8 = 2
)

// Cancel abandons the in-flight query its frame is addressed to. The server
// sends no reply: it cancels the query's context — aborting any PIR read
// still waiting for a worker-pool slot — accounts the abort per Reason, and
// discards the per-query state. Fire-and-forget, like NextRound; a Cancel
// never opens a query.
type Cancel struct {
	Reason uint8
}

// Encode serializes the message payload.
func (m Cancel) Encode() []byte {
	e := pagefile.NewEnc(1)
	e.U8(m.Reason)
	return e.Bytes()
}

// DecodeCancel reverses Cancel.Encode.
func DecodeCancel(b []byte) (Cancel, error) {
	d := pagefile.NewDec(b)
	m := Cancel{Reason: d.U8()}
	return m, decErr("Cancel", d)
}

// Busy answers the first frame of a query the daemon shed under overload:
// the query was never opened, no query content was read, and the client
// should retry the whole query — with fresh PIR randomness — after roughly
// the hinted delay.
// The hint depends only on load, never on anything query-specific, so
// shedding is as content-blind as serving.
type Busy struct {
	RetryAfterMillis uint32
}

// Encode serializes the message payload.
func (m Busy) Encode() []byte {
	e := pagefile.NewEnc(4)
	e.U32(m.RetryAfterMillis)
	return e.Bytes()
}

// DecodeBusy reverses Busy.Encode.
func DecodeBusy(b []byte) (Busy, error) {
	d := pagefile.NewDec(b)
	m := Busy{RetryAfterMillis: d.U32()}
	return m, decErr("Busy", d)
}

func decErr(msg string, d *pagefile.Dec) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: decoding %s: %w", msg, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: decoding %s: %d trailing bytes", msg, d.Remaining())
	}
	return nil
}

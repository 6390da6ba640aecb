package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"unsafe"
)

// Header is the fixed 12-octet DNS message header, with the flag word
// exploded into fields.
type Header struct {
	ID     uint16
	QR     bool // response
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	AD     bool // authentic data
	CD     bool // checking disabled
	Rcode  Rcode
}

func (h Header) flags() uint16 {
	var f uint16
	if h.QR {
		f |= flagQR
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		f |= flagAA
	}
	if h.TC {
		f |= flagTC
	}
	if h.RD {
		f |= flagRD
	}
	if h.RA {
		f |= flagRA
	}
	if h.AD {
		f |= flagAD
	}
	if h.CD {
		f |= flagCD
	}
	f |= uint16(h.Rcode & 0xF)
	return f
}

func (h *Header) setFlags(f uint16) {
	h.QR = f&flagQR != 0
	h.Opcode = Opcode(f >> 11 & 0xF)
	h.AA = f&flagAA != 0
	h.TC = f&flagTC != 0
	h.RD = f&flagRD != 0
	h.RA = f&flagRA != 0
	h.AD = f&flagAD != 0
	h.CD = f&flagCD != 0
	h.Rcode = Rcode(f & 0xF)
}

// Question is a DNS question-section entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String returns the question in dig-like presentation form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// RR is a resource record: an owner name, TTL, class, and typed payload.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record's RR type, derived from its payload.
func (r RR) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String returns the record in master-file presentation form.
func (r RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s",
		CanonicalName(r.Name), r.TTL, r.Class, r.Type(), r.Data.String())
}

// Message is a complete DNS message. The zero value is an empty query.
type Message struct {
	Header     Header
	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR

	// Edns carries the OPT pseudo-record when present. It lives outside
	// Additional so replay code can manipulate EDNS independently; Pack
	// appends it to the additional section and Unpack extracts it. After
	// an Unpack it points at storage inside m, valid until m's next Unpack.
	Edns *EDNS

	// edns and optData are what Unpack decodes an OPT record into, so a
	// reused Message allocates nothing per OPT: Edns points at edns, and
	// its option payloads are slices of optData.
	edns    EDNS
	optData []byte

	// names is the chunk Unpack copies decoded question and owner names
	// into, each handed out as a string over its bytes; namesOwner is the
	// Message that started it. Only that Message appends, and only past
	// every name already handed out: Reset never rewinds the chunk and a
	// full one is replaced, not reused, so no chunk byte is written twice
	// and a name a caller keeps never changes (it also keeps its whole
	// chunk reachable: clone the few names kept out of many decodes). A
	// by-value copy sees another owner and starts a chunk of its own.
	names      []byte
	namesOwner *Message
}

// maxNameChunk bounds a name chunk: a Message's first is sized from the
// message it decodes, each refill doubles the last up to this, so a
// reused Message allocates about once per hundred names.
const maxNameChunk = 4096

// Reset clears m for reuse, retaining section slice capacity. Names an
// earlier Unpack returned stay valid: their bytes are never reused.
func (m *Message) Reset() {
	m.Header = Header{}
	m.Question = m.Question[:0]
	m.Answer = m.Answer[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	m.Edns = nil
}

// Errors returned by message packing and unpacking.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrMessageTooLarge  = errors.New("dnswire: message exceeds 65535 octets")
	errSectionCount     = errors.New("dnswire: section count overflows message")
	errNilRData         = errors.New("dnswire: record with nil rdata")
	errRDataTooLong     = errors.New("dnswire: rdata exceeds 65535 octets")
)

// compressorPool recycles compression state across Pack calls so the
// hot encode path performs no bookkeeping allocations.
var compressorPool = sync.Pool{
	New: func() any { return &compressor{entries: make([]compEntry, 0, maxCompressorEntries)} },
}

// Pack appends the wire encoding of m to buf and returns the extended
// slice. Name compression is applied to owner names and to the
// compressible rdata names. Pass buf = nil to allocate; packing into a
// presized buffer performs no intermediate allocations.
//
//ldlint:noalloc
func (m *Message) Pack(buf []byte) ([]byte, error) {
	msgStart := len(buf)
	cmp := compressorPool.Get().(*compressor)
	defer func() {
		cmp.reset()
		compressorPool.Put(cmp)
	}()

	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.Header.flags())
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Question)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answer)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	arcount := len(m.Additional)
	if m.Edns != nil {
		arcount++
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(arcount))

	var err error
	for _, q := range m.Question {
		if buf, err = appendName(buf, q.Name, cmp, msgStart); err != nil {
			return buf, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [...][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = appendRR(buf, rr, cmp, msgStart); err != nil {
				return buf, err
			}
		}
	}
	if m.Edns != nil {
		if buf, err = m.Edns.appendTo(buf); err != nil {
			return buf, err
		}
	}
	if len(buf)-msgStart > MaxMessageSize {
		return buf, ErrMessageTooLarge
	}
	return buf, nil
}

//ldlint:noalloc
func appendRR(buf []byte, rr RR, cmp compressionMap, msgStart int) ([]byte, error) {
	if rr.Data == nil {
		return buf, errNilRData
	}
	var err error
	if buf, err = appendName(buf, rr.Name, cmp, msgStart); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	// Reserve rdlength, fill after encoding rdata.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if buf, err = rr.Data.appendTo(buf, cmp, msgStart); err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return buf, errRDataTooLong
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Unpack parses msg into m, replacing its contents. Sections are appended
// into m's existing slices where capacity allows, an OPT record is
// decoded into storage m owns, and question and owner names are copied
// into m's write-once name chunk, so unpacking a query into a reused
// Message allocates nothing at steady state: a fresh chunk now and then,
// and only record data (rdata names included) allocates per record. The
// caller may keep every name; later Unpacks never overwrite one.
//
//ldlint:noalloc
func (m *Message) Unpack(msg []byte) error {
	m.Reset()
	if len(msg) < 12 {
		return ErrTruncatedMessage
	}
	if len(msg) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	m.Header.ID = binary.BigEndian.Uint16(msg)
	m.Header.setFlags(binary.BigEndian.Uint16(msg[2:]))
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	// Each question needs ≥5 octets and each RR ≥11; reject counts that
	// cannot fit so forged headers cannot force large allocations.
	if 5*qd+11*(an+ns+ar) > len(msg)-12 {
		return errSectionCount
	}

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		var name string
		if name, off, err = m.unpackName(msg, off); err != nil {
			return err
		}
		if off+4 > len(msg) {
			return ErrTruncatedMessage
		}
		q.Name = name
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Question = append(m.Question, q)
	}
	for s, count := range [...]int{an, ns, ar} {
		for i := 0; i < count; i++ {
			var rr RR
			if rr, off, err = m.unpackRR(msg, off); err != nil {
				return err
			}
			if rr.Data == nil {
				continue // an OPT record, now in m.Edns
			}
			switch s {
			case 0:
				m.Answer = append(m.Answer, rr)
			case 1:
				m.Authority = append(m.Authority, rr)
			default:
				m.Additional = append(m.Additional, rr)
			}
		}
	}
	return nil
}

// unpackRR decodes one resource record at msg[off:]. An OPT record is
// decoded into m.Edns and returned as the zero RR.
//
//ldlint:noalloc
func (m *Message) unpackRR(msg []byte, off int) (RR, int, error) {
	name, off, err := m.unpackName(msg, off)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(msg) {
		return RR{}, 0, ErrTruncatedMessage
	}
	typ := Type(binary.BigEndian.Uint16(msg[off:]))
	class := Class(binary.BigEndian.Uint16(msg[off+2:]))
	ttl := binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return RR{}, 0, ErrTruncatedMessage
	}
	if typ == TypeOPT {
		return RR{}, off + rdlen, m.unpackEDNS(name, class, ttl, msg[off:off+rdlen])
	}
	//ldlint:ignore noallocprop record payloads are the caller's to keep; a query carries none besides its OPT, so the server's decode never gets here
	data, err := unpackRData(typ, msg, off, rdlen)
	if err != nil {
		return RR{}, 0, err
	}
	return RR{Name: name, Class: class, TTL: ttl, Data: data}, off + rdlen, nil
}

// unpackName decodes the name at msg[off:] into m's name chunk; see
// the free unpackName for the result.
//
//ldlint:noalloc
func (m *Message) unpackName(msg []byte, off int) (string, int, error) {
	var buf [maxNameWire]byte
	n, next, err := decodeName(msg, off, &buf)
	switch {
	case err != nil:
		return "", 0, err
	case n == 0:
		return ".", next, nil
	}
	if m.namesOwner != m || cap(m.names)-len(m.names) < n {
		//ldlint:ignore noallocprop amortized: a fresh chunk per ~4 KiB of decoded names once a reused Message has warmed up
		m.newNameChunk(n, len(msg))
	}
	start := len(m.names)
	m.names = append(m.names, buf[:n]...) // within capacity: never moves
	return unsafe.String(&m.names[start], n), next, nil
}

// newNameChunk gives m a fresh name chunk with room for at least need
// bytes, leaving the old one to the names already handed out of it.
func (m *Message) newNameChunk(need, msgLen int) {
	size := msgLen
	if m.namesOwner == m {
		size = 2 * cap(m.names)
	}
	m.names = make([]byte, 0, max(min(size, maxNameChunk), need))
	m.namesOwner = m
}

// PackedLen returns the wire size of m, or an error if it cannot encode.
func (m *Message) PackedLen() (int, error) {
	buf, err := m.Pack(nil)
	if err != nil {
		return 0, err
	}
	return len(buf), nil
}

// String returns a dig-like multi-line rendering, useful in logs and the
// plain-text trace format's long form.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id %d opcode %s rcode %s flags", m.Header.ID, m.Header.Opcode, m.Header.Rcode)
	for _, f := range []struct {
		on   bool
		name string
	}{{m.Header.QR, "qr"}, {m.Header.AA, "aa"}, {m.Header.TC, "tc"}, {m.Header.RD, "rd"}, {m.Header.RA, "ra"}, {m.Header.AD, "ad"}, {m.Header.CD, "cd"}} {
		if f.on {
			sb.WriteByte(' ')
			sb.WriteString(f.name)
		}
	}
	sb.WriteByte('\n')
	for _, q := range m.Question {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for name, sec := range map[string][]RR{"ANSWER": m.Answer, "AUTHORITY": m.Authority, "ADDITIONAL": m.Additional} {
		for _, rr := range sec {
			fmt.Fprintf(&sb, "%s %s\n", name, rr)
		}
	}
	if m.Edns != nil {
		fmt.Fprintf(&sb, ";; EDNS version 0, udp %d, do %v\n", m.Edns.UDPSize, m.Edns.DO)
	}
	return sb.String()
}

// NewQuery builds a standard recursive-desired query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:   Header{ID: id, RD: true},
		Question: []Question{{Name: CanonicalName(name), Type: t, Class: ClassINET}},
	}
}

// ResponseTo initializes m as a response skeleton mirroring query q: same
// ID, question, opcode, and RD flag, with QR set.
func ResponseTo(q *Message) *Message {
	resp := &Message{}
	resp.SetResponseTo(q)
	return resp
}

// SetResponseTo resets m and initializes it as a response skeleton
// mirroring query q, reusing m's section capacity. It is the
// allocation-free variant of ResponseTo for pooled messages.
func (m *Message) SetResponseTo(q *Message) {
	m.Reset()
	m.Header = Header{
		ID:     q.Header.ID,
		QR:     true,
		Opcode: q.Header.Opcode,
		RD:     q.Header.RD,
	}
	m.Question = append(m.Question, q.Question...)
}

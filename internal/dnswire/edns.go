package dnswire

import (
	"encoding/binary"
	"errors"
)

// EDNS models the OPT pseudo-record (RFC 6891). The paper's DNSSEC
// experiments (§5.1) hinge on the DO bit and advertised UDP size, so both
// are first-class fields.
type EDNS struct {
	UDPSize       uint16
	ExtendedRcode uint8
	Version       uint8
	DO            bool
	Options       []EDNSOption
}

// EDNSOption is a raw EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// DefaultEDNSSize is the UDP payload size advertised by the replay engine
// when a mutation enables EDNS without specifying a size; 4096 matches the
// configuration common at root servers during the paper's trace epochs.
const DefaultEDNSSize = 4096

// errEDNSOptTooLong is hoisted out of the noalloc appendTo.
var errEDNSOptTooLong = errors.New("dnswire: EDNS options exceed 65535 octets")

// appendTo appends the OPT pseudo-record encoding.
//
//ldlint:noalloc
func (e *EDNS) appendTo(buf []byte) ([]byte, error) {
	buf = append(buf, 0) // root owner name
	buf = binary.BigEndian.AppendUint16(buf, uint16(TypeOPT))
	buf = binary.BigEndian.AppendUint16(buf, e.UDPSize)
	var ttl uint32
	ttl |= uint32(e.ExtendedRcode) << 24
	ttl |= uint32(e.Version) << 16
	if e.DO {
		ttl |= 1 << 15
	}
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	for _, opt := range e.Options {
		buf = binary.BigEndian.AppendUint16(buf, opt.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(opt.Data)))
		buf = append(buf, opt.Data...)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return buf, errEDNSOptTooLong
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Errors hoisted out of the noalloc unpackEDNS.
var (
	errOPTOwner       = errors.New("dnswire: OPT record with non-root owner")
	errEDNSOptHeader  = errors.New("dnswire: truncated EDNS option")
	errEDNSOptPayload = errors.New("dnswire: truncated EDNS option data")
)

// unpackEDNS reconstructs the OPT record from its reinterpreted class and
// TTL fields plus its rdata into m.edns and points m.Edns at it. Option
// payloads are copied out of the message once, into m.optData.
//
//ldlint:noalloc
func (m *Message) unpackEDNS(name string, class Class, ttl uint32, rdata []byte) error {
	if name != "." {
		return errOPTOwner
	}
	opts := m.edns.Options[:0]
	m.edns = EDNS{
		UDPSize:       uint16(class),
		ExtendedRcode: uint8(ttl >> 24),
		Version:       uint8(ttl >> 16),
		DO:            ttl&(1<<15) != 0,
	}
	data := m.optData[:0]
	data = append(data, rdata...)
	m.optData = data
	for len(data) > 0 {
		if len(data) < 4 {
			return errEDNSOptHeader
		}
		code := binary.BigEndian.Uint16(data)
		n := int(binary.BigEndian.Uint16(data[2:]))
		if len(data) < 4+n {
			return errEDNSOptPayload
		}
		opts = append(opts, EDNSOption{Code: code, Data: data[4 : 4+n : 4+n]})
		data = data[4+n:]
	}
	if len(opts) > 0 {
		m.edns.Options = opts
	}
	m.Edns = &m.edns
	return nil
}

// Clone returns a deep copy of e, or nil when e is nil.
func (e *EDNS) Clone() *EDNS {
	if e == nil {
		return nil
	}
	c := *e
	c.Options = make([]EDNSOption, len(e.Options))
	for i, opt := range e.Options {
		c.Options[i] = EDNSOption{Code: opt.Code, Data: append([]byte(nil), opt.Data...)}
	}
	return &c
}

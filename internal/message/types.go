package message

import (
	"sync"

	"repro/internal/crypto"
)

// View is a view number; the primary of view v is replica v mod n.
type View uint64

// Seq is a protocol sequence number assigned by a primary to a batch.
type Seq uint64

// NodeID identifies a principal. Replicas are numbered 0..n-1; clients are
// numbered from ClientIDBase upward so the two spaces never collide.
type NodeID int32

// ClientIDBase is the first client NodeID.
const ClientIDBase NodeID = 1000

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// IsClient reports whether id falls in the client space.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

// Type tags every wire message.
type Type uint8

// Wire message type tags.
const (
	TRequest Type = iota + 1
	TReply
	TPrePrepare
	TPrepare
	TCommit
	TCheckpoint
	TViewChange
	TViewChangeAck
	TNewView
	TStatusActive
	TStatusPending
	TFetch
	TMetaData
	TData
	TNewKey
	TQueryStable
	TReplyStable
	TBatchFetch
	TBatchBody
	numTypes
)

var typeNames = [...]string{
	TRequest:       "request",
	TReply:         "reply",
	TPrePrepare:    "pre-prepare",
	TPrepare:       "prepare",
	TCommit:        "commit",
	TCheckpoint:    "checkpoint",
	TViewChange:    "view-change",
	TViewChangeAck: "view-change-ack",
	TNewView:       "new-view",
	TStatusActive:  "status-active",
	TStatusPending: "status-pending",
	TFetch:         "fetch",
	TMetaData:      "meta-data",
	TData:          "data",
	TNewKey:        "new-key",
	TQueryStable:   "query-stable",
	TReplyStable:   "reply-stable",
	TBatchFetch:    "batch-fetch",
	TBatchBody:     "batch-body",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "unknown"
}

// AuthKind says how a message's trailer authenticates it.
type AuthKind uint8

// Authentication trailer kinds.
const (
	AuthNone AuthKind = iota
	AuthVector
	AuthMAC
	AuthSig
)

// Auth is the authentication trailer shared by all messages. Exactly one of
// Vector, MAC or Sig is meaningful, selected by Kind. BFT-PK signs
// everything; BFT uses authenticators for multicast messages and single MACs
// for point-to-point ones; new-key and recovery requests are always signed.
//
// A trailer decoded by Unmarshal also remembers what it arrived with: the
// received datagram, whose body prefix it authenticates, and (inline, for
// small groups) the MAC vector. Both travel with by-value copies of the
// message and both are dropped by assigning a fresh Auth, which is how
// every sealing path replaces a trailer — so a trailer is replaced whole,
// never edited in place, and a decoded message whose fields are changed
// must be re-sealed before Payload or Marshal is asked of it again.
type Auth struct {
	Kind   AuthKind
	Vector crypto.Authenticator
	MAC    crypto.MAC
	Sig    []byte

	// wire is the datagram this message was decoded from, body and trailer;
	// nil for a message built locally. It aliases the datagram, which
	// receivers share (simnet hands one payload to every destination), so
	// it is only ever read. Its first bodyLen bytes are the body.
	wire    []byte
	bodyLen int
	// macs backs Vector.MACs of a decoded trailer of up to SmallGroup
	// entries; a by-value copy's Vector.MACs keeps pointing here.
	macs [crypto.SmallGroup]crypto.MAC
}

func (a *Auth) marshal(w *writer) {
	w.u8(uint8(a.Kind))
	switch a.Kind {
	case AuthVector:
		w.u32(a.Vector.Epoch)
		w.u32(uint32(len(a.Vector.MACs)))
		for _, m := range a.Vector.MACs {
			w.mac(m)
		}
	case AuthMAC:
		w.mac(a.MAC)
	case AuthSig:
		w.bytes(a.Sig)
	}
}

func (a *Auth) unmarshal(r *reader) {
	a.Kind = AuthKind(r.u8())
	switch a.Kind {
	case AuthNone:
	case AuthVector:
		a.Vector.Epoch = r.u32()
		n := r.sliceLen(crypto.MACSize)
		if n <= len(a.macs) {
			a.Vector.MACs = a.macs[:n:n]
		} else {
			a.Vector.MACs = make([]crypto.MAC, n)
		}
		for i := 0; i < n; i++ {
			a.Vector.MACs[i] = r.mac()
		}
	case AuthMAC:
		a.MAC = r.mac()
	case AuthSig:
		a.Sig = r.bytes()
	default:
		r.fail()
	}
}

// Message is implemented by every wire message.
type Message interface {
	// MsgType returns the wire tag.
	MsgType() Type
	// Sender returns the principal that (claims to have) sent the message.
	Sender() NodeID
	// Marshal encodes body followed by the authentication trailer.
	Marshal() []byte
	// Payload returns the body alone: the bytes that MACs/signatures cover.
	// For a message decoded by Unmarshal these are the received bytes
	// themselves (read-only, no copy); otherwise a fresh encoding.
	Payload() []byte
	// AuthTrailer gives access to the trailer for signing/verifying.
	AuthTrailer() *Auth
}

// body returns the received body of a decoded message, nil for one built
// locally. Its capacity is clipped so that appending to a Payload() result
// cannot reach the trailer behind it.
func (a *Auth) body() []byte {
	if a.wire == nil {
		return nil
	}
	return a.wire[:a.bodyLen:a.bodyLen]
}

// Wire returns the datagram m was decoded from, body and trailer, or nil
// for a message built locally. It is the received bytes themselves, not a
// copy: callers only read it. A holder that keeps only a decoded message's
// fields can keep this too, and decode the message again later.
func Wire(m Message) []byte { return m.AuthTrailer().wire }

// Unmarshal decodes any wire message by its leading tag. It allocates the
// message object; see the package comment for what else a decode
// allocates.
func Unmarshal(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	var m interface {
		Message
		bodyCodec
	}
	switch Type(b[0]) {
	case TRequest:
		m = new(Request)
	case TReply:
		m = new(Reply)
	case TPrePrepare:
		m = new(PrePrepare)
	case TPrepare:
		m = new(Prepare)
	case TCommit:
		m = new(Commit)
	case TCheckpoint:
		m = new(Checkpoint)
	case TViewChange:
		m = new(ViewChange)
	case TViewChangeAck:
		m = new(ViewChangeAck)
	case TNewView:
		m = new(NewView)
	case TStatusActive:
		m = new(StatusActive)
	case TStatusPending:
		m = new(StatusPending)
	case TFetch:
		m = new(Fetch)
	case TMetaData:
		m = new(MetaData)
	case TData:
		m = new(Data)
	case TNewKey:
		m = new(NewKey)
	case TQueryStable:
		m = new(QueryStable)
	case TReplyStable:
		m = new(ReplyStable)
	case TBatchFetch:
		m = new(BatchFetch)
	case TBatchBody:
		m = new(BatchBody)
	default:
		return nil, ErrBadTag
	}
	if err := unmarshalInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// bodyCodec is the per-type body encoder/decoder implemented by each message.
type bodyCodec interface {
	MsgType() Type
	marshalBody(w *writer)
	unmarshalBody(r *reader)
	AuthTrailer() *Auth
}

// appendBody appends m's body to w: the received bytes if m was decoded
// (decoding is strict, so they equal a fresh encoding), else a fresh
// encoding of its fields.
func appendBody(w *writer, m bodyCodec) {
	if b := m.AuthTrailer().body(); b != nil {
		w.b = append(w.b, b...)
		return
	}
	m.marshalBody(w)
}

// appendMsg appends body||auth.
func appendMsg(w *writer, m bodyCodec) {
	appendBody(w, m)
	m.AuthTrailer().marshal(w)
}

// readerPool and writerPool recycle the codec cursors: they reach the
// per-type body methods through an interface and would otherwise escape to
// the heap on every datagram decoded or encoded.
var (
	readerPool = sync.Pool{New: func() any { return new(reader) }}
	writerPool = sync.Pool{New: func() any { return new(writer) }}
)

// encode runs f over a pooled writer positioned at the end of dst and
// returns the extended slice.
func encode(dst []byte, m bodyCodec, f func(*writer, bodyCodec)) []byte {
	w := writerPool.Get().(*writer)
	w.b = dst
	f(w, m)
	dst, w.b = w.b, nil
	writerPool.Put(w)
	return dst
}

func marshalMsg(m bodyCodec, sizeHint int) []byte {
	return encode(make([]byte, 0, sizeHint), m, appendMsg)
}

func payloadOf(m bodyCodec, sizeHint int) []byte {
	if b := m.AuthTrailer().body(); b != nil {
		return b
	}
	return encode(make([]byte, 0, sizeHint), m, appendBody)
}

// unmarshalInto decodes b into m, which must be freshly zeroed. The codec is
// strict — one encoding per value — so the bytes it accepted are exactly
// what marshalBody would produce from the decoded fields; the trailer keeps
// them for verification in place.
func unmarshalInto(m bodyCodec, b []byte) error {
	if len(b) == 0 || Type(b[0]) != m.MsgType() {
		return ErrBadTag
	}
	r := readerPool.Get().(*reader)
	*r = reader{b: b}
	m.unmarshalBody(r)
	bodyLen := r.off
	a := m.AuthTrailer()
	a.unmarshal(r)
	err := r.done()
	*r = reader{}
	readerPool.Put(r)
	if err != nil {
		return err
	}
	a.wire, a.bodyLen = b[:len(b):len(b)], bodyLen
	switch m := m.(type) {
	case *Request:
		m.memoizeDigest()
	case *PrePrepare:
		m.memoizeDigest()
	}
	return nil
}

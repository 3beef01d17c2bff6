package message

import (
	"encoding/binary"

	"repro/internal/crypto"
)

// ---------------------------------------------------------------------------
// Request / Reply
// ---------------------------------------------------------------------------

// Request flags.
const (
	// FlagReadOnly marks a request for the read-only optimization (§5.1.3).
	FlagReadOnly uint8 = 1 << iota
	// FlagRecovery marks a proactive-recovery request (§4.3.2); it must be
	// signed by the recovering replica's co-processor.
	FlagRecovery
)

// Request is ⟨REQUEST, o, t, c⟩: client c asks the service to execute
// operation o with timestamp t (§2.3.2). Replier is the designated replica
// for the digest-replies optimization (§5.1.1); NoNode means every replica
// returns the full result.
type Request struct {
	Client    NodeID
	Timestamp uint64
	Flags     uint8
	// Replier is routing advice, not semantics: the §5.1.1 designated
	// replier changes which replica sends the full result, never what
	// executes, so it is deliberately outside the request digest (it is
	// also client-rewritten on retransmission).
	Replier NodeID // bftlint:nodigest=routing-advice
	Op      []byte
	Auth    Auth
	// digest is Digest() as computed when the request was decoded; by-value
	// copies (a pre-prepare's Inline) carry it along.
	digest digestMemo // bftlint:nowire=recomputed-on-decode
}

// digestMemo is a digest remembered by the decoder. Only Unmarshal fills it
// — on the goroutine that decoded the message, before anyone else can see
// the object — so reading it needs no synchronization, and a message built
// locally (whose fields may still change) never carries one.
type digestMemo struct {
	ok bool
	d  crypto.Digest
}

// ReadOnly reports whether the read-only flag is set.
func (m *Request) ReadOnly() bool { return m.Flags&FlagReadOnly != 0 }

// Recovery reports whether this is a recovery request.
func (m *Request) Recovery() bool { return m.Flags&FlagRecovery != 0 }

// Digest identifies the request: H(client, timestamp, flags, op), matching
// the thesis's MD5(cid # rid # op). A decoded request answers from the
// value computed once at decode time.
func (m *Request) Digest() crypto.Digest {
	if m.digest.ok {
		return m.digest.d
	}
	return m.computeDigest()
}

func (m *Request) computeDigest() crypto.Digest {
	return crypto.DigestOfU64(
		[]uint64{uint64(uint32(m.Client)), m.Timestamp, uint64(m.Flags)}, m.Op)
}

// memoizeDigest runs at the end of decoding — on the transport's receive
// goroutine, so the event loop never hashes an operation. Requests
// flagged read-only are answered without ever being identified by digest
// (§5.1.3), so theirs is left to the rare demotion to compute.
func (m *Request) memoizeDigest() {
	if !m.ReadOnly() {
		m.digest = digestMemo{ok: true, d: m.computeDigest()}
	}
}

// MsgType implements Message.
func (m *Request) MsgType() Type { return TRequest }

// Sender implements Message.
func (m *Request) Sender() NodeID { return m.Client }

// AuthTrailer implements Message.
func (m *Request) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *Request) Marshal() []byte { return marshalMsg(m, 64+len(m.Op)) }

// Payload implements Message.
func (m *Request) Payload() []byte { return payloadOf(m, 64+len(m.Op)) }

func (m *Request) marshalBody(w *writer) {
	w.u8(uint8(TRequest))
	w.u32(uint32(m.Client))
	w.u64(m.Timestamp)
	w.u8(m.Flags)
	w.u32(uint32(m.Replier))
	w.bytes(m.Op)
}

func (m *Request) unmarshalBody(r *reader) {
	r.u8()
	m.Client = NodeID(r.u32())
	m.Timestamp = r.u64()
	m.Flags = r.u8()
	m.Replier = NodeID(r.u32())
	m.Op = r.bytes()
}

// Reply is ⟨REPLY, v, t, c, i, r⟩ (§2.3.2). With digest replies only the
// designated replier carries Result; the others send ResultDigest alone.
// Tentative replies (§5.1.2) require a quorum certificate at the client.
type Reply struct {
	View         View
	Timestamp    uint64
	Client       NodeID
	Replica      NodeID
	Tentative    bool
	HasResult    bool
	Result       []byte
	ResultDigest crypto.Digest
	Auth         Auth
}

// MsgType implements Message.
func (m *Reply) MsgType() Type { return TReply }

// Sender implements Message.
func (m *Reply) Sender() NodeID { return m.Replica }

// AuthTrailer implements Message.
func (m *Reply) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *Reply) Marshal() []byte { return marshalMsg(m, 96+len(m.Result)) }

// Payload implements Message.
func (m *Reply) Payload() []byte { return payloadOf(m, 96+len(m.Result)) }

func (m *Reply) marshalBody(w *writer) {
	w.u8(uint8(TReply))
	w.u64(uint64(m.View))
	w.u64(m.Timestamp)
	w.u32(uint32(m.Client))
	w.u32(uint32(m.Replica))
	w.bool(m.Tentative)
	w.bool(m.HasResult)
	w.bytes(m.Result)
	w.digest(m.ResultDigest)
}

func (m *Reply) unmarshalBody(r *reader) {
	r.u8()
	m.View = View(r.u64())
	m.Timestamp = r.u64()
	m.Client = NodeID(r.u32())
	m.Replica = NodeID(r.u32())
	m.Tentative = r.bool()
	m.HasResult = r.bool()
	m.Result = r.bytes()
	m.ResultDigest = r.digest()
}

// Decode decodes the reply in b into m, replacing everything m held; see
// Prepare.Decode. A client receives n replies per operation and decodes
// each into one target it owns.
func (m *Reply) Decode(b []byte) error {
	*m = Reply{}
	return unmarshalInto(m, b)
}

// ---------------------------------------------------------------------------
// Three-phase protocol
// ---------------------------------------------------------------------------

// PrePrepare is ⟨PRE-PREPARE, v, n, batch⟩ (§2.3.3). A batch carries small
// requests inline and only the digests of requests transmitted separately
// (§5.1.5); NonDet is the non-deterministic choice agreed for the batch
// (§5.4). BatchDigest covers the ordered request digests plus NonDet and is
// what prepare/commit messages refer to.
type PrePrepare struct {
	// View and Seq are deliberately outside BatchDigest: the §2.3.3
	// certificates bind the tuple (v, n, d) directly — every prepare and
	// commit restates v and n next to d — so varying them under an
	// unchanged digest yields a different certificate, not a forged one.
	View View // bftlint:nodigest=certificate-binds-tuple
	Seq  Seq  // bftlint:nodigest=certificate-binds-tuple
	// Inline requests ship inside the pre-prepare; Digests identify the
	// separately-transmitted ones (§5.1.5).
	Inline  []Request
	Digests []crypto.Digest
	NonDet  []byte
	// Replica is the sender identity, authenticated by the trailer and
	// checked against primary(v) on receipt; it is not batch content.
	Replica NodeID // bftlint:nodigest=authenticated-sender
	Auth    Auth
	// digest is BatchDigest() as computed when the pre-prepare was decoded.
	digest digestMemo // bftlint:nowire=recomputed-on-decode
}

// BatchDigest is the digest prepares and commits certify: it covers the
// ordered digests of every request in the batch — inline requests first,
// then the separately-transmitted ones — and NonDet.
//
// bftlint:digest
func (m *PrePrepare) BatchDigest() crypto.Digest {
	if m.digest.ok {
		return m.digest.d
	}
	return m.computeDigest()
}

func (m *PrePrepare) computeDigest() crypto.Digest {
	h := crypto.NewHasher()
	for i := range m.Inline {
		h.WriteDigest(m.Inline[i].Digest())
	}
	return finishBatchDigest(h, m.Digests, m.NonDet)
}

func (m *PrePrepare) memoizeDigest() {
	m.digest = digestMemo{ok: true, d: m.computeDigest()}
}

// BatchDigest computes the digest over ordered request digests and the
// non-deterministic value.
func BatchDigest(reqDigests []crypto.Digest, nonDet []byte) crypto.Digest {
	return finishBatchDigest(crypto.NewHasher(), reqDigests, nonDet)
}

func finishBatchDigest(h crypto.Hasher, reqDigests []crypto.Digest, nonDet []byte) crypto.Digest {
	for i := range reqDigests {
		h.Write(reqDigests[i][:])
	}
	h.Write(nonDet)
	return h.Sum()
}

// MsgType implements Message.
func (m *PrePrepare) MsgType() Type { return TPrePrepare }

// Sender implements Message.
func (m *PrePrepare) Sender() NodeID { return m.Replica }

// AuthTrailer implements Message.
func (m *PrePrepare) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *PrePrepare) Marshal() []byte { return marshalMsg(m, 256) }

// Payload implements Message.
func (m *PrePrepare) Payload() []byte { return payloadOf(m, 256) }

func (m *PrePrepare) marshalBody(w *writer) {
	w.u8(uint8(TPrePrepare))
	w.u64(uint64(m.View))
	w.u64(uint64(m.Seq))
	w.u32(uint32(len(m.Inline)))
	for i := range m.Inline {
		// Length-prefixed body||auth, encoded in place: reserve the prefix,
		// append, then patch the length in.
		at := len(w.b)
		w.u32(0)
		appendMsg(w, &m.Inline[i])
		binary.LittleEndian.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
	}
	w.u32(uint32(len(m.Digests)))
	for _, d := range m.Digests {
		w.digest(d)
	}
	w.bytes(m.NonDet)
	w.u32(uint32(m.Replica))
}

func (m *PrePrepare) unmarshalBody(r *reader) {
	r.u8()
	m.View = View(r.u64())
	m.Seq = Seq(r.u64())
	ni := r.sliceLen(8) // lower bound: each inline request takes >= 8 bytes
	m.Inline = make([]Request, 0, min(ni, 1024))
	for i := 0; i < ni && r.err == nil; i++ {
		// Decode from the datagram itself (no copy): the request's fields
		// and retained body are views of the pre-prepare's bytes.
		rb := r.bytes()
		m.Inline = append(m.Inline, Request{})
		if r.err != nil || unmarshalInto(&m.Inline[i], rb) != nil {
			r.fail()
			return
		}
	}
	nd := r.sliceLen(crypto.DigestSize)
	m.Digests = make([]crypto.Digest, nd)
	for i := 0; i < nd; i++ {
		m.Digests[i] = r.digest()
	}
	m.NonDet = r.bytes()
	m.Replica = NodeID(r.u32())
}

// Prepare is ⟨PREPARE, v, n, d, i⟩ (§2.3.3).
type Prepare struct {
	View    View
	Seq     Seq
	Digest  crypto.Digest
	Replica NodeID
	Auth    Auth
}

// MsgType implements Message.
func (m *Prepare) MsgType() Type { return TPrepare }

// Sender implements Message.
func (m *Prepare) Sender() NodeID { return m.Replica }

// AuthTrailer implements Message.
func (m *Prepare) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *Prepare) Marshal() []byte { return marshalMsg(m, 96) }

// Payload implements Message.
func (m *Prepare) Payload() []byte { return payloadOf(m, 96) }

func (m *Prepare) marshalBody(w *writer) {
	w.u8(uint8(TPrepare))
	w.u64(uint64(m.View))
	w.u64(uint64(m.Seq))
	w.digest(m.Digest)
	w.u32(uint32(m.Replica))
}

func (m *Prepare) unmarshalBody(r *reader) {
	r.u8()
	m.View = View(r.u64())
	m.Seq = Seq(r.u64())
	m.Digest = r.digest()
	m.Replica = NodeID(r.u32())
}

// Decode decodes the prepare in b into m, replacing everything m held, so
// that m ends up as Unmarshal(b) would return it. It allocates nothing for
// groups of up to crypto.SmallGroup replicas: a receiver can decode every
// prepare into one target it owns.
func (m *Prepare) Decode(b []byte) error {
	*m = Prepare{}
	return unmarshalInto(m, b)
}

// Commit is ⟨COMMIT, v, n, d, i⟩ (§2.3.3).
type Commit struct {
	View    View
	Seq     Seq
	Digest  crypto.Digest
	Replica NodeID
	Auth    Auth
}

// MsgType implements Message.
func (m *Commit) MsgType() Type { return TCommit }

// Sender implements Message.
func (m *Commit) Sender() NodeID { return m.Replica }

// AuthTrailer implements Message.
func (m *Commit) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *Commit) Marshal() []byte { return marshalMsg(m, 96) }

// Payload implements Message.
func (m *Commit) Payload() []byte { return payloadOf(m, 96) }

func (m *Commit) marshalBody(w *writer) {
	w.u8(uint8(TCommit))
	w.u64(uint64(m.View))
	w.u64(uint64(m.Seq))
	w.digest(m.Digest)
	w.u32(uint32(m.Replica))
}

func (m *Commit) unmarshalBody(r *reader) {
	r.u8()
	m.View = View(r.u64())
	m.Seq = Seq(r.u64())
	m.Digest = r.digest()
	m.Replica = NodeID(r.u32())
}

// Decode decodes the commit in b into m, replacing everything m held; see
// Prepare.Decode.
func (m *Commit) Decode(b []byte) error {
	*m = Commit{}
	return unmarshalInto(m, b)
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

// Checkpoint is ⟨CHECKPOINT, n, d, i⟩ (§2.3.4): replica i took a checkpoint
// covering execution up to sequence number n with state digest d.
type Checkpoint struct {
	Seq     Seq
	Digest  crypto.Digest
	Replica NodeID
	Auth    Auth
}

// MsgType implements Message.
func (m *Checkpoint) MsgType() Type { return TCheckpoint }

// Sender implements Message.
func (m *Checkpoint) Sender() NodeID { return m.Replica }

// AuthTrailer implements Message.
func (m *Checkpoint) AuthTrailer() *Auth { return &m.Auth }

// Marshal implements Message.
func (m *Checkpoint) Marshal() []byte { return marshalMsg(m, 96) }

// Payload implements Message.
func (m *Checkpoint) Payload() []byte { return payloadOf(m, 96) }

func (m *Checkpoint) marshalBody(w *writer) {
	w.u8(uint8(TCheckpoint))
	w.u64(uint64(m.Seq))
	w.digest(m.Digest)
	w.u32(uint32(m.Replica))
}

func (m *Checkpoint) unmarshalBody(r *reader) {
	r.u8()
	m.Seq = Seq(r.u64())
	m.Digest = r.digest()
	m.Replica = NodeID(r.u32())
}

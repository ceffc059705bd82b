package codec

import (
	"crypto/sha256"
	"encoding/hex"

	"distme/internal/matrix"
)

// Digest is a block's 32-byte cache key, and a key is bound to one content.
// DigestOf and Prepared.Hash give the content digest — SHA-256 over the wire
// tag and payload, so two blocks share it exactly when they encode to the
// same bytes. A sender may instead fill the slot with a fresh key it never
// issues again; for one to equal a digest would take a SHA-256 preimage.
// Either way, resolving a key can never substitute different data.
type Digest [sha256.Size]byte

// Short returns an abbreviated hex form for logs and error text.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }

// DigestOf computes the content digest of a block using a pooled encode
// buffer.
func DigestOf(b matrix.Block) (Digest, error) {
	head, tag, tail, err := AppendWireSG(GetBuffer(), b, EncodingFP64)
	defer PutBuffer(head)
	if err != nil {
		return Digest{}, err
	}
	return digestOf(tag, head, tail), nil
}

// digestOf hashes tag, head and tail in place: the value tail is never
// copied next to its structure to be hashed.
func digestOf(tag uint8, head, tail []byte) Digest {
	h := sha256.New()
	h.Write([]byte{tag})
	h.Write(head)
	h.Write(tail)
	var d Digest
	h.Sum(d[:0])
	return d
}

// Prepared is one block encoded for the wire exactly once: its tag, its
// structural bytes, the zero-copy view of its raw values and, when keyed,
// its cache key. A job prepares each distinct block once and every
// consumer — the key, the size accounting, each frame that replicates the
// block — reads the record instead of planning or encoding again. Tail
// aliases the block's storage, so the block must outlive the record's last
// use.
type Prepared struct {
	Tag  uint8
	Head []byte
	Tail []byte

	// Digest is the record's cache key, valid when HasDigest: the content
	// digest once Hash has run, or a fresh key its sender set.
	Digest    Digest
	HasDigest bool
}

// Prepare encodes b into a fresh record.
func Prepare(b matrix.Block) (*Prepared, error) {
	head, tag, tail, err := AppendWireSG(nil, b, EncodingFP64)
	if err != nil {
		return nil, err
	}
	return &Prepared{Tag: tag, Head: head, Tail: tail}, nil
}

// Size is the exact wire payload size: what EncodedBytes reports for the
// block, without sizing it again.
func (p *Prepared) Size() int64 { return int64(len(p.Head) + len(p.Tail)) }

// Hash computes the record's content digest — the value DigestOf returns
// for the block — and keeps it.
func (p *Prepared) Hash() {
	p.Digest, p.HasDigest = digestOf(p.Tag, p.Head, p.Tail), true
}

package codec

import (
	"crypto/sha256"
	"encoding/hex"

	"distme/internal/matrix"
)

// Digest identifies a block by content: SHA-256 over the wire tag and
// payload. Two blocks share a digest exactly when they encode to the same
// bytes, which is what the distnet block cache needs — resolving a digest
// can never substitute different data.
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
// structural bytes, the zero-copy view of its raw values and, when hashed,
// its content digest. A job prepares each distinct block once and every
// consumer — the digest, the size accounting, each frame that replicates the
// block — reads the record instead of planning or encoding again. Tail
// aliases the block's storage, so the block must outlive the record's last
// use.
type Prepared struct {
	Tag  uint8
	Head []byte
	Tail []byte

	// Digest is the content address, valid once Hash has run.
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

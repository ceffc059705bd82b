package distnet

import (
	"crypto/rand"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"distme/internal/codec"
)

// A pushed block ships under a cache key, the Digest slot of its prepared
// record, and each key is bound to exactly one content: a digest by SHA-256,
// a fresh key by being issued once — and for a fresh key to equal some
// block's digest would take a SHA-256 preimage. So the worker's cache can
// only ever resolve a key to the block it was sent with, whichever kind it is.
//
// Hashing pays only for a block whose content could already be on a worker:
// a repeat from an earlier job. (Replicas within a job share one record, so
// they share its key whatever it is.) A record is hashed only when its
// fingerprint was seen within the epoch window; otherwise it gets a fresh
// key. A block that repeats across jobs therefore ships under a fresh key on
// first sight, inline under its digest on the second, and as a reference
// from the third. A fingerprint collision costs one SHA-256 and
// can never return a wrong block. Two distinct blocks of equal content in
// one job (A×A decoded twice) repeat a fingerprint too: the second is
// hashed, and both ship inline.

// fingerprintEdge is how much of each end of a record's values the
// fingerprint reads: enough to tell new content apart. A fingerprint costs
// O(structure) plus 2 KiB of values — the whole head of a CSR or CSC record
// is hashed.
const fingerprintEdge = 1 << 10

// blockKeys is a driver's key issuer: the fingerprint filter and the fresh
// key source.
type blockKeys struct {
	seed   maphash.Seed
	prefix [24]byte // drawn once per driver; a fresh key is prefix ‖ counter
	next   atomic.Uint64

	mu   sync.Mutex
	seen epochSet[uint64] // fingerprints
}

func newBlockKeys() *blockKeys {
	k := &blockKeys{seed: maphash.MakeSeed()}
	rand.Read(k.prefix[:]) // never fails (crypto/rand, go1.24)
	return k
}

// assign gives p its cache key at the job epoch and reports whether that
// took a SHA-256.
func (k *blockKeys) assign(epoch uint64, p *codec.Prepared) bool {
	if k.seenBefore(epoch, k.fingerprint(p)) {
		p.Hash()
		return true
	}
	p.Digest, p.HasDigest = k.fresh(), true
	return false
}

// fingerprint hashes p's tag, head, value length and the first and last
// fingerprintEdge bytes of its values under the driver's seed.
func (k *blockKeys) fingerprint(p *codec.Prepared) uint64 {
	var h maphash.Hash
	h.SetSeed(k.seed)
	h.WriteByte(p.Tag)
	h.Write(p.Head)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p.Tail)))
	h.Write(n[:])
	edge := min(len(p.Tail), fingerprintEdge)
	h.Write(p.Tail[:edge])
	h.Write(p.Tail[len(p.Tail)-edge:])
	return h.Sum64()
}

// seenBefore reports whether fp was seen within the epoch window, and marks
// it seen at epoch.
func (k *blockKeys) seenBefore(epoch, fp uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.seen.touch(epoch, fp)
}

// fresh issues a key this driver never issues again; another driver's keys
// differ in their random 24-byte prefix.
func (k *blockKeys) fresh() codec.Digest {
	var dg codec.Digest
	copy(dg[:], k.prefix[:])
	binary.BigEndian.PutUint64(dg[len(k.prefix):], k.next.Add(1))
	return dg
}

package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Placement manifests are the pull data plane's control message: instead of
// shipping operand slices, the driver ships one Manifest per operand naming
// where every block of the requested box lives (owner address) and what its
// bytes are (content digest, when known). Workers resolve the manifest
// against their content-addressed cache, fetch what is missing from the
// listed owners, and fall back to the driver only when a peer cannot serve.
//
// The wire form is uvarint-framed and hardened like every other decoder in
// this package: counts are checked against the bytes present, a count
// preallocates at most countStep bytes ahead of the entries decoded, and
// every malformed payload surfaces as ErrBadFormat — never a panic.

// ManifestEntry places one block of an operand: grid key (block row and
// column in the operand's own block grid), the index of its owner in
// Manifest.Owners, and optionally its content digest for cache dedup.
type ManifestEntry struct {
	KeyI, KeyJ int
	// Owner indexes Manifest.Owners.
	Owner int
	// HasDigest marks Digest as meaningful; blocks below the cacheable
	// threshold travel digestless.
	HasDigest bool
	Digest    Digest
}

// Manifest places every block of one operand slice: the distributed handle
// the blocks live under, the owner address table, and one entry per block.
// Blocks absent from a live handle are structurally-absent sparse blocks
// and contribute zero.
type Manifest struct {
	// Handle is the distributed store id the entries resolve against.
	Handle uint64
	// Owners is the address table entries index into.
	Owners []string
	// Entries place each block, sorted I-then-J by the encoder.
	Entries []ManifestEntry
}

// AppendManifest appends the wire encoding of m to dst: handle uvarint,
// owner count + length-prefixed addresses, entry count, then per entry
// keyI/keyJ/owner uvarints, a digest-present flag byte, and the 32 digest
// bytes when present.
func AppendManifest(dst []byte, m *Manifest) []byte {
	dst = binary.AppendUvarint(dst, m.Handle)
	dst = binary.AppendUvarint(dst, uint64(len(m.Owners)))
	for _, o := range m.Owners {
		dst = binary.AppendUvarint(dst, uint64(len(o)))
		dst = append(dst, o...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		dst = binary.AppendUvarint(dst, uint64(e.KeyI))
		dst = binary.AppendUvarint(dst, uint64(e.KeyJ))
		dst = binary.AppendUvarint(dst, uint64(e.Owner))
		if e.HasDigest {
			dst = append(dst, 1)
			dst = append(dst, e.Digest[:]...)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeManifest parses one manifest from the front of data and returns it
// with the unconsumed remainder. Malformed input — truncation, counts
// promising more than the bytes present, owner indices outside the table,
// implausible grid keys — returns ErrBadFormat.
func DecodeManifest(data []byte) (Manifest, []byte, error) {
	src := &memSource{buf: data}
	m, err := decodeManifest(src)
	if err != nil {
		return m, nil, err
	}
	return m, src.buf, nil
}

// decodeManifest parses one manifest from the front of src, consuming
// exactly its bytes.
func decodeManifest(src blockSource) (Manifest, error) {
	var m Manifest
	uv := func(what string) (uint64, error) {
		v, err := sourceUvarint(src)
		if errors.Is(err, ErrBadFormat) {
			err = fmt.Errorf("%w: truncated manifest %s", ErrBadFormat, what)
		}
		return v, err
	}
	handle, err := uv("handle")
	if err != nil {
		return m, err
	}
	m.Handle = handle
	owners, err := uv("owner count")
	if err != nil {
		return m, err
	}
	// Every owner costs at least its one length byte, so the count is
	// bounded by the bytes the source holds — which, off a socket, are the
	// bytes its frame promises, not the ones received: the slices start at
	// stepCap and grow as entries decode.
	if owners > uint64(src.left()) {
		return m, fmt.Errorf("%w: manifest owner count %d exceeds payload", ErrBadFormat, owners)
	}
	m.Owners = make([]string, 0, stepCap[string](int(owners)))
	for i := uint64(0); i < owners; i++ {
		n, err := uv("owner length")
		if err != nil {
			return m, err
		}
		if n > uint64(src.left()) {
			return m, fmt.Errorf("%w: manifest owner length %d exceeds payload", ErrBadFormat, n)
		}
		addr, err := src.take(int(n))
		if err != nil {
			return m, err
		}
		m.Owners = append(m.Owners, string(addr))
	}
	entries, err := uv("entry count")
	if err != nil {
		return m, err
	}
	// An entry is at least three uvarint bytes plus its flag byte.
	if entries > uint64(src.left())/4 {
		return m, fmt.Errorf("%w: manifest entry count %d exceeds payload", ErrBadFormat, entries)
	}
	m.Entries = make([]ManifestEntry, 0, stepCap[ManifestEntry](int(entries)))
	for i := uint64(0); i < entries; i++ {
		var e ManifestEntry
		ki, err := uv("entry key")
		if err != nil {
			return m, err
		}
		kj, err := uv("entry key")
		if err != nil {
			return m, err
		}
		if ki > MaxBlockSide || kj > MaxBlockSide {
			return m, fmt.Errorf("%w: implausible manifest key (%d,%d)", ErrBadFormat, ki, kj)
		}
		owner, err := uv("entry owner")
		if err != nil {
			return m, err
		}
		if owner >= uint64(len(m.Owners)) {
			return m, fmt.Errorf("%w: manifest owner index %d outside table of %d", ErrBadFormat, owner, len(m.Owners))
		}
		flag, err := src.take(1)
		if err != nil {
			return m, fmt.Errorf("%w: truncated manifest digest flag", ErrBadFormat)
		}
		switch flag[0] {
		case 0:
		case 1:
			dg, err := src.take(len(e.Digest))
			if err != nil {
				return m, fmt.Errorf("%w: truncated manifest digest", ErrBadFormat)
			}
			e.HasDigest = true
			copy(e.Digest[:], dg)
		default:
			return m, fmt.Errorf("%w: unknown manifest digest flag %d", ErrBadFormat, flag[0])
		}
		e.KeyI, e.KeyJ, e.Owner = int(ki), int(kj), int(owner)
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}

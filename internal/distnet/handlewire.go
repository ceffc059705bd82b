package distnet

import (
	"encoding/binary"
	"fmt"
	"math"

	"distme/internal/codec"
)

// Wire layouts for the distributed block store's messages. Handle traffic
// never uses digest references: resident bands are the determinism anchor,
// so every block ships inline.

func appendPlainBlocks(w *codec.FrameWriter, recs []blockRec) error {
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		w.Uvarint(uint64(rec.Key.I))
		w.Uvarint(uint64(rec.Key.J))
		if _, err := w.AppendBlock(rec.Block); err != nil {
			return err
		}
	}
	return nil
}

func decodePlainBlocks(rd *codec.FrameReader) ([]blockRec, error) {
	return codec.ReadSlice(rd, "blocks", 7, func(rec *blockRec) error {
		if err := readInts(rd, &rec.Key.I, &rec.Key.J); err != nil {
			return fmt.Errorf("%w: block header", errWire)
		}
		var err error
		rec.Block, _, err = rd.ReadBlock()
		return err
	})
}

func appendPutArgs(w *codec.FrameWriter, a *putArgs) error {
	w.Uvarint(a.Handle)
	w.Uvarint(a.Epoch)
	w.Bool(a.Pin)
	w.Uvarint(a.traceSpan)
	return appendPlainBlocks(w, a.Blocks)
}

func decodePutArgs(rd *codec.FrameReader, a *putArgs) error {
	var err error
	if a.Handle, err = rd.Uvarint(); err != nil {
		return err
	}
	if a.Epoch, err = rd.Uvarint(); err != nil {
		return err
	}
	if a.Pin, err = rd.Bool(); err != nil {
		return err
	}
	if a.traceSpan, err = rd.Uvarint(); err != nil {
		return err
	}
	a.Blocks, err = decodePlainBlocks(rd)
	return err
}

// appendCount is the put and free replies: the band's resident payload
// bytes, and how many resident handles were dropped. The driver needs
// neither, so it drains them undecoded.
func appendCount(w *codec.FrameWriter, n *int64) error {
	w.Uvarint(uint64(*n))
	return nil
}

func appendGetArgs(w *codec.FrameWriter, a *getArgs) error {
	w.Uvarint(a.Handle)
	w.Bool(a.All)
	for _, v := range [4]int{a.ILo, a.IHi, a.JLo, a.JHi} {
		w.Uvarint(uint64(v))
	}
	w.Uvarint(a.traceSpan)
	return nil
}

func decodeGetArgs(rd *codec.FrameReader, a *getArgs) error {
	var err error
	if a.Handle, err = rd.Uvarint(); err != nil {
		return err
	}
	if a.All, err = rd.Bool(); err != nil {
		return err
	}
	if err := readInts(rd, &a.ILo, &a.IHi, &a.JLo, &a.JHi); err != nil {
		return err
	}
	a.traceSpan, err = rd.Uvarint()
	return err
}

func appendGetReply(w *codec.FrameWriter, r *getReply) error {
	if err := appendPlainBlocks(w, r.Blocks); err != nil {
		return err
	}
	w.Bool(r.Whole)
	return nil
}

func decodeGetReply(rd *codec.FrameReader, r *getReply) error {
	var err error
	if r.Blocks, err = decodePlainBlocks(rd); err != nil {
		return err
	}
	r.Whole, err = rd.Bool()
	return err
}

func appendFreeArgs(w *codec.FrameWriter, a *freeArgs) error {
	w.Uvarint(uint64(len(a.Handles)))
	for _, h := range a.Handles {
		w.Uvarint(h)
	}
	w.Uvarint(a.Epoch)
	w.Bool(a.AllEpoch)
	return nil
}

func decodeFreeArgs(rd *codec.FrameReader, a *freeArgs) error {
	var err error
	a.Handles, err = codec.ReadSlice(rd, "handle ids", 1, func(h *uint64) (err error) {
		*h, err = rd.Uvarint()
		return err
	})
	if err != nil {
		return err
	}
	if a.Epoch, err = rd.Uvarint(); err != nil {
		return err
	}
	a.AllEpoch, err = rd.Bool()
	return err
}

func appendPinArgs(w *codec.FrameWriter, a *pinArgs) error {
	w.Uvarint(a.Handle)
	w.Bool(a.Unpin)
	return nil
}

func decodePinArgs(rd *codec.FrameReader, a *pinArgs) error {
	var err error
	if a.Handle, err = rd.Uvarint(); err != nil {
		return err
	}
	a.Unpin, err = rd.Bool()
	return err
}

func appendPartLocs(w *codec.FrameWriter, parts []partLoc) {
	w.Uvarint(uint64(len(parts)))
	for _, p := range parts {
		w.Str(p.Addr)
		w.Uvarint(uint64(p.Lo))
		w.Uvarint(uint64(p.Hi))
	}
}

func decodePartLocs(rd *codec.FrameReader) ([]partLoc, error) {
	return codec.ReadSlice(rd, "part locations", 3, func(p *partLoc) error {
		var err error
		if p.Addr, err = rd.Str(); err != nil {
			return err
		}
		if err := readInts(rd, &p.Lo, &p.Hi); err != nil {
			return fmt.Errorf("%w: part location bounds", errWire)
		}
		return nil
	})
}

func appendExecArgs(w *codec.FrameWriter, a *execArgs) error {
	w.Byte(a.Op)
	w.Uvarint(a.Out)
	w.Uvarint(a.Epoch)
	w.Uvarint(a.A)
	w.Uvarint(a.B)
	var scalar [8]byte
	binary.LittleEndian.PutUint64(scalar[:], math.Float64bits(a.Scalar))
	w.Bytes(scalar[:])
	w.Uvarint(uint64(a.OutLo))
	w.Uvarint(uint64(a.OutHi))
	appendPartLocs(w, a.AParts)
	appendPartLocs(w, a.BParts)
	w.Str(a.Self)
	w.Uvarint(a.traceSpan)
	return nil
}

func decodeExecArgs(rd *codec.FrameReader, a *execArgs) error {
	var err error
	if a.Op, err = rd.U8(); err != nil {
		return err
	}
	for _, p := range [4]*uint64{&a.Out, &a.Epoch, &a.A, &a.B} {
		if *p, err = rd.Uvarint(); err != nil {
			return err
		}
	}
	var scalar [8]byte
	if err := rd.ReadFull(scalar[:]); err != nil {
		return err
	}
	a.Scalar = math.Float64frombits(binary.LittleEndian.Uint64(scalar[:]))
	if err := readInts(rd, &a.OutLo, &a.OutHi); err != nil {
		return fmt.Errorf("%w: exec band bounds", errWire)
	}
	if a.AParts, err = decodePartLocs(rd); err != nil {
		return err
	}
	if a.BParts, err = decodePartLocs(rd); err != nil {
		return err
	}
	if a.Self, err = rd.Str(); err != nil {
		return err
	}
	a.traceSpan, err = rd.Uvarint()
	return err
}

func appendExecReply(w *codec.FrameWriter, r *execReply) error {
	w.Uvarint(uint64(r.Bytes))
	w.Uvarint(uint64(r.Blocks))
	w.Uvarint(uint64(r.PeerBytes))
	return nil
}

func decodeExecReply(rd *codec.FrameReader, r *execReply) error {
	b, err1 := rd.Uvarint()
	n, err2 := rd.Uvarint()
	pb, err3 := rd.Uvarint()
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("%w: exec reply", errWire)
	}
	r.Bytes, r.Blocks, r.PeerBytes = int64(b), int(n), int64(pb)
	return nil
}

package transport

// Wire framing. Every frame is a fixed 28-byte little-endian header
// followed by the payload:
//
//	offset  size  field
//	     0     2  magic 0x6D6F ("mo")
//	     2     1  version (2)
//	     3     1  kind (Data)
//	     4     4  src rank (int32)
//	     8     4  dst rank (int32)
//	    12     4  tag (int32)
//	    16     8  flow (int64; causal flow stamp, 0 = unstamped)
//	    24     4  payload length (uint32)
//	    28     …  payload
//
// The format is deliberately self-describing per frame (src/dst in every
// header) so connections need no handshake: a socket backend identifies
// traffic entirely from the frames it reads.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// HeaderLen is the fixed frame-header size in bytes.
const HeaderLen = 28

// MaxFrameData caps a single frame's payload (1 GiB): a corrupt length
// field must not drive a multi-gigabyte allocation in the reader.
const MaxFrameData = 1 << 30

const (
	frameMagic   = 0x6D6F // "mo"
	frameVersion = 2
)

// ErrBadFrame reports a corrupt or incompatible frame header.
var ErrBadFrame = errors.New("transport: bad frame header")

// AppendFrame encodes f (header + payload) onto dst and returns the
// extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	var h [HeaderLen]byte
	putHeader(h[:], f)
	dst = append(dst, h[:]...)
	return append(dst, f.Data...)
}

// putHeader encodes f's header into h[:HeaderLen]: the one encoder behind
// AppendFrame and the socket's batched writer.
func putHeader(h []byte, f *Frame) {
	_ = h[HeaderLen-1]
	binary.LittleEndian.PutUint16(h[0:2], frameMagic)
	h[2] = frameVersion
	h[3] = f.Kind
	binary.LittleEndian.PutUint32(h[4:8], uint32(int32(f.Src)))
	binary.LittleEndian.PutUint32(h[8:12], uint32(int32(f.Dst)))
	binary.LittleEndian.PutUint32(h[12:16], uint32(int32(f.Tag)))
	binary.LittleEndian.PutUint64(h[16:24], uint64(f.Flow))
	binary.LittleEndian.PutUint32(h[24:28], uint32(len(f.Data)))
}

// decodeHeader parses the header in h[:HeaderLen] and returns the frame
// (Data unset) and its payload length: the one decoder behind ReadFrame
// and the socket reader.
func decodeHeader(h []byte) (Frame, int, error) {
	_ = h[HeaderLen-1]
	if binary.LittleEndian.Uint16(h[0:2]) != frameMagic || h[2] != frameVersion {
		return Frame{}, 0, fmt.Errorf("%w: magic %#x version %d", ErrBadFrame,
			binary.LittleEndian.Uint16(h[0:2]), h[2])
	}
	n := binary.LittleEndian.Uint32(h[24:28])
	if n > MaxFrameData {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, n, MaxFrameData)
	}
	return Frame{
		Kind: h[3],
		Src:  int(int32(binary.LittleEndian.Uint32(h[4:8]))),
		Dst:  int(int32(binary.LittleEndian.Uint32(h[8:12]))),
		Tag:  int(int32(binary.LittleEndian.Uint32(h[12:16]))),
		Flow: int64(binary.LittleEndian.Uint64(h[16:24])),
	}, int(n), nil
}

// ReadFrame decodes one frame from r, allocating the payload.
func ReadFrame(r io.Reader) (Frame, error) {
	var h [HeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Frame{}, err
	}
	f, n, err := decodeHeader(h[:])
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Data = make([]byte, n)
		if _, err := io.ReadFull(r, f.Data); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// WireLen is the encoded size of f in bytes.
func WireLen(f *Frame) int { return HeaderLen + len(f.Data) }

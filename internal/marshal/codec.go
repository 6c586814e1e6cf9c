// Package marshal implements the host<->CVM data channel of the Anception
// layer: encoding of system-call arguments and results (including the
// pointer translation the paper describes — user-space buffers referenced
// by pointer arguments are copied into the message), fixed-size chunking,
// and the two transports the authors prototyped: remapped guest kernel
// pages (the shipped design) and a socket-style channel (discarded for its
// extra copies; kept here as ablation A5).
package marshal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// field tags of the TLV wire format.
const (
	tagNr uint8 = iota + 1
	tagPath
	tagPath2
	tagFD
	tagFD2
	tagFlags
	tagMode
	tagBuf
	tagSize
	tagOff
	tagWhence
	tagRequest
	tagAddr
	tagFamily
	tagSockType
	tagProto
	tagSig
	tagTargetPID
	tagUID
	tagGID
	tagVaddr
	tagPages
	tagProt
	tagTag
	tagArgv

	tagRet
	tagData
	tagResFD
	tagErrno
	tagErrText

	// Vectored I/O segments. Write-style vectors (writev/pwritev) inline
	// each segment's bytes under tagIov; read-style vectors
	// (readv/preadv) ship only the segment lengths under tagIovSpan —
	// the guest allocates scratch of that shape and the filled bytes
	// come back in the result's tagData.
	tagIov
	tagIovSpan
)

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)  { w.buf = append(w.buf, v) }
func (w *writer) u32(v int64) { w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v)) }
func (w *writer) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *writer) field64(tag uint8, v uint64) {
	if v == 0 {
		return
	}
	w.u8(tag)
	w.u64(v)
}

func (w *writer) fieldBytes(tag uint8, b []byte) {
	if len(b) == 0 {
		return
	}
	w.u8(tag)
	w.u32(int64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) fieldString(tag uint8, s string) {
	if len(s) == 0 {
		return
	}
	w.u8(tag)
	w.u32(int64(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) more() bool { return r.err == nil && r.pos < len(r.buf) }

func (r *reader) u8() uint8 {
	if r.pos+1 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *reader) u32() int {
	if r.pos+4 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return int(v)
}

func (r *reader) u64() uint64 {
	if r.pos+8 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) bytes() []byte { return bytes.Clone(r.view()) }

// view is bytes without the copy: the field's bytes within the frame,
// capped so an append to them cannot overwrite the rest of the frame.
func (r *reader) view() []byte {
	n := r.u32()
	if r.err != nil || r.pos+n > len(r.buf) {
		r.err = errTruncated
		return nil
	}
	out := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return out
}

// size64 and sizeBytes are the encoded lengths of field64 and fieldBytes.
func size64(v uint64) int {
	if v == 0 {
		return 0
	}
	return 9
}

func sizeBytes(n int) int {
	if n == 0 {
		return 0
	}
	return 5 + n
}

var errTruncated = fmt.Errorf("marshal: truncated message: %w", abi.EINVAL)

// EncodeArgs flattens a syscall's arguments, performing the pointer
// translation step: the Buf payload (a user-space pointer on real
// hardware) is copied inline so the guest needs no access to host memory.
func EncodeArgs(a *kernel.Args) []byte {
	w := writer{buf: make([]byte, 0, argsSize(a))}
	w.u8(tagNr)
	w.u64(uint64(a.Nr))
	w.fieldString(tagPath, a.Path)
	w.fieldString(tagPath2, a.Path2)
	w.field64(tagFD, uint64(int64(a.FD)))
	w.field64(tagFD2, uint64(int64(a.FD2)))
	w.field64(tagFlags, uint64(a.Flags))
	w.field64(tagMode, uint64(a.Mode))
	w.fieldBytes(tagBuf, a.Buf)
	w.field64(tagSize, uint64(int64(a.Size)))
	w.field64(tagOff, uint64(a.Off))
	w.field64(tagWhence, uint64(int64(a.Whence)))
	w.field64(tagRequest, uint64(a.Request))
	w.fieldString(tagAddr, a.Addr)
	w.field64(tagFamily, uint64(int64(a.Family)))
	w.field64(tagSockType, uint64(int64(a.SockType)))
	w.field64(tagProto, uint64(int64(a.Proto)))
	w.field64(tagSig, uint64(int64(a.Sig)))
	w.field64(tagTargetPID, uint64(int64(a.TargetPID)))
	w.field64(tagUID, uint64(int64(a.UID)))
	w.field64(tagGID, uint64(int64(a.GID)))
	w.field64(tagVaddr, a.Vaddr)
	w.field64(tagPages, uint64(int64(a.Pages)))
	w.field64(tagProt, uint64(int64(a.Prot)))
	w.fieldString(tagTag, a.Tag)
	for _, s := range a.Argv {
		w.fieldString(tagArgv, s)
	}
	readStyle := a.Nr == abi.SysReadv || a.Nr == abi.SysPreadv
	for _, seg := range a.Iov {
		if readStyle {
			w.u8(tagIovSpan)
			w.u64(uint64(len(seg)))
		} else {
			w.fieldBytes(tagIov, seg)
		}
	}
	return w.buf
}

// argsSize is the exact length of EncodeArgs(a).
func argsSize(a *kernel.Args) int {
	n := 9 + sizeBytes(len(a.Path)) + sizeBytes(len(a.Path2)) +
		size64(uint64(int64(a.FD))) + size64(uint64(int64(a.FD2))) +
		size64(uint64(a.Flags)) + size64(uint64(a.Mode)) +
		sizeBytes(len(a.Buf)) + size64(uint64(int64(a.Size))) +
		size64(uint64(a.Off)) + size64(uint64(int64(a.Whence))) +
		size64(uint64(a.Request)) + sizeBytes(len(a.Addr)) +
		size64(uint64(int64(a.Family))) + size64(uint64(int64(a.SockType))) +
		size64(uint64(int64(a.Proto))) + size64(uint64(int64(a.Sig))) +
		size64(uint64(int64(a.TargetPID))) + size64(uint64(int64(a.UID))) +
		size64(uint64(int64(a.GID))) + size64(a.Vaddr) +
		size64(uint64(int64(a.Pages))) + size64(uint64(int64(a.Prot))) +
		sizeBytes(len(a.Tag))
	for _, s := range a.Argv {
		n += sizeBytes(len(s))
	}
	readStyle := a.Nr == abi.SysReadv || a.Nr == abi.SysPreadv
	for _, seg := range a.Iov {
		if readStyle {
			n += 9
		} else {
			n += sizeBytes(len(seg))
		}
	}
	return n
}

// DecodeArgs reverses EncodeArgs.
func DecodeArgs(b []byte) (*kernel.Args, error) {
	a := &kernel.Args{}
	r := &reader{buf: b}
	for r.more() {
		switch tag := r.u8(); tag {
		case tagNr:
			a.Nr = abi.SyscallNr(r.u64())
		case tagPath:
			a.Path = string(r.bytes())
		case tagPath2:
			a.Path2 = string(r.bytes())
		case tagFD:
			a.FD = int(int64(r.u64()))
		case tagFD2:
			a.FD2 = int(int64(r.u64()))
		case tagFlags:
			a.Flags = abi.OpenFlag(r.u64())
		case tagMode:
			a.Mode = abi.FileMode(r.u64())
		case tagBuf:
			a.Buf = r.bytes()
		case tagSize:
			a.Size = int(int64(r.u64()))
		case tagOff:
			a.Off = int64(r.u64())
		case tagWhence:
			a.Whence = int(int64(r.u64()))
		case tagRequest:
			a.Request = uint32(r.u64())
		case tagAddr:
			a.Addr = string(r.bytes())
		case tagFamily:
			a.Family = netstack.Family(r.u64())
		case tagSockType:
			a.SockType = netstack.SockType(r.u64())
		case tagProto:
			a.Proto = int(int64(r.u64()))
		case tagSig:
			a.Sig = int(int64(r.u64()))
		case tagTargetPID:
			a.TargetPID = int(int64(r.u64()))
		case tagUID:
			a.UID = int(int64(r.u64()))
		case tagGID:
			a.GID = int(int64(r.u64()))
		case tagVaddr:
			a.Vaddr = r.u64()
		case tagPages:
			a.Pages = int(int64(r.u64()))
		case tagProt:
			a.Prot = int(int64(r.u64()))
		case tagTag:
			a.Tag = string(r.bytes())
		case tagArgv:
			a.Argv = append(a.Argv, string(r.bytes()))
		case tagIov:
			a.Iov = append(a.Iov, r.bytes())
		case tagIovSpan:
			// Scratch allocation is bounded so a hostile span cannot
			// force a giant allocation during decode (16 MiB is far
			// beyond any vector the kernel accepts).
			n := int(r.u64())
			if r.err == nil && (n < 0 || n > 1<<24) {
				return nil, fmt.Errorf("marshal: bad iov span %d: %w", n, abi.EINVAL)
			}
			if r.err == nil {
				a.Iov = append(a.Iov, make([]byte, n))
			}
		default:
			return nil, fmt.Errorf("marshal: unknown args tag %d: %w", tag, abi.EINVAL)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// EncodeArgsBatch frames several calls into one channel payload so a
// coalesced-write flush (or any multi-call exchange) costs a single
// round-trip: a count followed by each call's EncodeArgs blob,
// length-prefixed.
func EncodeArgsBatch(calls []*kernel.Args) []byte {
	var w writer
	w.u32(int64(len(calls)))
	for _, a := range calls {
		blob := EncodeArgs(a)
		w.u32(int64(len(blob)))
		w.buf = append(w.buf, blob...)
	}
	return w.buf
}

// DecodeArgsBatch reverses EncodeArgsBatch.
func DecodeArgsBatch(b []byte) ([]*kernel.Args, error) {
	r := &reader{buf: b}
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	calls := make([]*kernel.Args, 0, n)
	for i := 0; i < n; i++ {
		blob := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		a, err := DecodeArgs(blob)
		if err != nil {
			return nil, err
		}
		calls = append(calls, a)
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after args batch: %w", len(b)-r.pos, abi.EINVAL)
	}
	return calls, nil
}

// EncodeResultBatch frames the per-call results of a batched exchange.
func EncodeResultBatch(results []kernel.Result) []byte {
	w := writer{buf: make([]byte, 0, 4+resultsSize(results))}
	w.u32(int64(len(results)))
	w.appendResults(results)
	return w.buf
}

// DecodeResultBatch reverses EncodeResultBatch.
func DecodeResultBatch(b []byte) ([]kernel.Result, error) {
	r := &reader{buf: b}
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	results := make([]kernel.Result, 0, n)
	for i := 0; i < n; i++ {
		blob := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		res, err := DecodeResult(blob)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after result batch: %w", len(b)-r.pos, abi.EINVAL)
	}
	return results, nil
}

// A result frame that carries data opens with a fixed header — tagRet
// and its u64, then tagData and its u32 length — so the data always
// starts at resultHeader. What can follow the data is at most a
// descriptor field and an errno field.
const (
	resultHeader  = 1 + 8 + 1 + 4
	resultTrailer = 9 + 9
)

// EncodeResult flattens a syscall result for the return trip.
func EncodeResult(res kernel.Result) []byte {
	e := splitErr(res.Err)
	w := writer{buf: make([]byte, 0, resultSize(res, e))}
	w.result(res, e)
	return w.buf
}

// NewReadFrame allocates the reply frame for a read of up to n bytes and
// returns the frame with its data region: the guest executes the read
// straight into buf, and EncodeResultIn then frames it without copying.
// Allocate one per call and never reuse it: the host's decoded Data is a
// view of this frame (DecodeResult).
func NewReadFrame(n int) (frame, buf []byte) {
	frame = make([]byte, resultHeader+n, resultHeader+n+resultTrailer)
	return frame, frame[resultHeader : resultHeader+n : resultHeader+n]
}

// EncodeResultIn encodes res into frame, a NewReadFrame frame whose whole
// data region res.Data already is: it writes the header and trailer
// around the data in place. Any other result — a short or empty read,
// data from elsewhere (readv scratch, a tampered result), or a nil frame
// — is encoded by EncodeResult. The bytes are EncodeResult's either way.
func EncodeResultIn(frame []byte, res kernel.Result) []byte {
	n := len(res.Data)
	if n == 0 || len(frame) != resultHeader+n || &res.Data[0] != &frame[resultHeader] {
		return EncodeResult(res)
	}
	w := writer{buf: frame[:0]}
	w.u8(tagRet)
	w.u64(uint64(res.Ret))
	w.u8(tagData)
	w.u32(int64(n))
	w.buf = frame
	w.resultTrailer(res, splitErr(res.Err))
	return w.buf
}

// wireErr is a result's error as its frame carries it: an errno when one
// is in the error's chain, else the error's text.
type wireErr struct {
	errno   abi.Errno
	isErrno bool
	text    string
}

func splitErr(err error) wireErr {
	if err == nil {
		return wireErr{}
	}
	if errno, ok := err.(abi.Errno); ok {
		return wireErr{errno: errno, isErrno: true}
	}
	// Declared here, not above: errors.As moves it to the heap, which a
	// successful result must not pay for.
	var errno abi.Errno
	if errors.As(err, &errno) {
		return wireErr{errno: errno, isErrno: true}
	}
	return wireErr{text: err.Error()}
}

// resultSize is the exact length of EncodeResult(res), e its split error.
func resultSize(res kernel.Result, e wireErr) int {
	n := 9 + sizeBytes(len(res.Data)) + size64(uint64(int64(res.FD)))
	if e.isErrno {
		return n + 9
	}
	return n + sizeBytes(len(e.text))
}

// result appends res's frame.
func (w *writer) result(res kernel.Result, e wireErr) {
	w.u8(tagRet)
	w.u64(uint64(res.Ret))
	w.fieldBytes(tagData, res.Data)
	w.resultTrailer(res, e)
}

// resultTrailer appends the fields after a result's data.
func (w *writer) resultTrailer(res kernel.Result, e wireErr) {
	w.field64(tagResFD, uint64(int64(res.FD)))
	if e.isErrno {
		w.u8(tagErrno)
		w.u64(uint64(int64(e.errno)))
	} else {
		w.fieldString(tagErrText, e.text)
	}
}

// appendResults appends each result's frame behind a u32 length prefix,
// patched in place once the frame is written: the results of a batch or
// chain frame, each written once.
func (w *writer) appendResults(results []kernel.Result) {
	for _, res := range results {
		at := len(w.buf)
		w.u32(0)
		w.result(res, splitErr(res.Err))
		binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
}

// resultsSize is the length appendResults adds for results.
func resultsSize(results []kernel.Result) int {
	n := 0
	for _, res := range results {
		n += 4 + resultSize(res, splitErr(res.Err))
	}
	return n
}

// DecodeResult reverses EncodeResult. Errno errors survive the trip
// matchably (errors.Is); other errors degrade to EIO with text. The
// returned Data is a slice of b, not a copy: every transport hands the
// decoder a fresh response frame per call, which nothing else writes.
func DecodeResult(b []byte) (kernel.Result, error) {
	var res kernel.Result
	r := &reader{buf: b}
	for r.more() {
		switch tag := r.u8(); tag {
		case tagRet:
			res.Ret = int64(r.u64())
		case tagData:
			res.Data = r.view()
		case tagResFD:
			res.FD = int(int64(r.u64()))
		case tagErrno:
			res.Err = abi.Errno(int64(r.u64()))
		case tagErrText:
			res.Err = fmt.Errorf("%s: %w", r.bytes(), abi.EIO)
		default:
			return kernel.Result{}, fmt.Errorf("marshal: unknown result tag %d: %w", tag, abi.EINVAL)
		}
	}
	if r.err != nil {
		return kernel.Result{}, r.err
	}
	return res, nil
}

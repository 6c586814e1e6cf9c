package marshal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// goldenArgs covers every Args field the encoders read: fully populated,
// sparse, negative and zero scalars, empty and nil byte fields, argv, and
// both iov forms (inline write segments, read-style spans).
var goldenArgs = []*kernel.Args{
	{},
	{Nr: abi.SysGetpid},
	{
		Nr: abi.SysSendfile, Path: "/data/a", Path2: "/data/b",
		FD: 3, FD2: 4, Flags: abi.ORdWr | abi.OCreat, Mode: 0o644,
		Buf: []byte("payload bytes"), Size: 4096, Off: 1234, Whence: abi.SeekEnd,
		Request: 0xC0306201, Addr: "bank.com:443",
		Family: netstack.AFInet, SockType: netstack.SockStream, Proto: 6,
		Sig: 9, TargetPID: 77, UID: 10001, GID: 10001,
		Vaddr: 0x40000000, Pages: 2, Prot: 7, Tag: "shellcode",
		Argv: []string{"sh", "", "-c", "id"},
	},
	{Nr: abi.SysRead, FD: -1, Size: -5, Off: -1, Buf: []byte{}},
	{Nr: abi.SysWritev, FD: 7, Iov: [][]byte{[]byte("ab"), {}, []byte("cdef")}},
	{Nr: abi.SysReadv, FD: 7, Iov: [][]byte{make([]byte, 3), nil, make([]byte, 4096)}},
	{Nr: abi.SysPreadv, FD: 2, Off: 8192, Iov: [][]byte{make([]byte, 1)}},
	{Nr: abi.SysSendto, FD: 9, Addr: "10.0.0.1:80", Buf: make([]byte, 300)},
	{Nr: abi.SysConnect, FD: 9, Addr: "", Flags: 1 << 31},
	{Nr: abi.SysEpollCtl, FD: 4, FD2: 11, Flags: 1, Size: 64},
}

// goldenResults covers every Result encoding: data, descriptors, errno
// (bare and wrapped), free-text errors, and empty fields.
var goldenResults = []kernel.Result{
	{},
	{Ret: -1, Err: abi.ENOENT},
	{Ret: -1, Err: fmt.Errorf("open: %w", abi.EACCES)},
	{Ret: -1, Err: errors.New("proxy exploded")},
	{Ret: -1, Err: errors.New("")},
	{Ret: -1, Err: fmt.Errorf("zero: %w", abi.Errno(0))},
	{Ret: 5, Data: []byte("hello"), FD: 3},
	{Ret: 0, Data: []byte{}, FD: -1},
	{Ret: 4096, Data: make([]byte, 4096)},
	{Ret: 1 << 40, FD: 1 << 20, Data: []byte{0}, Err: abi.EAGAIN},
}

// goldenFrameDigest is the SHA-256 of every golden value's encoded
// frames. MarshalPerByte charges by frame length, so a codec change that
// moves a single byte would move sim time: the digest pins the wire
// format byte for byte.
const goldenFrameDigest = "31e4126afbe77a9c9eae209d3787fd400b371c4f51ed906a25810b06e2cabeb4"

func TestCodecGoldenDigest(t *testing.T) {
	h := sha256.New()
	frame := func(b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	for i, a := range goldenArgs {
		args, op := EncodeArgs(a), EncodeSockOp(a)
		// The encoders size their buffers up front: exactly, so argsSize
		// must list the same fields EncodeArgs writes.
		if cap(args) != len(args) || cap(op) != len(op) {
			t.Errorf("args %d: EncodeArgs cap %d len %d, EncodeSockOp cap %d len %d", i, cap(args), len(args), cap(op), len(op))
		}
		frame(args)
		frame(op)
	}
	frame(EncodeArgsBatch(goldenArgs))
	for i, r := range goldenResults {
		res := EncodeResult(r)
		if cap(res) > len(res)+9 {
			t.Errorf("result %d: EncodeResult cap %d for len %d, want an upper bound within 9 bytes", i, cap(res), len(res))
		}
		frame(res)
	}
	frame(EncodeResultBatch(goldenResults))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFrameDigest {
		t.Fatalf("codec frame digest %s, want %s", got, goldenFrameDigest)
	}
}

// TestDecodeViewsFrame pins the no-copy decode: DecodeResult's Data and
// DecodeSockOp's Buf are slices of the frame, capped so an append to
// them cannot overwrite the frame's later bytes.
func TestDecodeViewsFrame(t *testing.T) {
	frame := EncodeResult(kernel.Result{Ret: 3, Data: []byte("abc"), FD: 4})
	res, err := DecodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &res.Data[0] != &frame[1+8+1+4] || cap(res.Data) != 3 {
		t.Fatalf("Data is not a capped view of the frame (cap %d)", cap(res.Data))
	}
	_ = append(res.Data, 'X')
	if again, _ := DecodeResult(frame); again.FD != 4 {
		t.Fatalf("append to Data clobbered the frame: fd %d", again.FD)
	}

	op := EncodeSockOp(&kernel.Args{Nr: abi.SysSendto, FD: 9, Addr: "a:1", Buf: []byte("body")})
	a, err := DecodeSockOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Buf[0] != &op[len(op)-4] || cap(a.Buf) != 4 || string(a.Buf) != "body" {
		t.Fatalf("Buf is not a capped view of the frame: %q cap %d", a.Buf, cap(a.Buf))
	}
}

// goldenChainDigest is the SHA-256 of the golden chain results' encoded
// frames, pinning EncodeChainResult's wire format as goldenFrameDigest
// pins the single-call and batch frames.
const goldenChainDigest = "bc3d7e5693fcefef796bab9655f62bddee94fda0b3bcb1e52e5e124c8bd04804"

// TestChainResultGoldenDigest pins EncodeChainResult byte for byte over
// full, partial, single-link and empty-result chains built from the
// golden results.
func TestChainResultGoldenDigest(t *testing.T) {
	chains := []ChainResult{
		{Executed: len(goldenResults), Results: goldenResults},
		{Executed: 3, Results: goldenResults[3:8]},
		{Executed: 0, Results: goldenResults[:1]},
		{Executed: 1, Results: goldenResults[8:]},
		{Executed: 0, Results: nil},
	}
	h := sha256.New()
	for _, cr := range chains {
		b := EncodeChainResult(cr)
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenChainDigest {
		t.Fatalf("chain result frame digest %s, want %s", got, goldenChainDigest)
	}
}

// TestEncodeResultInPlace: a full read framed in its NewReadFrame frame
// is encoded without copying or allocating, and the frame is the result.
func TestEncodeResultInPlace(t *testing.T) {
	frame, buf := NewReadFrame(4096)
	copy(buf, "page bytes")
	res := kernel.Result{Ret: 4096, Data: buf}
	want := EncodeResult(res)
	var got []byte
	allocs := testing.AllocsPerRun(100, func() { got = EncodeResultIn(frame, res) })
	if allocs != 0 {
		t.Fatalf("EncodeResultIn allocates %.1f objects for a full read, want 0", allocs)
	}
	if &got[0] != &frame[0] || string(got) != string(want) {
		t.Fatal("full read was not framed in place with EncodeResult's bytes")
	}
}

// TestEncodeResultAllocs: a successful result costs only its frame.
func TestEncodeResultAllocs(t *testing.T) {
	res := kernel.Result{Ret: 5, Data: []byte("hello"), FD: 3}
	if allocs := testing.AllocsPerRun(100, func() { _ = EncodeResult(res) }); allocs != 1 {
		t.Fatalf("EncodeResult of a successful result allocates %.1f objects, want 1", allocs)
	}
}

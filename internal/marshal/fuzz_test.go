package marshal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// Fuzz targets: the decoders face bytes a compromised container chose.
// `go test` exercises the seed corpus; `go test -fuzz=FuzzDecodeArgs`
// explores further.

func FuzzDecodeArgs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeArgs(&kernel.Args{Nr: abi.SysWrite, FD: 3, Buf: []byte("data"), Path: "/x"}))
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := DecodeArgs(data)
		if err == nil && args == nil {
			t.Fatal("nil args without error")
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResult(kernel.Result{Ret: 7, Data: []byte("ok"), FD: 4}))
	f.Add(EncodeResult(kernel.Result{Ret: -1, Err: abi.EACCES}))
	f.Add([]byte{0xEE, 0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeResult(data)
	})
}

func FuzzDecodeSockOp(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSockOp(&kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("GET /")}))
	f.Add(EncodeSockOp(&kernel.Args{Nr: abi.SysConnect, FD: 3, Addr: "cvm:80"}))
	f.Add(EncodeSockOp(&kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 4096}))
	f.Add(EncodeSockOp(&kernel.Args{Nr: abi.SysAccept4, FD: 3, Size: 16}))
	f.Add(EncodeSockOp(&kernel.Args{Nr: abi.SysEpollWait, FD: 5, Size: 8}))
	f.Add([]byte{0xA9})
	f.Add([]byte{0xA9, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := DecodeSockOp(data)
		if err == nil && args == nil {
			t.Fatal("nil args without error")
		}
	})
}

func FuzzDecodeChain(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeChain([]ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}))
	f.Add(EncodeChain([]ChainLink{
		{Args: &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("ping")}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 128}, FDFrom: -1},
	}))
	f.Add([]byte{0xAA})
	f.Add([]byte{0xAA, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xAA, 2, 0, 0, 0, chainFlagFDFrom, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		links, err := DecodeChain(data)
		if err == nil && len(links) == 0 {
			t.Fatal("empty chain without error")
		}
		for i, ln := range links {
			if err == nil && (ln.Args == nil || ln.FDFrom >= i) {
				t.Fatalf("link %d decoded inconsistently (fdFrom=%d)", i, ln.FDFrom)
			}
		}
	})
}

func FuzzDecodeChainResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeChainResult(ChainResult{Executed: 2, Results: []kernel.Result{
		{Ret: 3, FD: 3},
		{Ret: -1, Err: abi.EHOSTDOWN},
	}}))
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := DecodeChainResult(data)
		if err == nil && (cr.Executed < 0 || cr.Executed > len(cr.Results)) {
			t.Fatal("inconsistent executed count without error")
		}
	})
}

// FuzzArgsRoundTrip: anything that encodes must decode to itself.
func FuzzArgsRoundTrip(f *testing.F) {
	f.Add("/data/x", 3, []byte("buf"), int64(12), "tag")
	f.Fuzz(func(t *testing.T, path string, fd int, buf []byte, off int64, tag string) {
		in := &kernel.Args{Nr: abi.SysPwrite64, Path: path, FD: fd, Buf: buf, Off: off, Tag: tag}
		out, err := DecodeArgs(EncodeArgs(in))
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if out.Path != path || out.FD != fd || out.Off != off || out.Tag != tag {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzEncodeResultIn: framing a result in place must give EncodeResult's
// bytes exactly, for a read that filled the whole data region, part of
// it, none of it, or data that lives elsewhere, under every error shape.
func FuzzEncodeResultIn(f *testing.F) {
	f.Add(int64(4096), uint16(4096), uint8(2), int64(0), uint8(0), int64(0), "")
	f.Add(int64(100), uint16(4096), uint8(1), int64(0), uint8(0), int64(0), "")
	f.Add(int64(0), uint16(64), uint8(0), int64(0), uint8(0), int64(0), "")
	f.Add(int64(-1), uint16(16), uint8(0), int64(0), uint8(1), int64(abi.EAGAIN), "")
	f.Add(int64(8), uint16(8), uint8(2), int64(5), uint8(2), int64(abi.EINTR), "recv")
	f.Add(int64(8), uint16(8), uint8(2), int64(-1), uint8(3), int64(0), "proxy exploded")
	f.Add(int64(8), uint16(8), uint8(3), int64(0), uint8(0), int64(0), "")
	f.Add(int64(7), uint16(8), uint8(4), int64(0), uint8(0), int64(0), "")
	f.Fuzz(func(t *testing.T, ret int64, size uint16, readLen uint8, fd int64, errKind uint8, errno int64, text string) {
		frame, buf := NewReadFrame(int(size))
		for i := range buf {
			buf[i] = byte(i*7 + 1)
		}
		res := kernel.Result{Ret: ret, FD: int(fd)}
		switch readLen % 5 {
		case 1: // short read
			res.Data = buf[:len(buf)/2]
		case 2: // full read
			res.Data = buf
		case 3: // data from elsewhere (readv scratch, a tampered result)
			res.Data = bytes.Clone(buf)
		case 4: // a view of the frame at the wrong offset
			res.Data = frame[1 : 1+len(buf)/2]
		}
		switch errKind % 4 {
		case 1:
			res.Err = abi.Errno(errno)
		case 2:
			res.Err = fmt.Errorf("%s: %w", text, abi.Errno(errno))
		case 3:
			res.Err = errors.New(text)
		}
		want := EncodeResult(res)
		if got := EncodeResultIn(frame, res); !bytes.Equal(got, want) {
			t.Fatalf("EncodeResultIn = %x, want %x", got, want)
		}
	})
}

package mpi

import "fmt"

// Buf is a message buffer: a byte count plus, optionally, real backing
// bytes. Collectives are written entirely against Buf so the same
// algorithm code runs in two modes:
//
//   - real mode (Bytes/NewBuf): payloads actually move, so tests can verify
//     every collective against a sequential oracle;
//   - phantom mode (Phantom): only sizes flow through the simulator, so the
//     paper's largest configurations (1024 ranks x multi-MB buffers, which
//     would need hundreds of GB of real memory) still run exactly and
//     deterministically in virtual time.
//
// A Buf is a view: Slice shares the backing array like a Go slice does.
type Buf struct {
	n    int
	data []byte // nil in phantom mode
}

// Bytes wraps an existing byte slice as a real-mode Buf.
func Bytes(b []byte) Buf { return Buf{n: len(b), data: b} }

// NewBuf allocates a zeroed real-mode Buf of n bytes.
func NewBuf(n int) Buf {
	if n < 0 {
		panic("mpi: negative buffer size")
	}
	return Buf{n: n, data: make([]byte, n)}
}

// Phantom returns a size-only Buf of n bytes with no backing storage.
func Phantom(n int) Buf {
	if n < 0 {
		panic("mpi: negative buffer size")
	}
	return Buf{n: n}
}

// Make returns a real or phantom Buf of n bytes depending on phantom.
func Make(n int, phantom bool) Buf {
	if phantom {
		return Phantom(n)
	}
	return NewBuf(n)
}

// Len returns the buffer's size in bytes.
func (b Buf) Len() int { return b.n }

// IsPhantom reports whether the buffer has no backing bytes.
func (b Buf) IsPhantom() bool { return b.data == nil }

// Data returns the backing bytes (nil for phantom buffers).
func (b Buf) Data() []byte { return b.data }

// Slice returns the sub-buffer [off, off+n). Like slicing a []byte, the
// result shares backing storage with b.
func (b Buf) Slice(off, n int) Buf {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mpi: slice [%d:%d] out of buffer of %d bytes", off, off+n, b.n))
	}
	if b.data == nil {
		return Buf{n: n}
	}
	return Buf{n: n, data: b.data[off : off+n]}
}

// CopyFrom copies src's contents into b. Sizes must match exactly. Copies
// involving a phantom side move no bytes; a real destination keeps its
// previous contents in that case, which is fine because real and phantom
// buffers are never mixed within one simulation.
func (b Buf) CopyFrom(src Buf) {
	if b.n != src.n {
		panic(fmt.Sprintf("mpi: copy size mismatch: dst %d bytes, src %d bytes", b.n, src.n))
	}
	if b.data != nil && src.data != nil {
		copy(b.data, src.data)
	}
}

// Clone returns an independent copy of b (phantomness is preserved).
func (b Buf) Clone() Buf {
	if b.data == nil {
		return Buf{n: b.n}
	}
	// A local name and its len is the spelling the compiler turns into one
	// allocate-and-copy that is not cleared first; a zero-length real buffer
	// stays real, which append([]byte(nil), ...) would not keep.
	src := b.data
	out := make([]byte, len(src))
	copy(out, src)
	return Buf{n: b.n, data: out}
}

// Equal reports whether two real buffers hold identical bytes. Phantom
// buffers compare equal when their sizes match.
//
//lint:ignore unreached TestReceivedBufOutlivesItsRecord and TestCompletedPayloadsAreReused check delivered bytes through it
func (b Buf) Equal(o Buf) bool {
	if b.n != o.n {
		return false
	}
	if b.data == nil || o.data == nil {
		return b.IsPhantom() == o.IsPhantom()
	}
	for i := range b.data {
		if b.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

func (b Buf) String() string {
	if b.data == nil {
		return fmt.Sprintf("Buf(phantom %dB)", b.n)
	}
	return fmt.Sprintf("Buf(%dB)", b.n)
}

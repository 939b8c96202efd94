package predictclient

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// bufPool holds the buffers typed exchanges encode requests into and the
// in-process transport records responses into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBufBytes = 1 << 20

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBufBytes { // one huge exchange must not pin its buffer
		bufPool.Put(buf)
	}
}

var errBodyReleased = errors.New("predictclient: request body reopened after its call returned")

// sharedBytes is one filled pooled buffer that several readers share: the
// call that filled it holds a reference, and so does every body opened over
// it. The buffer goes back to the pool when the last reference is dropped,
// so a transport may keep reading a body after Do returns. A sharedBytes
// serves one exchange: once its count is zero, open fails.
type sharedBytes struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

// share hands buf, already filled, to a sharedBytes; the caller holds its
// one reference.
func share(buf *bytes.Buffer) *sharedBytes {
	s := &sharedBytes{buf: buf}
	s.refs.Store(1)
	return s
}

// open returns a new body over the bytes from the start, holding a
// reference of its own. It is the request's GetBody, which net/http calls
// to replay the body on a redirect or a retry.
func (s *sharedBytes) open() (io.ReadCloser, error) {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return nil, errBodyReleased
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return &sharedBody{s: s}, nil
		}
	}
}

func (s *sharedBytes) release() {
	if s.refs.Add(-1) == 0 {
		putBuf(s.buf)
	}
}

// sharedBody reads a sharedBytes once. Read and Close may come from
// different goroutines (a transport may close a body it is still writing);
// the first Close drops the body's reference, a second is a no-op, and a
// Read after Close reads nothing.
type sharedBody struct {
	mu  sync.Mutex
	s   *sharedBytes
	off int
}

// Read implements io.Reader.
func (b *sharedBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.s == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	rest := b.s.buf.Bytes()[b.off:]
	if len(rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, rest)
	b.off += n
	return n, nil
}

// Close implements io.Closer.
func (b *sharedBody) Close() error {
	b.mu.Lock()
	s := b.s
	b.s = nil
	b.mu.Unlock()
	if s != nil {
		s.release()
	}
	return nil
}

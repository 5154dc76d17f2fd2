package main

// The instruments. Each wraps one of the program's public injection
// points — the io.ReaderAt given to stream.NewSource, the io.Writer
// given to Pipeline.Run, stream.Options.SpillFS, the net.Listener given
// to tsyncd.Server.Serve and tsyncd.ClientConfig.Dial — and passes every
// call through unchanged, recording a span and byte counts on the way.
// The untraced run installs none of them.

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// tracedReaderAt times every read the program makes of its input file.
type tracedReaderAt struct {
	r io.ReaderAt
	t *tracer
}

func (r tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := r.t.now()
	n, err := r.r.ReadAt(p, off)
	r.t.leaf("read.ReadAt", start)
	r.t.add("read.bytes", int64(n))
	return n, err
}

// tracedWriter times every write of the corrected trace.
type tracedWriter struct {
	w io.Writer
	t *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	start := w.t.now()
	n, err := w.w.Write(p)
	w.t.leaf("out.Write", start)
	w.t.add("out.bytes", int64(n))
	return n, err
}

// spillFS is a stream.SpillFS over plain files in dir, timing every
// call. The pipeline leaves file removal to the owner of an injected
// FS; the job removes dir when the run ends.
type spillFS struct {
	dir string
	t   *tracer
}

func (fs spillFS) Create(name string) (io.WriteCloser, error) {
	start := fs.t.now()
	f, err := os.Create(filepath.Join(fs.dir, name))
	fs.t.leaf("spill.Create", start)
	if err != nil {
		return nil, err
	}
	fs.t.add("spill.files", 1)
	return spillFile{f: f, t: fs.t}, nil
}

func (fs spillFS) Open(name string) (io.ReadCloser, error) {
	start := fs.t.now()
	f, err := os.Open(filepath.Join(fs.dir, name))
	fs.t.leaf("spill.Open", start)
	if err != nil {
		return nil, err
	}
	return spillFile{f: f, t: fs.t}, nil
}

type spillFile struct {
	f *os.File
	t *tracer
}

func (s spillFile) Write(p []byte) (int, error) {
	start := s.t.now()
	n, err := s.f.Write(p)
	s.t.leaf("spill.Write", start)
	s.t.add("spill.bytes_written", int64(n))
	return n, err
}

func (s spillFile) Read(p []byte) (int, error) {
	start := s.t.now()
	n, err := s.f.Read(p)
	s.t.leaf("spill.Read", start)
	s.t.add("spill.bytes_read", int64(n))
	return n, err
}

func (s spillFile) Close() error {
	start := s.t.now()
	err := s.f.Close()
	s.t.leaf("spill.Close", start)
	return err
}

// tracedListener records a span per accepted connection, from accept to
// close, and the bytes the server read and wrote on it.
type tracedListener struct {
	net.Listener
	t     *tracer
	conns atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.add("server.conns", 1)
	return &serverConn{Conn: c, t: l.t, run: int(l.conns.Add(1)), start: l.t.now()}, nil
}

type serverConn struct {
	net.Conn
	t     *tracer
	run   int
	start int64
	once  sync.Once
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.add("server.bytes_in", int64(n))
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.add("server.bytes_out", int64(n))
	return n, err
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.t.record("tsyncd.conn", -1, c.run, c.start, c.t.now()) })
	return err
}

// Frame types of the tsyncd wire protocol (internal/tsyncd/proto.go):
// one type byte and a little-endian uint32 payload length per frame.
const (
	frameHeader = 5
	frameEOF    = 0x03
	frameAccept = 0x11
	frameReject = 0x12
	frameResult = 0x14
	frameDone   = 0x15
)

// phaseConn is the client's connection as the wrapped Dial returns it.
// It stamps the moments a session moves between phases: HELLO written,
// ACCEPT received, EOF written, the first RESULT or DONE received, DONE
// received. The client writes each frame with a single Write call, so
// outbound frames are recognized by their first byte; inbound frames are
// parsed from the byte stream because the client reads through a
// bufio.Reader.
type phaseConn struct {
	net.Conn
	t *tracer

	mu                                      sync.Mutex
	hello, accept, eof, first, done, reject int64
	hdr                                     [frameHeader]byte
	hdrN                                    int
	skip                                    uint32
}

func (c *phaseConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	if c.hello == 0 {
		c.hello = start
	}
	if len(p) == frameHeader && p[0] == frameEOF {
		c.eof = c.t.now()
	}
	c.mu.Unlock()
	return n, err
}

func (c *phaseConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.scan(p[:n], c.t.now())
		c.mu.Unlock()
	}
	return n, err
}

// scan advances the inbound frame parser over b, received at now.
func (c *phaseConn) scan(b []byte, now int64) {
	for len(b) > 0 {
		if c.skip > 0 {
			k := uint32(len(b))
			if k > c.skip {
				k = c.skip
			}
			c.skip -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.hdrN:], b)
		c.hdrN += k
		b = b[k:]
		if c.hdrN < frameHeader {
			return
		}
		c.hdrN = 0
		c.skip = binary.LittleEndian.Uint32(c.hdr[1:])
		switch c.hdr[0] {
		case frameAccept:
			c.accept = now
		case frameReject:
			c.reject++
		case frameResult, frameDone:
			if c.first == 0 && c.eof != 0 {
				c.first = now
			}
			if c.hdr[0] == frameDone {
				c.done = now
			}
		}
	}
}

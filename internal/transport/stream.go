package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// ServeTCP serves RFC 1035 §4.2.2 framed queries from l until ctx is
// cancelled: two-byte length prefix, pipelining, out-of-order responses.
func (s *Server) ServeTCP(ctx context.Context, l net.Listener) error {
	return s.serveStreamListener(ctx, l, TransportTCP)
}

// ServeDoT serves DNS-over-TLS (RFC 7858): the identical stream core under
// crypto/tls. The caller provides a base (usually TCP) listener and the
// server's TLS configuration.
func (s *Server) ServeDoT(ctx context.Context, l net.Listener, tlsConf *tls.Config) error {
	return s.serveStreamListener(ctx, tls.NewListener(l, tlsConf), TransportDoT)
}

// serveStreamListener accepts connections and serves each with the shared
// stream core. Per-listener concurrency is bounded by MaxConns: a
// connection past the bound gets its first query answered with the shed
// reply, then is closed. On ctx cancellation the listener closes, every
// open connection's read deadline is expired to wake its reader, in-flight
// queries finish and write their responses, and only then does the call
// return.
func (s *Server) serveStreamListener(ctx context.Context, l net.Listener, transport string) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			mu.Lock()
			for c := range conns {
				// A deadline in the past fails the blocked read and
				// every future one: the serve loop exits after its
				// in-flight queries drain.
				c.SetReadDeadline(time.Now())
			}
			mu.Unlock()
		case <-done:
		}
	}()

	connSem := make(chan struct{}, s.cfg.MaxConns)
	var wg sync.WaitGroup
	defer wg.Wait()

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case connSem <- struct{}{}:
		default:
			s.m.sheds[transport].Inc()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.shedConn(conn, transport)
			}()
			continue
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				<-connSem
			}()
			s.serveStream(ctx, conn, transport)
		}()
	}
}

// shedConn handles a connection rejected at the MaxConns bound: read one
// query (briefly), answer it SERVFAIL + EDE 23 so the client learns why,
// and close.
func (s *Server) shedConn(conn net.Conn, transport string) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(s.cfg.WriteTimeout))
	q, err := dnswire.ReadStream(conn)
	if err != nil {
		return
	}
	s.m.queries[transport].Inc()
	shedReply(q, "server overloaded: connection limit reached").WriteStream(conn)
}

// streamReadSize is the per-connection read buffer: one read syscall
// drains up to this many bytes of pipelined frames.
const streamReadSize = 4 << 10

// streamFlushSize is how many bytes of inline wire answers the read loop
// holds back, at most, before writing them while input is still buffered.
const streamFlushSize = 16 << 10

// batchPool recycles the batches of inline wire answers across
// connections: a connection holds one only between its first inline
// answer and the next flush, so an idle connection pins none.
var batchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, streamFlushSize+streamReadSize)
	return &b
}}

// serveStream is the transport-agnostic core. The read loop drains framed
// queries through one buffered reader. A query the wire fast path can
// answer is answered inline: its length-prefixed reply joins a
// per-connection batch, written in one Write whenever the reader holds no
// whole frame (the next read may block on the socket) or the batch passes
// streamFlushSize. Every other query is admitted into a bounded
// per-connection pipeline and answered from its own goroutine, so
// responses go out in completion order, not arrival order. A write mutex
// keeps frames whole: every write is whole frames in a single Write call.
func (s *Server) serveStream(ctx context.Context, conn net.Conn, transport string) {
	defer conn.Close()
	s.m.open[transport].Add(1)
	defer s.m.open[transport].Add(-1)

	pipe := make(chan struct{}, s.cfg.MaxPipeline)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()

	br := bufio.NewReaderSize(conn, streamReadSize)
	// frame is reused for every query: the wire path keeps nothing of it
	// but the qname ScanQuery copies, and Unpack gives the slow path a
	// message that never aliases it.
	var frame []byte
	var batch *[]byte // from batchPool; nil while nothing is queued
	flush := func() {
		if batch == nil {
			return
		}
		if len(*batch) > 0 {
			s.writeFrames(conn, &wmu, transport, *batch)
		}
		// A batch that one huge reply grew is left to the GC, not pooled.
		if cap(*batch) <= 2*streamFlushSize {
			*batch = (*batch)[:0]
			batchPool.Put(batch)
		}
		batch = nil
	}
	defer flush()

	for {
		if ctx.Err() != nil {
			return
		}
		if !frameBuffered(br) {
			flush() // the next read may block: answer what is queued first
		}
		if cap(frame) > streamReadSize {
			frame = nil // do not pin a rare large query's buffer
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		var err error
		frame, err = readFrame(br, frame)
		if err != nil {
			// EOF, idle timeout, and shutdown-induced deadline are the
			// normal ends of a connection; anything else (a mid-frame
			// disconnect) counts as an error.
			if err != io.EOF && !os.IsTimeout(err) && !errors.Is(err, net.ErrClosed) {
				s.m.errors[transport].Inc()
			}
			return
		}
		if batch == nil {
			batch = batchPool.Get().(*[]byte)
		}
		if out, ok := s.appendStreamWire(*batch, frame); ok {
			s.m.queries[transport].Inc()
			s.m.wireServes[transport].Inc()
			if *batch = out; len(out) >= streamFlushSize {
				flush()
			}
			continue
		}
		q, err := dnswire.Unpack(frame)
		if err != nil {
			s.m.errors[transport].Inc() // a malformed frame ends the connection
			return
		}
		s.m.queries[transport].Inc()

		select {
		case pipe <- struct{}{}:
		default:
			s.m.sheds[transport].Inc()
			s.writeStream(conn, &wmu, transport,
				shedReply(q, fmt.Sprintf("server overloaded: %d queries in flight on this connection", cap(pipe))))
			continue
		}
		s.m.pipeline.Observe(float64(len(pipe)))

		wg.Add(1)
		go func(q *dnswire.Message) {
			defer wg.Done()
			defer func() { <-pipe }()
			if resp := s.respond(ctx, transport, q); resp != nil {
				s.writeStream(conn, &wmu, transport, resp)
			}
		}(q)
	}
}

// frameBuffered reports whether br already holds one whole frame, so
// reading it cannot block on the connection.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 2 {
		return false
	}
	hdr, _ := br.Peek(2)
	return n >= 2+int(binary.BigEndian.Uint16(hdr))
}

// readFrame reads one length-prefixed message from br into buf's storage,
// growing it when needed. A connection that ends between frames yields
// io.EOF; one that ends inside a frame yields io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hi, err := br.ReadByte()
	if err != nil {
		return buf, err
	}
	lo, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(hi)<<8 | int(lo)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(br, buf); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// appendStreamWire answers one framed query from the wire fast path,
// appending the length-prefixed reply to batch. ok=false leaves batch as
// it was and sends the query down the Handler path. So does an EDNS query
// on a server that advertises edns-tcp-keepalive: the Handler path adds
// the option when it packs the reply, and cache images do not carry it.
func (s *Server) appendStreamWire(batch, frame []byte) ([]byte, bool) {
	if s.wire == nil {
		return batch, false
	}
	wq, ok := dnswire.ScanQuery(frame)
	if !ok || (s.cfg.TCPKeepalive > 0 && wq.HasEDNS) {
		return batch, false
	}
	at := len(batch)
	out, ok := s.wire.ServeWire(wq, 0xFFFF, append(batch, 0, 0))
	if !ok {
		return batch, false
	}
	binary.BigEndian.PutUint16(out[at:], uint16(len(out)-at-2))
	return out, true
}

// advertiseKeepalive returns a copy of resp whose OPT carries an
// edns-tcp-keepalive TIMEOUT of d (RFC 7828 §3.3.2), leaving the original
// untouched — resp's OPT may be shared with a cache entry.
func advertiseKeepalive(resp *dnswire.Message, d time.Duration) *dnswire.Message {
	units := d / (100 * time.Millisecond)
	if units > 0xFFFF {
		units = 0xFFFF
	}
	if units < 1 {
		units = 1
	}
	out := *resp
	opt := *resp.OPT
	opt.Options = append(opt.Options[:len(opt.Options):len(opt.Options)],
		dnswire.TCPKeepaliveOption{HasTimeout: true, Timeout: uint16(units)})
	out.OPT = &opt
	return &out
}

// writeStream serializes resp and writes it under the connection's write
// mutex with a bounded deadline. Stream responses to EDNS queries advertise
// the configured edns-tcp-keepalive timeout; RFC 7828 §3.4 forbids the
// option over UDP, and the option rides in OPT so non-EDNS responses cannot
// carry it.
func (s *Server) writeStream(conn net.Conn, wmu *sync.Mutex, transport string, resp *dnswire.Message) {
	if s.cfg.TCPKeepalive > 0 && resp.OPT != nil {
		resp = advertiseKeepalive(resp, s.cfg.TCPKeepalive)
	}
	wire, err := resp.AppendStream(nil)
	if err != nil {
		s.m.errors[transport].Inc()
		return
	}
	s.writeFrames(conn, wmu, transport, wire)
}

// writeFrames writes whole length-prefixed frames in one Write under the
// connection's write mutex, with a bounded deadline.
func (s *Server) writeFrames(conn net.Conn, wmu *sync.Mutex, transport string, frames []byte) {
	wmu.Lock()
	defer wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := conn.Write(frames); err != nil {
		s.m.errors[transport].Inc()
	}
}

package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
)

// httpConn is one persistent HTTP/1.1 connection, used by one goroutine
// that writes each request and reads its response itself. net/http's client
// hands requests and responses between the caller and its connection
// goroutines, and on two shared cores each hand-off can wait for a thread
// to wake; here the time until a response has been read is the daemon's,
// not the client's scheduling. A failed request drops the connection and
// the next one redials.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newHTTPConn(addr string) *httpConn { return &httpConn{addr: addr} }

// do sends one request (a JSON body when body is non-nil, plus header) and
// returns the response with its body read.
func (h *httpConn) do(ctx context.Context, method, target string, header http.Header, body []byte) (*http.Response, []byte, error) {
	if h.c == nil {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", h.addr)
		if err != nil {
			return nil, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	b := append(h.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: predictd\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	for k, vs := range header {
		for _, v := range vs {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	h.buf = b
	resp, data, err := h.roundTrip(b)
	if err != nil || resp.Close {
		h.close()
	}
	return resp, data, err
}

func (h *httpConn) roundTrip(req []byte) (*http.Response, []byte, error) {
	if _, err := h.c.Write(req); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

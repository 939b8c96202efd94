package daemon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// drainTimeout bounds how long Drain waits for in-flight requests.
const drainTimeout = 5 * time.Second

// Server is the HTTP surface of a daemon from bind to drain: Listen binds
// and starts serving, Done reports a server that stopped on its own, Drain
// shuts it down. The daemon serves through it, so a port that cannot be
// bound fails the process before its first round instead of leaving it
// running unserved.
type Server struct {
	srv  *http.Server
	done chan struct{}
	err  error // why Serve returned; written before done is closed
}

// Listen binds addr synchronously — a bind failure is returned here, not
// logged from a goroutine — and serves h on it in the background.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv:  &http.Server{Addr: ln.Addr().String(), Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		s.err = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr is the address actually bound (the port the kernel chose for ":0").
func (s *Server) Addr() string { return s.srv.Addr }

// Done is closed once the server has stopped serving, whether Drain asked it
// to or the listener failed underneath it; Drain then returns the reason.
func (s *Server) Done() <-chan struct{} { return s.done }

// Drain stops accepting connections, gives in-flight requests drainTimeout
// to finish, and returns once the serving goroutine has exited. It reports a
// drain that timed out and a server that had stopped for any reason other
// than being drained.
func (s *Server) Drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if !errors.Is(s.err, http.ErrServerClosed) {
		err = errors.Join(err, s.err)
	}
	return err
}

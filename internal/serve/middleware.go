package serve

import (
	"context"
	"net/http"
	"sync/atomic"
)

// streamGate caps concurrently executing /run and /sweep streams.
// Acquire-or-reject (not queue): under overload a client gets an
// immediate 503 with Retry-After instead of an invisible queue that
// outlives its patience.
type streamGate struct {
	max int64
	cur atomic.Int64
}

func (g *streamGate) acquire() bool {
	if g.cur.Add(1) > g.max {
		g.cur.Add(-1)
		return false
	}
	return true
}

func (g *streamGate) release() { g.cur.Add(-1) }

func (g *streamGate) active() int64 { return g.cur.Load() }

// withTimeout wraps a streaming route with the per-request deadline
// (when enabled). The deadline rides the request context, so it reaches
// every engine job the stream submits: an expired request stops burning
// simulator time immediately, exactly like a disconnected client. The
// countered outcome is observed after the handler returns — if the
// deadline fired, whether or not the response escaped cleanly, it is one
// timeout.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.ReqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.ReqTimeout)
		defer func() {
			if ctx.Err() == context.DeadlineExceeded {
				s.metrics.requestTimedOut()
			}
			cancel()
		}()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// capStreams wraps the /run and /sweep routes with the
// max-concurrent-streams gate (when enabled). The slot is held for the
// whole stream — including the render — so the cap bounds real work in
// flight, not just accepted sockets.
func (s *Server) capStreams(next http.Handler) http.Handler {
	if s.streams == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.streams.acquire() {
			s.metrics.streamRejected()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many concurrent streams", http.StatusServiceUnavailable)
			return
		}
		defer s.streams.release()
		next.ServeHTTP(w, r)
	})
}

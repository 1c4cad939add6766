// Structured request logging. Every HTTP request gets a request id
// (honoring a client-supplied X-Request-Id, minting one otherwise), echoed
// in the X-Request-Id response header, and one slog line on completion:
// method, path, status, latency and an outcome label (admitted, coalesced,
// cache-hit, queue-full, timeout, client-closed, ...). Handlers refine the
// outcome through the request-scoped reqInfo; the middleware falls back to
// a status-derived label so every request logs something meaningful.
package server

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// reqInfo is the request-scoped logging state shared between the middleware
// and the handlers: the request id (also returned to clients) and the
// outcome label the handler settled on.
type reqInfo struct {
	id      string
	outcome string
}

type reqInfoKey struct{}

// requestInfo returns the request's reqInfo, or nil outside the middleware
// (direct handler tests).
func requestInfo(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// requestID returns the request's id, empty outside the middleware.
func requestID(r *http.Request) string {
	if ri := requestInfo(r); ri != nil {
		return ri.id
	}
	return ""
}

// setOutcome records the handler's outcome label for the request log line.
func setOutcome(r *http.Request, outcome string) {
	if ri := requestInfo(r); ri != nil {
		ri.outcome = outcome
	}
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 on an implicit header write.
func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards http.Flusher, so SSE streams (/watch) flush through the
// logging middleware instead of buffering until the stream ends.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeForStatus is the fallback label when no handler called setOutcome.
func outcomeForStatus(status int) string {
	switch status {
	case http.StatusOK:
		return "done"
	case http.StatusAccepted:
		return "accepted"
	case http.StatusTooManyRequests:
		return "queue-full"
	case http.StatusRequestTimeout:
		return "timeout"
	case statusClientClosedRequest:
		return "client-closed"
	case http.StatusServiceUnavailable:
		return "shutting-down"
	}
	if status >= 400 && status < 500 {
		return "client-error"
	}
	if status >= 500 {
		return "server-error"
	}
	return "done"
}

// withRequestLog wraps next with request-id assignment and one structured
// log line per completed request.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("r-%016x", s.reqSeq.Add(1))
		}
		ri := &reqInfo{id: id}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := ri.outcome
		if outcome == "" {
			outcome = outcomeForStatus(status)
		}
		s.logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"outcome", outcome,
			"ms", float64(time.Since(start))/float64(time.Millisecond),
		)
	})
}

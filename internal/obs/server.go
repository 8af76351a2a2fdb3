package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"isacmp/internal/obs/slogx"
	"isacmp/internal/prof"
	"isacmp/internal/telemetry"
)

// ServerConfig configures the embedded observability server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":8080" or "127.0.0.1:0"
	// (":0" picks a free port; read it back from Server.Addr).
	Addr string
	// Registry backs /metrics and the /statusz queue-depth view.
	Registry *telemetry.Registry
	// Board backs /statusz and /events. May be nil; both endpoints
	// then serve an empty matrix.
	Board *Board
	// Profiler backs /profilez and the /statusz stage breakdown. May
	// be nil (-profile off); /profilez then reports the profiler as
	// disabled and /statusz omits stage_seconds.
	Profiler *prof.Profiler
	// Log receives server lifecycle lines. Nil means silent.
	Log *slog.Logger
}

// shutdownGrace is how long Close waits for in-flight requests before
// force-closing connections. SSE and pprof handlers watch the
// shutdown channel and return well within it.
const shutdownGrace = 2 * time.Second

// Server is the embedded observability HTTP server. It lives for the
// duration of an experiment: StartServer binds and serves immediately
// (readiness gated separately via SetReady), and it shuts down when
// the experiment context is cancelled — including -cell-timeout and
// -fail-fast cancellation — or when Close is called, whichever comes
// first.
type Server struct {
	srv      *http.Server
	ln       net.Listener
	board    *Board
	reg      *telemetry.Registry
	profiler *prof.Profiler
	log      *slog.Logger
	ready    atomic.Bool
	shutdown chan struct{} // closed exactly once, by Close
	served   chan struct{} // closed when the serve goroutine exits
	watched  chan struct{} // closed when the ctx watcher exits
	once     sync.Once
}

// StartServer binds cfg.Addr and serves in the background. The server
// closes itself when ctx is cancelled; call Close for an orderly
// earlier stop (both are safe, in any order, any number of times).
func StartServer(ctx context.Context, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		ln:       ln,
		board:    cfg.Board,
		reg:      cfg.Registry,
		profiler: cfg.Profiler,
		log:      slogx.OrNop(cfg.Log),
		shutdown: make(chan struct{}),
		served:   make(chan struct{}),
		watched:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/profilez", s.handleProfilez)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("obs server exited", "err", err)
		}
	}()
	go func() {
		// The watcher initiates shutdown but must not join on the
		// goroutine channels (it would wait on its own exit); Close
		// does the joining for callers.
		defer close(s.watched)
		select {
		case <-ctx.Done():
			s.doClose()
		case <-s.shutdown:
		}
	}()
	s.log.Info("obs server listening", "addr", s.Addr())
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SetReady flips the /readyz state. The runner marks the server ready
// once the matrix is set up and not-ready again while draining.
func (s *Server) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// Close shuts the server down: long-lived handlers (SSE, pprof) are
// told to return via the shutdown channel, in-flight requests get a
// short grace period, then remaining connections are force-closed.
// Close blocks until the serve and watcher goroutines have exited, so
// a Close-then-return leaves no server goroutines behind. Safe to call
// multiple times and concurrently with context cancellation.
func (s *Server) Close() {
	if s == nil {
		return
	}
	s.doClose()
	<-s.served
	<-s.watched
}

// doClose performs the once-guarded shutdown without joining the
// server goroutines, so the ctx watcher can run it without deadlocking
// on its own exit.
func (s *Server) doClose() {
	s.once.Do(func() {
		s.ready.Store(false)
		close(s.shutdown)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
		}
		cancel()
		s.log.Info("obs server stopped", "addr", s.Addr())
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.Snapshot
	if s.reg != nil {
		snap = s.reg.Snapshot()
	}
	w.Header().Set("Content-Type", PromContentType)
	if err := WritePrometheus(w, snap); err != nil {
		s.log.Warn("metrics write failed", "err", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	doc := s.board.Status()
	if s.profiler.Enabled() {
		doc.StageSeconds = s.profiler.StageSeconds()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := writeIndentedJSON(w, doc); err != nil {
		s.log.Warn("statusz write failed", "err", err)
	}
}

// writeIndentedJSON is the shared two-space-indented document
// encoding of the JSON endpoints.
func writeIndentedJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// profileDoc is the /profilez JSON document: the live span profiler's
// per-stage totals, span accounting and configuration. `?format=chrome`
// streams the span timelines as a Chrome trace instead.
type profileDoc struct {
	Schema  string            `json:"schema"`
	Enabled bool              `json:"enabled"`
	Lanes   int               `json:"lanes,omitempty"`
	Spans   int               `json:"spans,omitempty"`
	Dropped int64             `json:"dropped,omitempty"`
	Stages  []prof.StageTotal `json:"stages,omitempty"`
}

// ProfileSchema identifies the /profilez document format.
const ProfileSchema = "isacmp/profilez/v1"

func (s *Server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Disposition", "attachment; filename=\"profile-trace.json\"")
		if err := s.profiler.WriteChromeTrace(w); err != nil {
			s.log.Warn("profilez trace write failed", "err", err)
		}
		return
	}
	doc := profileDoc{
		Schema:  ProfileSchema,
		Enabled: s.profiler.Enabled(),
		Lanes:   s.profiler.Lanes(),
		Spans:   len(s.profiler.Spans()),
		Dropped: s.profiler.Dropped(),
		Stages:  s.profiler.StageTotals(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		s.log.Warn("profilez write failed", "err", err)
	}
}

// handleEvents streams cell lifecycle transitions as server-sent
// events: one `data: {json}` frame per transition. The handler
// returns when the client disconnects or the server shuts down, so
// open streams never block Close.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch := s.board.Subscribe()
	if ch == nil {
		http.Error(w, "no status board", http.StatusNotFound)
		return
	}
	defer s.board.Unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		case ev := <-ch:
			payload, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

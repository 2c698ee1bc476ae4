// Package server runs the Ferret toolkit's command-line query interface
// (paper §4.1.4) over TCP: one goroutine per connection, one request line
// per response. The core components and the data-type specific algorithm
// implementations are linked into this single concurrent program, while
// clients (web interface, scripts, evaluation tools) connect remotely.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/protocol"
	"ferret/internal/telemetry"
	"ferret/internal/telemetry/trace"
)

// ExtractFunc is the plug-in segmentation and feature extraction entry
// point (the paper's seg_extract_func): it converts a data file into a
// Ferret object.
type ExtractFunc func(path string) (object.Object, error)

// Server dispatches protocol requests against a core engine.
type Server struct {
	Engine *core.Engine
	// Extract handles QUERYFILE and ADDFILE; nil disables them.
	Extract ExtractFunc
	// DefaultK is the result count when the client does not pass k.
	DefaultK int
	// QueryBudget, when positive, is the per-query time budget: a query
	// whose budget expires mid-rank answers with its best results so far,
	// flagged degraded (see core.QueryOptions.Budget). Clients may request
	// a tighter budget per query (budget=...), never a looser one.
	QueryBudget time.Duration
	// Proto selects the wire protocols the server speaks: "" or "v2"
	// accepts binary-protocol upgrades (HELLO proto=v2), "text" refuses
	// them and keeps every connection on the text protocol.
	Proto string
	// MaxConns, when positive, caps concurrent client connections; excess
	// connections are answered with a single BUSY error and closed
	// (ferret_conns_shed_total counts them).
	MaxConns int
	// ReadTimeout, when positive, bounds the wait for each request line —
	// an idle-connection timeout.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each response write.
	WriteTimeout time.Duration
	// Telemetry is the registry the server records request metrics into.
	// nil uses the engine's registry, so one /metrics endpoint covers both
	// the serving layer and the query pipeline.
	Telemetry *telemetry.Registry
	// Logger, when set, logs connection lifecycle events.
	Logger *telemetry.Logger

	metOnce sync.Once
	met     *serverMetrics

	// draining tells connection handlers to close after the in-flight
	// request instead of reading another (set by Shutdown).
	draining atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	closed   bool
	// queryCancel aborts every in-flight query's context; Shutdown fires it
	// when the drain grace expires so handlers unwind promptly instead of
	// finishing arbitrarily long scans against a closed connection.
	queryCtx    context.Context
	queryCancel context.CancelFunc
}

// connState tracks one client connection; busy is true while a request is
// being dispatched, so Shutdown can tell in-flight work from idle
// connections. tr is the connection's trace recording buffer: one request is
// in flight at a time per connection, so traced requests arm it in place and
// tracing adds no per-request allocation to the serving layer.
type connState struct {
	conn net.Conn
	busy atomic.Bool
	tr   trace.Active
}

// serverMetrics are the serving layer's telemetry handles: per-command
// request counters, transport byte counters, error counts, and gauges for
// in-flight work.
type serverMetrics struct {
	reg          *telemetry.Registry
	requests     map[string]*telemetry.Counter // ferret_server_requests_total{cmd=...}
	unknown      *telemetry.Counter            // ferret_server_unknown_requests_total
	errors       *telemetry.Counter            // ferret_server_errors_total
	bytesRead    *telemetry.Counter            // ferret_server_read_bytes_total
	bytesWritten *telemetry.Counter            // ferret_server_written_bytes_total
	inflight     *telemetry.Gauge              // ferret_server_inflight_requests
	conns        *telemetry.Gauge              // ferret_server_connections
	connsTotal   *telemetry.Counter            // ferret_server_connections_total
	shed         *telemetry.Counter            // ferret_conns_shed_total
	latency      *telemetry.Histogram          // ferret_server_request_seconds
	v2Conns      *telemetry.Gauge              // ferret_server_v2_connections
	v2Upgrades   *telemetry.Counter            // ferret_server_v2_upgrades_total
	wireGets     *telemetry.Gauge              // ferret_wire_buf_gets_total
	wireMisses   *telemetry.Gauge              // ferret_wire_buf_misses_total
	wirePuts     *telemetry.Gauge              // ferret_wire_buf_puts_total
}

// refreshWireBuf publishes the wire-buffer pool counters into their
// telemetry gauges (called when a stats or telemetry dump is assembled).
func (m *serverMetrics) refreshWireBuf() {
	m.wireGets.Set(wireBufGets.Load())
	m.wireMisses.Set(wireBufMisses.Load())
	m.wirePuts.Set(wireBufPuts.Load())
}

// metrics lazily resolves the registry (Telemetry field, else the engine's)
// and registers the serving-layer metrics exactly once per Server.
func (s *Server) metrics() *serverMetrics {
	s.metOnce.Do(func() {
		reg := s.Telemetry
		if reg == nil && s.Engine != nil {
			reg = s.Engine.Telemetry()
		}
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		m := &serverMetrics{
			reg:          reg,
			requests:     make(map[string]*telemetry.Counter),
			unknown:      reg.Counter("ferret_server_unknown_requests_total", "Requests with an unrecognized command."),
			errors:       reg.Counter("ferret_server_errors_total", "Requests answered with an ERR response."),
			bytesRead:    reg.Counter("ferret_server_read_bytes_total", "Protocol bytes read from clients."),
			bytesWritten: reg.Counter("ferret_server_written_bytes_total", "Protocol bytes written to clients."),
			inflight:     reg.Gauge("ferret_server_inflight_requests", "Requests currently being dispatched."),
			conns:        reg.Gauge("ferret_server_connections", "Open client connections."),
			connsTotal:   reg.Counter("ferret_server_connections_total", "Client connections accepted."),
			shed:         reg.Counter("ferret_conns_shed_total", "Connections refused with BUSY at the connection limit."),
			latency:      reg.Histogram("ferret_server_request_seconds", "Protocol request latency in seconds.", nil),
			v2Conns:      reg.Gauge("ferret_server_v2_connections", "Open connections speaking the binary protocol v2."),
			v2Upgrades:   reg.Counter("ferret_server_v2_upgrades_total", "Successful HELLO proto=v2 negotiations."),
			wireGets:     reg.Gauge("ferret_wire_buf_gets_total", "Wire buffers drawn from the size-class pools."),
			wireMisses:   reg.Gauge("ferret_wire_buf_misses_total", "Wire-buffer gets that had to allocate."),
			wirePuts:     reg.Gauge("ferret_wire_buf_puts_total", "Wire buffers returned to the size-class pools."),
		}
		for _, cmd := range []string{
			protocol.CmdPing, protocol.CmdCount, protocol.CmdQuery,
			protocol.CmdBatchQuery, protocol.CmdQueryFile, protocol.CmdAddFile,
			protocol.CmdSearch, protocol.CmdInfo, protocol.CmdStats,
			protocol.CmdTelemetry, protocol.CmdDelete, protocol.CmdTrace,
		} {
			m.requests[cmd] = reg.Counter("ferret_server_requests_total", "Protocol requests dispatched, by command.", "cmd", cmd)
		}
		s.met = m
	})
	return s.met
}

// countingWriter publishes everything written through it to a byte counter.
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(n)
	return n, err
}

// errBusy is the polite shed response at the connection limit. The BUSY
// marker is load-bearing: clients (evaltool's retry loop) treat it as
// transient and back off instead of failing the run.
var errBusy = errors.New("BUSY: server at connection limit, retry later")

// errIngestBusy is the bounded ingest queue's shed response. Same BUSY
// marker as the connection limit: transient, back off and retry.
var errIngestBusy = errors.New("BUSY: ingest queue full, retry later")

// errPoisoned is the wire form of a poisoned metadata store: a failed fsync
// made durability unknowable, so every further mutation is rejected until
// the process restarts and recovery replays the committed prefix. The
// "poisoned" marker is distinct from BUSY on purpose — retrying cannot
// help, an operator has to intervene.
var errPoisoned = errors.New("poisoned: metadata store rejects writes after a failed sync, restart to recover")

// mutationErr maps engine write-path failures to their wire forms; other
// errors pass through unchanged.
func mutationErr(err error) error {
	switch {
	case errors.Is(err, kvstore.ErrPoisoned):
		return errPoisoned
	case errors.Is(err, core.ErrOverloaded):
		return errIngestBusy
	}
	return err
}

// Serve accepts connections on l until ctx is cancelled or Shutdown/Close
// is called. It always returns a non-nil error (net.ErrClosed after a clean
// shutdown). In-flight queries run under a context derived from ctx's
// values but cancelled only by Shutdown's grace expiry, so a cancelled ctx
// stops accepting without aborting work mid-drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	if s.queryCtx == nil {
		s.queryCtx, s.queryCancel = context.WithCancel(context.WithoutCancel(ctx))
	}
	qctx := s.queryCtx
	s.mu.Unlock()
	unwatch := context.AfterFunc(ctx, func() { l.Close() })
	defer unwatch()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			s.shedConn(conn)
			continue
		}
		st := &connState{conn: conn}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(qctx, st)
		}()
	}
}

// shedConn answers one over-limit connection with BUSY and closes it.
func (s *Server) shedConn(conn net.Conn) {
	met := s.metrics()
	met.shed.Inc()
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	protocol.WriteError(conn, errBusy)
	conn.Close()
	s.Logger.Warn("connection shed: at connection limit",
		"remote", conn.RemoteAddr().String(), "max_conns", s.MaxConns)
}

// Close stops accepting and closes all active connections immediately
// (zero-grace Shutdown).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// Shutdown stops accepting and drains: idle connections close immediately,
// while connections with a request in flight get until ctx expires to
// finish it. On grace expiry the remaining queries' contexts are cancelled
// and their connections closed. It reports how many busy connections
// drained cleanly versus were aborted, and ctx's error when the grace
// expired. Safe to call concurrently with Serve; subsequent calls are
// no-ops.
func (s *Server) Shutdown(ctx context.Context) (drained, aborted int, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return 0, 0, nil
	}
	s.closed = true
	s.draining.Store(true)
	if s.listener != nil {
		s.listener.Close()
	}
	var busy []*connState
	for c, st := range s.conns {
		if st.busy.Load() {
			busy = append(busy, st)
		} else {
			// Idle: no request in flight, nothing to lose.
			c.Close()
		}
	}
	cancelQueries := s.queryCancel
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		for _, st := range busy {
			if st.busy.Load() {
				aborted++
			}
			st.conn.Close()
		}
		if cancelQueries != nil {
			cancelQueries()
		}
		<-done
	}
	drained = len(busy) - aborted
	return drained, aborted, err
}

func (s *Server) handleConn(ctx context.Context, st *connState) {
	conn := st.conn
	met := s.metrics()
	met.conns.Add(1)
	met.connsTotal.Inc()
	s.Logger.Debug("connection opened", "remote", conn.RemoteAddr().String())
	defer func() {
		conn.Close()
		met.conns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The writer is boxed into its interface once per connection, so the
	// per-request dispatch calls don't re-box it (an allocation the binary
	// fast path's 0 allocs/op contract cannot afford).
	var w io.Writer = countingWriter{w: conn, c: met.bytesWritten}
	rd := bufio.NewReaderSize(conn, 1<<16)
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		line, err := readLine(rd)
		if err != nil {
			return
		}
		met.bytesRead.Add(len(line) + 1) // +1 for the newline
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Busy from parse to response: Shutdown counts this connection as
		// in-flight and gives it the drain grace.
		st.busy.Store(true)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if line == "HELLO" || strings.HasPrefix(line, "HELLO ") {
			upgraded, err := s.handleHello(w, line)
			st.busy.Store(false)
			if err != nil {
				return
			}
			if upgraded {
				// The reader carries over: bytes the client pipelined
				// behind the HELLO are already binary frames.
				s.serveBinary(ctx, conn, w, rd, st)
				return
			}
			if s.draining.Load() {
				return
			}
			continue
		}
		err = s.handleLine(ctx, w, st, line)
		st.busy.Store(false)
		if err != nil {
			return // transport error: drop the connection
		}
		if s.draining.Load() {
			return // finish the drained request, then hang up
		}
	}
}

// maxLineBytes bounds one text request line (the old Scanner buffer limit).
const maxLineBytes = 1 << 20

// readLine reads one newline-terminated request line, enforcing the length
// cap without unbounded buffering. A final unterminated line before EOF is
// still returned (Scanner semantics).
func readLine(rd *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := rd.ReadSlice('\n')
		if long == nil && err == nil {
			return string(frag[:len(frag)-1]), nil // common case: one read
		}
		long = append(long, frag...)
		if len(long) > maxLineBytes {
			return "", errors.New("server: request line too long")
		}
		switch err {
		case nil:
			return string(long[:len(long)-1]), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(long) > 0 {
				return string(long), nil
			}
			return "", io.EOF
		default:
			return "", err
		}
	}
}

// handleHello answers a HELLO negotiation line: accepting (proto=v2 on a
// v2-speaking server) writes the confirming pairs response and reports
// upgraded; refusals write ERR and leave the connection on the text
// protocol. The returned error is a transport error.
func (s *Server) handleHello(w io.Writer, line string) (bool, error) {
	req, err := protocol.ParseRequest(line)
	if err != nil {
		return false, s.writeErr(w, err)
	}
	if proto := req.Args["proto"]; proto != protocol.HelloV2Value {
		return false, s.writeErr(w, fmt.Errorf("unsupported protocol %q", proto))
	}
	if s.Proto == "text" {
		return false, s.writeErr(w, errors.New("binary protocol disabled on this server"))
	}
	if err := protocol.WritePairs(w, map[string]string{"proto": protocol.HelloV2Value}); err != nil {
		return false, err
	}
	s.metrics().v2Upgrades.Inc()
	return true, nil
}

// handleLine parses and dispatches one request line, writing exactly one
// response. The returned error is a transport error. The parse timestamp is
// taken before ParseRequest so a traced query's first span covers protocol
// parsing.
func (s *Server) handleLine(ctx context.Context, w io.Writer, st *connState, line string) error {
	parseStart := time.Now()
	req, err := protocol.ParseRequest(line)
	if err != nil {
		return s.writeErr(w, err)
	}
	return s.dispatch(ctx, w, st, req, parseStart)
}

// writeErr answers a request-level failure with an ERR response, counting
// it in the serving-layer error counter.
func (s *Server) writeErr(w io.Writer, err error) error {
	s.metrics().errors.Inc()
	return protocol.WriteError(w, err)
}

// dispatch handles one request, writing exactly one response. The returned
// error is a transport error; request-level failures become ERR responses.
// Every request is counted by command, gauged while in flight, and timed
// into the server latency histogram. ctx cancels in-flight queries (fired
// by Shutdown when the drain grace expires).
func (s *Server) dispatch(ctx context.Context, w io.Writer, st *connState, req protocol.Request, parseStart time.Time) error {
	met := s.metrics()
	if c, ok := met.requests[req.Cmd]; ok {
		c.Inc()
	} else {
		met.unknown.Inc()
	}
	met.inflight.Add(1)
	start := time.Now()
	defer func() {
		met.inflight.Add(-1)
		met.latency.ObserveSince(start)
	}()

	switch req.Cmd {
	case protocol.CmdPing:
		return protocol.WriteResults(w, nil)

	case protocol.CmdCount:
		return protocol.WritePairs(w, map[string]string{"count": strconv.Itoa(s.Engine.Count())})

	case protocol.CmdQuery:
		key := req.Args["key"]
		id, ok := s.Engine.Meta().LookupKey(key)
		if !ok {
			return s.writeErr(w, fmt.Errorf("unknown object key %q", key))
		}
		opt, err := s.queryOptions(req)
		if err != nil {
			return s.writeErr(w, err)
		}
		tr, err := s.armTrace(req, st, parseStart)
		if err != nil {
			return s.writeErr(w, err)
		}
		// Safety net for the error returns below; writeAnswer's Finish (after
		// the write span) disarms the trace, making this a no-op.
		defer tr.Finish()
		opt.Trace = tr
		var ans core.Answer
		if sw := req.Args["segweights"]; sw != "" {
			// Adjusted feature-vector weights (paper §4.1.4): rebuild the
			// query object with scaled segment weights.
			o, ok := s.Engine.Meta().GetObject(id)
			if !ok {
				return s.writeErr(w, errors.New("segweights requires stored feature vectors"))
			}
			if err := reweight(&o, sw); err != nil {
				return s.writeErr(w, err)
			}
			ans, err = s.Engine.Search(ctx, o, opt)
		} else {
			ans, err = s.Engine.SearchByID(ctx, id, opt)
		}
		if err != nil {
			return s.writeErr(w, err)
		}
		return writeAnswer(w, ans, tr)

	case protocol.CmdBatchQuery:
		return s.dispatchBatch(ctx, w, req)

	case protocol.CmdQueryFile:
		if s.Extract == nil {
			return s.writeErr(w, errors.New("no extractor plugged in"))
		}
		o, err := s.Extract(req.Args["path"])
		if err != nil {
			return s.writeErr(w, err)
		}
		if sw := req.Args["segweights"]; sw != "" {
			if err := reweight(&o, sw); err != nil {
				return s.writeErr(w, err)
			}
		}
		opt, err := s.queryOptions(req)
		if err != nil {
			return s.writeErr(w, err)
		}
		tr, err := s.armTrace(req, st, parseStart)
		if err != nil {
			return s.writeErr(w, err)
		}
		defer tr.Finish()
		opt.Trace = tr
		ans, err := s.Engine.Search(ctx, o, opt)
		if err != nil {
			return s.writeErr(w, err)
		}
		return writeAnswer(w, ans, tr)

	case protocol.CmdAddFile:
		if s.Extract == nil {
			return s.writeErr(w, errors.New("no extractor plugged in"))
		}
		o, err := s.Extract(req.Args["path"])
		if err != nil {
			return s.writeErr(w, err)
		}
		attrs := attrArgs(req)
		// Through the bounded ingest queue when one is configured: a full
		// queue blocks this handler (backpressure) or sheds with BUSY.
		if _, err := s.Engine.IngestQueued(ctx, o, attrs); err != nil {
			return s.writeErr(w, mutationErr(err))
		}
		return protocol.WriteResults(w, nil)

	case protocol.CmdSearch:
		q := attr.Query{Equal: attrArgs(req)}
		if kw := req.Args["keywords"]; kw != "" {
			q.Keywords = strings.Split(kw, ",")
		}
		if len(q.Keywords) == 0 && len(q.Equal) == 0 {
			return s.writeErr(w, errors.New("SEARCH needs keywords or attributes"))
		}
		ids := s.Engine.Attrs().Search(q)
		out := make([]protocol.Result, 0, len(ids))
		for _, id := range ids {
			out = append(out, protocol.Result{Key: s.Engine.Meta().Key(id)})
		}
		return protocol.WriteResults(w, out)

	case protocol.CmdStats:
		return protocol.WritePairs(w, s.statsPairs())

	case protocol.CmdTelemetry:
		// Full telemetry dump: every registered series as flat name=value
		// pairs, covering both the query pipeline and the serving layer.
		met.refreshWireBuf()
		pairs := map[string]string{}
		regs := []*telemetry.Registry{met.reg}
		if er := s.Engine.Telemetry(); er != met.reg {
			regs = append(regs, er)
		}
		for _, reg := range regs {
			reg.Each(func(name string, v float64) { pairs[name] = formatMetric(v) })
		}
		return protocol.WritePairs(w, pairs)

	case protocol.CmdDelete:
		id, ok := s.Engine.Meta().LookupKey(req.Args["key"])
		if !ok {
			return s.writeErr(w, fmt.Errorf("unknown object key %q", req.Args["key"]))
		}
		if err := s.Engine.Delete(id); err != nil {
			return s.writeErr(w, mutationErr(err))
		}
		return protocol.WriteResults(w, nil)

	case protocol.CmdTrace:
		return s.dispatchTrace(w, req)

	case protocol.CmdInfo:
		id, ok := s.Engine.Meta().LookupKey(req.Args["key"])
		if !ok {
			return s.writeErr(w, fmt.Errorf("unknown object key %q", req.Args["key"]))
		}
		attrs, _ := s.Engine.Attrs().Get(id)
		pairs := map[string]string{"key": req.Args["key"], "id": strconv.FormatUint(uint64(id), 10)}
		for k, v := range attrs {
			pairs["attr:"+k] = v
		}
		return protocol.WritePairs(w, pairs)

	default:
		return s.writeErr(w, fmt.Errorf("unknown command %q", req.Cmd))
	}
}

// statsPairs assembles the STATS response: structural engine statistics,
// headline pipeline counters, result-cache health and serving-protocol
// health (shared by the text and binary dispatchers).
func (s *Server) statsPairs() map[string]string {
	met := s.metrics()
	st := s.Engine.Stat()
	pairs := map[string]string{
		"objects":          strconv.Itoa(st.Objects),
		"deleted":          strconv.Itoa(st.Deleted),
		"segments":         strconv.Itoa(st.Segments),
		"sketch_bits":      strconv.Itoa(st.SketchBits),
		"sketch_bytes":     strconv.Itoa(st.SketchBytes),
		"indexed_segments": strconv.Itoa(st.IndexedSegments),
		"hindex_tables":    strconv.Itoa(st.HIndexTables),
		"hindex_load":      strconv.FormatFloat(st.HIndexLoad, 'f', 3, 64),
	}
	// Telemetry extension: headline pipeline counters and latency
	// percentiles ride along with the structural statistics — the result
	// cache's hit/miss/invalidation health included.
	reg := s.Engine.Telemetry()
	for flat, name := range map[string]string{
		"queries_total":                  "ferret_query_total",
		"query_errors_total":             "ferret_query_errors_total",
		"ingests_total":                  "ferret_ingest_total",
		"deletes_total":                  "ferret_delete_total",
		"inflight_queries":               "ferret_inflight_queries",
		"candidates_total":               "ferret_filter_candidates_total",
		"query_p50_seconds":              "ferret_query_seconds_p50",
		"query_p99_seconds":              "ferret_query_seconds_p99",
		"result_cache_hits_total":        "ferret_result_cache_hits_total",
		"result_cache_misses_total":      "ferret_result_cache_misses_total",
		"result_cache_invalidated_total": "ferret_result_cache_invalidated_total",
		"result_cache_evictions_total":   "ferret_result_cache_evictions_total",
		"result_cache_entries":           "ferret_result_cache_entries",
		"result_cache_bytes":             "ferret_result_cache_bytes",
	} {
		pairs[flat] = formatMetric(reg.Value(name))
	}
	// The index's candidate-reduction ratio: rows verified per row an
	// unindexed scan would have streamed, over all served probes.
	if base := reg.Value("ferret_hindex_baseline_rows_total"); base > 0 {
		pairs["hindex_candidate_ratio"] = formatMetric(reg.Value("ferret_hindex_candidates_total") / base)
	}
	// Serving-protocol health: binary-protocol adoption and wire-buffer
	// pool effectiveness.
	met.refreshWireBuf()
	pairs["v2_connections"] = strconv.FormatInt(met.v2Conns.Value(), 10)
	pairs["v2_upgrades_total"] = strconv.FormatUint(met.v2Upgrades.Value(), 10)
	pairs["wire_buf_gets_total"] = strconv.FormatInt(wireBufGets.Load(), 10)
	pairs["wire_buf_misses_total"] = strconv.FormatInt(wireBufMisses.Load(), 10)
	pairs["wire_buf_puts_total"] = strconv.FormatInt(wireBufPuts.Load(), 10)
	return pairs
}

// armTrace arms the connection's trace recording buffer when the request
// asked for tracing. trace=on|1|new mints a fresh trace ID; any other value
// is a propagated trace ID to adopt, so a caller that spans several systems
// can stitch the query into its own trace. Traced requests are always
// retained (forced), and the protocol parse is backfilled as the first span.
// Returns nil with no error for untraced requests.
func (s *Server) armTrace(req protocol.Request, st *connState, parseStart time.Time) (*trace.Active, error) {
	v := req.Args["trace"]
	if v == "" {
		return nil, nil
	}
	tracer := s.Engine.Tracer()
	if tracer == nil {
		return nil, errors.New("tracing disabled on this server")
	}
	var id trace.TraceID
	switch v {
	case "on", "1", "new":
		// Fresh ID (BeginWith allocates one for 0).
	default:
		pid, err := trace.ParseTraceID(v)
		if err != nil {
			return nil, err
		}
		id = pid
	}
	tracer.BeginWith(&st.tr, strings.ToLower(req.Cmd), id, true)
	st.tr.Record("parse", parseStart, time.Since(parseStart))
	return &st.tr, nil
}

// stageTimings converts aggregated trace stages to their wire form.
func stageTimings(stages []trace.Stage) []protocol.StageTiming {
	out := make([]protocol.StageTiming, len(stages))
	for i, st := range stages {
		out[i] = protocol.StageTiming{Name: st.Name, Dur: int64(st.Dur)}
	}
	return out
}

// dispatchTrace answers the TRACE command from the tracer's retained rings
// as compact one-line renderings, newest first: recent<i> from the sampled
// ring and slow<i> from the slow-query log. Args: n caps each list (default
// 10), slow=1 restricts the answer to the slow-query log, id=<hex> looks up
// one retained trace (key trace0).
func (s *Server) dispatchTrace(w io.Writer, req protocol.Request) error {
	n := 0
	if v := req.Args["n"]; v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			return s.writeErr(w, fmt.Errorf("bad n %q", v))
		}
		n = k
	}
	pairs, err := s.tracePairs(n, req.Args["slow"] != "", req.Args["id"])
	if err != nil {
		return s.writeErr(w, err)
	}
	return protocol.WritePairs(w, pairs)
}

// tracePairs assembles a TRACE answer (shared by the text and binary
// dispatchers): one retained trace by ID, or the newest-first recent and
// slow lists capped at n (default 10).
func (s *Server) tracePairs(n int, slowOnly bool, id string) (map[string]string, error) {
	tracer := s.Engine.Tracer()
	if tracer == nil {
		return nil, errors.New("tracing disabled on this server")
	}
	if id != "" {
		tid, err := trace.ParseTraceID(id)
		if err != nil {
			return nil, err
		}
		tr := tracer.Find(tid)
		if tr == nil {
			return nil, fmt.Errorf("trace %s not retained", tid)
		}
		return map[string]string{"trace0": tr.Compact()}, nil
	}
	if n <= 0 {
		n = 10
	}
	pairs := map[string]string{}
	add := func(prefix string, traces []*trace.Trace) {
		for i, tr := range traces {
			if i >= n {
				break
			}
			pairs[prefix+strconv.Itoa(i)] = tr.Compact()
		}
	}
	add("slow", tracer.Slow())
	if !slowOnly {
		add("recent", tracer.Recent())
	}
	return pairs, nil
}

// maxBatchKeys caps one BATCHQUERY request, keeping a single request line's
// work (and its response) bounded.
const maxBatchKeys = 256

// dispatchBatch handles BATCHQUERY: n indexed keys (key0..key{n-1}) sharing
// one set of query parameters, each answered exactly as QUERY would answer
// it. Per-key failures (unknown key, missing feature vectors) are reported
// inside their group without failing the rest of the batch.
func (s *Server) dispatchBatch(ctx context.Context, w io.Writer, req protocol.Request) error {
	n, err := strconv.Atoi(req.Args["n"])
	if err != nil || n <= 0 || n > maxBatchKeys {
		return s.writeErr(w, fmt.Errorf("bad batch size %q (1..%d)", req.Args["n"], maxBatchKeys))
	}
	opt, err := s.queryOptions(req)
	if err != nil {
		return s.writeErr(w, err)
	}
	// Tracing a batch: each query gets its own engine-armed, force-retained
	// trace, and its group's flags carry the trace ID and stage breakdown.
	if req.Args["trace"] != "" {
		if s.Engine.Tracer() == nil {
			return s.writeErr(w, errors.New("tracing disabled on this server"))
		}
		opt.ForceTrace = true
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		key, ok := req.Args["key"+strconv.Itoa(i)]
		if !ok {
			return s.writeErr(w, fmt.Errorf("batch of %d is missing key%d", n, i))
		}
		keys[i] = key
	}
	return protocol.WriteBatch(w, s.runBatch(ctx, keys, opt))
}

// runBatch answers one batch of keys, one SearchByID per key (shared by
// the text and binary dispatchers). Per-key failures are reported inside
// their group without failing the rest.
func (s *Server) runBatch(ctx context.Context, keys []string, opt core.QueryOptions) []protocol.BatchItem {
	items := make([]protocol.BatchItem, len(keys))
	for i, key := range keys {
		id, ok := s.Engine.Meta().LookupKey(key)
		if !ok {
			items[i].Err = fmt.Sprintf("unknown object key %q", key)
			continue
		}
		ans, err := s.Engine.SearchByID(ctx, id, opt)
		if err != nil {
			items[i].Err = err.Error()
			continue
		}
		items[i] = answerItem(ans)
	}
	return items
}

// answerItem converts one engine answer into a batch response group.
func answerItem(ans core.Answer) protocol.BatchItem {
	it := protocol.BatchItem{
		Results: make([]protocol.Result, len(ans.Results)),
		Meta:    protocol.ResponseMeta{Degraded: ans.Degraded, Mode: ans.FilterMode, Cache: ans.Cache},
	}
	if ans.Trace != nil {
		it.Meta.TraceID = ans.Trace.ID
		it.Meta.Stages = stageTimings(ans.Trace.Stages)
	}
	for i, r := range ans.Results {
		it.Results[i] = protocol.Result{Key: r.Key, Distance: r.Distance}
	}
	return it
}

// formatMetric renders a telemetry value for a protocol response: integers
// without a decimal point, fractional values in compact float form. The
// integerness test is the explicit math.Trunc idiom guarded to the int64
// range — the previous v == float64(int64(v)) form hit the spec's
// implementation-defined behavior for conversions of out-of-range floats.
func formatMetric(v float64) string {
	if math.Trunc(v) == v && math.Abs(v) < 1<<62 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// queryOptions translates protocol arguments into engine query options,
// resolving the attribute restriction into an ID set.
func (s *Server) queryOptions(req protocol.Request) (core.QueryOptions, error) {
	opt := core.QueryOptions{K: s.DefaultK}
	if v := req.Args["k"]; v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			return opt, fmt.Errorf("bad k %q", v)
		}
		opt.K = k
	}
	switch strings.ToLower(req.Args["mode"]) {
	case "", "filtering", "filter":
		opt.Mode = core.Filtering
	case "bruteforce", "original":
		opt.Mode = core.BruteForceOriginal
	case "sketch", "bruteforcesketch":
		opt.Mode = core.BruteForceSketch
	default:
		return opt, fmt.Errorf("unknown mode %q", req.Args["mode"])
	}
	// Per-query time budget: the server's configured budget, optionally
	// tightened (never loosened) by the client.
	opt.Budget = s.QueryBudget
	if v := req.Args["budget"]; v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return opt, fmt.Errorf("bad budget %q", v)
		}
		if s.QueryBudget <= 0 || d < s.QueryBudget {
			opt.Budget = d
		}
	}
	// Attribute restriction: run the attribute search first and restrict
	// the similarity scan to its matches (paper §4.1.2).
	q := attr.Query{Equal: attrArgs(req)}
	if kw := req.Args["keywords"]; kw != "" {
		q.Keywords = strings.Split(kw, ",")
	}
	if len(q.Keywords) > 0 || len(q.Equal) > 0 {
		opt.Restrict = map[object.ID]bool{}
		for _, id := range s.Engine.Attrs().Search(q) {
			opt.Restrict[id] = true
		}
	}
	return opt, nil
}

// reweight scales the query object's segment weights by the comma-separated
// factors in spec (the command-line interface's "adjusted weights for
// feature vectors", §4.1.4). Fewer factors than segments scale a prefix;
// weights are renormalized afterwards.
func reweight(o *object.Object, spec string) error {
	factors := strings.Split(spec, ",")
	if len(factors) > len(o.Segments) {
		return fmt.Errorf("segweights has %d factors for %d segments", len(factors), len(o.Segments))
	}
	for i, f := range factors {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
		if err != nil || v < 0 {
			return fmt.Errorf("bad segment weight factor %q", f)
		}
		o.Segments[i].Weight *= float32(v)
	}
	o.NormalizeWeights()
	if err := o.Validate(); err != nil {
		return fmt.Errorf("adjusted weights produce invalid object: %v", err)
	}
	return nil
}

// attrArgs extracts attr:<name>=<value> arguments.
func attrArgs(req protocol.Request) attr.Attrs {
	var out attr.Attrs
	for k, v := range req.Args {
		if name, ok := strings.CutPrefix(k, "attr:"); ok {
			if out == nil {
				out = attr.Attrs{}
			}
			out[name] = v
		}
	}
	return out
}

// writeAnswer writes one query answer, encoding the text response straight
// from the engine answer into a pooled wire buffer — no intermediate result
// slice, no per-response bufio.Writer — and writing it in one call. For a
// traced request the head-line flags carry the trace ID and the aggregated
// stage breakdown, the response write itself is recorded as a span (visible
// in the retained trace, not in the inline breakdown — it can't time itself
// into the bytes it produces), and the trace is finished, applying
// retention.
func writeAnswer(w io.Writer, ans core.Answer, tr *trace.Active) error {
	est := 64
	for i := range ans.Results {
		est += len(ans.Results[i].Key) + 28
	}
	wb := getWireBuf(est)
	b := append(wb.b, "OK "...)
	b = strconv.AppendInt(b, int64(len(ans.Results)), 10)
	if ans.Degraded {
		b = append(b, " degraded"...)
	}
	if ans.FilterMode != "" {
		b = append(b, " mode="...)
		b = append(b, ans.FilterMode...)
	}
	if tr.Armed() {
		b = append(b, " trace="...)
		b = append(b, tr.ID().String()...)
	}
	if ans.Cache != "" {
		b = append(b, " cache="...)
		b = append(b, ans.Cache...)
	}
	if tr.Armed() {
		if stages := tr.Stages(); len(stages) > 0 {
			b = append(b, " stages="...)
			for i, st := range stages {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, st.Name...)
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(st.Dur), 10)
			}
		}
	}
	b = append(b, '\n')
	for i := range ans.Results {
		b = protocol.AppendMaybeQuote(b, ans.Results[i].Key)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, ans.Results[i].Distance, 'g', -1, 64)
		b = append(b, '\n')
	}
	ws := time.Now()
	_, err := w.Write(b)
	tr.Record("write", ws, time.Since(ws))
	tr.Finish()
	wb.b = b
	putWireBuf(wb)
	return err
}

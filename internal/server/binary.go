package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"ferret/internal/attr"
	"ferret/internal/core"
	"ferret/internal/protocol"
	"ferret/internal/telemetry/trace"
)

// The binary protocol v2 serving loop (see internal/protocol/binary.go for
// the wire format). A connection enters it through a successful
// "HELLO proto=v2" negotiation on the text protocol; from then on both
// directions are length-prefixed frames. The QUERY fast path is the
// serving layer's zero-copy contract: the key is resolved straight out of
// the request frame, a result-cache hit is encoded straight from the
// cached answer into a pooled wire buffer, and the response leaves in one
// write — zero heap allocations per request at steady state
// (TestServePathAllocs).

// serveBinary runs the connection's binary loop. The frame read buffer is
// reused across requests; w is the connection's byte-counting writer.
func (s *Server) serveBinary(ctx context.Context, conn net.Conn, w io.Writer, rd *bufio.Reader, st *connState) {
	met := s.metrics()
	met.v2Conns.Add(1)
	defer met.v2Conns.Add(-1)
	var fbuf []byte
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		op, payload, buf, err := protocol.ReadFrame(rd, fbuf)
		fbuf = buf
		if err != nil {
			return
		}
		met.bytesRead.Add(len(fbuf) + 4)
		st.busy.Store(true)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		err = s.handleFrame(ctx, w, st, op, payload)
		st.busy.Store(false)
		if err != nil {
			return
		}
		if s.draining.Load() {
			return
		}
	}
}

// opCommand maps a request opcode to its text-protocol command name for
// the shared per-command request counters.
func opCommand(op byte) string {
	switch op {
	case protocol.OpQuery:
		return protocol.CmdQuery
	case protocol.OpBatchQuery:
		return protocol.CmdBatchQuery
	case protocol.OpIngest:
		return protocol.CmdAddFile
	case protocol.OpStats:
		return protocol.CmdStats
	case protocol.OpTrace:
		return protocol.CmdTrace
	case protocol.OpPing:
		return protocol.CmdPing
	case protocol.OpCount:
		return protocol.CmdCount
	case protocol.OpDelete:
		return protocol.CmdDelete
	}
	return ""
}

// handleFrame dispatches one binary request, writing exactly one response
// frame. The returned error is a transport error; request-level failures
// become StatusError frames. Metrics mirror the text dispatch: per-command
// counters, the in-flight gauge and the latency histogram (no deferred
// closure — the fast path stays allocation-free).
func (s *Server) handleFrame(ctx context.Context, w io.Writer, st *connState, op byte, payload []byte) error {
	if op == protocol.OpText {
		// The tunnel carries a full text command line; the text dispatcher
		// does its own request accounting.
		return s.binText(ctx, w, st, payload)
	}
	met := s.metrics()
	if c, ok := met.requests[opCommand(op)]; ok {
		c.Inc()
	} else {
		met.unknown.Inc()
	}
	met.inflight.Add(1)
	start := time.Now()
	err := s.dispatchFrame(ctx, w, st, op, payload)
	met.inflight.Add(-1)
	met.latency.ObserveSince(start)
	return err
}

func (s *Server) dispatchFrame(ctx context.Context, w io.Writer, st *connState, op byte, payload []byte) error {
	switch op {
	case protocol.OpPing:
		return writeBinPairs(w, nil)

	case protocol.OpCount:
		return writeBinPairs(w, map[string]string{"count": strconv.Itoa(s.Engine.Count())})

	case protocol.OpQuery:
		return s.binQuery(ctx, w, st, payload)

	case protocol.OpBatchQuery:
		return s.binBatch(ctx, w, payload)

	case protocol.OpIngest:
		return s.binIngest(ctx, w, payload)

	case protocol.OpStats:
		return writeBinPairs(w, s.statsPairs())

	case protocol.OpTrace:
		r := protocol.NewBinReader(payload)
		n := r.U16()
		slow := r.U8()
		id := string(r.Bytes16())
		if r.Err() != nil {
			return s.binErr(w, protocol.ErrShortFrame)
		}
		pairs, err := s.tracePairs(n, slow != 0, id)
		if err != nil {
			return s.binErr(w, err)
		}
		return writeBinPairs(w, pairs)

	case protocol.OpDelete:
		r := protocol.NewBinReader(payload)
		key := r.Bytes16()
		if r.Err() != nil {
			return s.binErr(w, protocol.ErrShortFrame)
		}
		id, ok := s.Engine.Meta().LookupKeyBytes(key)
		if !ok {
			return s.binErr(w, fmt.Errorf("unknown object key %q", key))
		}
		if err := s.Engine.Delete(id); err != nil {
			return s.binErr(w, mutationErr(err))
		}
		return writeBinPairs(w, nil)

	default:
		return s.binErr(w, fmt.Errorf("unknown opcode 0x%02x", op))
	}
}

// binQueryOptions resolves the shared option tail of OpQuery/OpBatchQuery:
// result count, mode, and the budget (the server's configured budget,
// optionally tightened — never loosened — by the client).
func (s *Server) binQueryOptions(k int, mode []byte, budget uint64) (core.QueryOptions, error) {
	opt := core.QueryOptions{K: s.DefaultK}
	if k > 0 {
		opt.K = k
	}
	m, ok := parseModeBytes(mode)
	if !ok {
		m, ok = parseModeBytes([]byte(strings.ToLower(string(mode))))
		if !ok {
			return opt, fmt.Errorf("unknown mode %q", mode)
		}
	}
	opt.Mode = m
	opt.Budget = s.QueryBudget
	if budget > 0 {
		d := time.Duration(budget)
		if s.QueryBudget <= 0 || d < s.QueryBudget {
			opt.Budget = d
		}
	}
	return opt, nil
}

// parseModeBytes maps a wire mode string to the engine mode without
// converting it to a heap string (the switch's string(b) conversions
// compile to allocation-free comparisons).
func parseModeBytes(b []byte) (core.Mode, bool) {
	if len(b) == 0 {
		return core.Filtering, true
	}
	switch string(b) {
	case "filtering", "filter":
		return core.Filtering, true
	case "bruteforce", "original":
		return core.BruteForceOriginal, true
	case "sketch", "bruteforcesketch":
		return core.BruteForceSketch, true
	}
	return 0, false
}

// binQuery is the zero-copy QUERY fast path: the object key is resolved
// straight out of the frame payload, and the answer — served from the
// result cache on a hit — is encoded directly into a pooled wire buffer.
func (s *Server) binQuery(ctx context.Context, w io.Writer, st *connState, payload []byte) error {
	r := protocol.NewBinReader(payload)
	key := r.Bytes16()
	k := r.U16()
	mode := r.Bytes8()
	flags := r.U8()
	budget := r.U64()
	if r.Err() != nil {
		return s.binErr(w, protocol.ErrShortFrame)
	}
	opt, err := s.binQueryOptions(k, mode, budget)
	if err != nil {
		return s.binErr(w, err)
	}
	var tr *trace.Active
	if flags&protocol.QueryFlagTrace != 0 {
		tracer := s.Engine.Tracer()
		if tracer == nil {
			return s.binErr(w, errors.New("tracing disabled on this server"))
		}
		tracer.BeginWith(&st.tr, "query", 0, true)
		tr = &st.tr
		opt.Trace = tr
	}
	id, ok := s.Engine.Meta().LookupKeyBytes(key)
	if !ok {
		tr.Finish()
		return s.binErr(w, fmt.Errorf("unknown object key %q", key))
	}
	ans, err := s.Engine.SearchByID(ctx, id, opt)
	if err != nil {
		tr.Finish()
		return s.binErr(w, err)
	}
	return s.writeBinAnswer(w, ans, tr)
}

// writeBinAnswer encodes one engine answer as a StatusResults frame in a
// pooled buffer and writes it in one call.
func (s *Server) writeBinAnswer(w io.Writer, ans core.Answer, tr *trace.Active) error {
	est := 80
	for i := range ans.Results {
		est += len(ans.Results[i].Key) + 10
	}
	wb := getWireBuf(est)
	b, start := protocol.BeginFrame(wb.b, protocol.StatusResults)
	if tr.Armed() {
		b = appendAnswer(b, ans, tr.ID().String(), tr.Stages())
	} else {
		b = appendAnswer(b, ans, "", nil)
	}
	protocol.EndFrame(b, start)
	ws := time.Now()
	_, err := w.Write(b)
	tr.Record("write", ws, time.Since(ws))
	tr.Finish()
	wb.b = b
	putWireBuf(wb)
	return err
}

// appendAnswer appends a StatusResults-shaped payload encoded straight
// from the engine answer — no intermediate result slice.
func appendAnswer(b []byte, ans core.Answer, traceID string, stages []trace.Stage) []byte {
	var flags byte
	if ans.Degraded {
		flags |= protocol.FlagDegraded
	}
	if ans.Cache != "" {
		flags |= protocol.FlagCacheSeen
		if ans.Cache == core.CacheHit {
			flags |= protocol.FlagCacheHit
		}
	}
	b = append(b, flags, protocol.FilterModeCode(ans.FilterMode))
	b = protocol.AppendStr8(b, traceID)
	ns := len(stages)
	if ns > 255 {
		ns = 255
	}
	b = append(b, byte(ns))
	for _, st := range stages[:ns] {
		b = protocol.AppendStr8(b, st.Name)
		b = protocol.AppendU64(b, uint64(st.Dur))
	}
	b = protocol.AppendU32(b, uint32(len(ans.Results)))
	for i := range ans.Results {
		b = protocol.AppendStr16(b, ans.Results[i].Key)
		b = protocol.AppendF64(b, ans.Results[i].Distance)
	}
	return b
}

// appendItem appends one batch group in the same StatusResults payload
// shape, from its already-converted wire form.
func appendItem(b []byte, it *protocol.BatchItem) []byte {
	var flags byte
	if it.Meta.Degraded {
		flags |= protocol.FlagDegraded
	}
	if it.Meta.Cache != "" {
		flags |= protocol.FlagCacheSeen
		if it.Meta.Cache == core.CacheHit {
			flags |= protocol.FlagCacheHit
		}
	}
	b = append(b, flags, protocol.FilterModeCode(it.Meta.Mode))
	b = protocol.AppendStr8(b, it.Meta.TraceID)
	ns := len(it.Meta.Stages)
	if ns > 255 {
		ns = 255
	}
	b = append(b, byte(ns))
	for _, st := range it.Meta.Stages[:ns] {
		b = protocol.AppendStr8(b, st.Name)
		b = protocol.AppendU64(b, uint64(st.Dur))
	}
	b = protocol.AppendU32(b, uint32(len(it.Results)))
	for i := range it.Results {
		b = protocol.AppendStr16(b, it.Results[i].Key)
		b = protocol.AppendF64(b, it.Results[i].Distance)
	}
	return b
}

// binBatch handles OpBatchQuery through the same per-key runBatch as the
// text BATCHQUERY, encoding each group's results directly into the
// response frame.
func (s *Server) binBatch(ctx context.Context, w io.Writer, payload []byte) error {
	r := protocol.NewBinReader(payload)
	n := r.U16()
	if n <= 0 || n > maxBatchKeys {
		return s.binErr(w, fmt.Errorf("bad batch size %d (1..%d)", n, maxBatchKeys))
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(r.Bytes16())
	}
	k := r.U16()
	mode := r.Bytes8()
	flags := r.U8()
	budget := r.U64()
	if r.Err() != nil {
		return s.binErr(w, protocol.ErrShortFrame)
	}
	opt, err := s.binQueryOptions(k, mode, budget)
	if err != nil {
		return s.binErr(w, err)
	}
	if flags&protocol.QueryFlagTrace != 0 {
		if s.Engine.Tracer() == nil {
			return s.binErr(w, errors.New("tracing disabled on this server"))
		}
		opt.ForceTrace = true
	}
	items := s.runBatch(ctx, keys, opt)

	est := 64
	for i := range items {
		est += 8 + len(items[i].Err)
		for j := range items[i].Results {
			est += len(items[i].Results[j].Key) + 10
		}
	}
	wb := getWireBuf(est)
	b, start := protocol.BeginFrame(wb.b, protocol.StatusBatch)
	b = protocol.AppendU16(b, uint16(len(items)))
	for i := range items {
		it := &items[i]
		if it.Err != "" {
			b = append(b, 1)
			b = protocol.AppendStr16(b, it.Err)
			continue
		}
		b = append(b, 0)
		lenOff := len(b)
		b = protocol.AppendU32(b, 0)
		b = appendItem(b, it)
		binary.LittleEndian.PutUint32(b[lenOff:], uint32(len(b)-lenOff-4))
	}
	protocol.EndFrame(b, start)
	_, werr := w.Write(b)
	wb.b = b
	putWireBuf(wb)
	return werr
}

// binIngest handles OpIngest: extract the file through the plug-in and
// ingest it (through the bounded queue when one is configured).
func (s *Server) binIngest(ctx context.Context, w io.Writer, payload []byte) error {
	r := protocol.NewBinReader(payload)
	path := string(r.Bytes16())
	n := r.U16()
	var attrs attr.Attrs
	for i := 0; i < n; i++ {
		k := string(r.Bytes16())
		v := string(r.Bytes16())
		if attrs == nil {
			attrs = attr.Attrs{}
		}
		attrs[k] = v
	}
	if r.Err() != nil {
		return s.binErr(w, protocol.ErrShortFrame)
	}
	if s.Extract == nil {
		return s.binErr(w, errors.New("no extractor plugged in"))
	}
	o, err := s.Extract(path)
	if err != nil {
		return s.binErr(w, err)
	}
	if _, err := s.Engine.IngestQueued(ctx, o, attrs); err != nil {
		return s.binErr(w, mutationErr(err))
	}
	return writeBinPairs(w, nil)
}

// binText handles the OpText tunnel: the payload is a complete text
// command line, dispatched through the text handler with its output
// captured into a StatusText frame.
func (s *Server) binText(ctx context.Context, w io.Writer, st *connState, payload []byte) error {
	line := strings.TrimSpace(string(payload))
	if line == "" {
		return s.binErr(w, errors.New("empty request"))
	}
	wb := getWireBuf(4096)
	b, start := protocol.BeginFrame(wb.b, protocol.StatusText)
	sw := &sliceWriter{b: b}
	if err := s.handleLine(ctx, sw, st, line); err != nil {
		// The slice writer cannot fail, so this is unreachable; keep the
		// transport-error contract anyway.
		wb.b = sw.b
		putWireBuf(wb)
		return err
	}
	b = sw.b
	protocol.EndFrame(b, start)
	_, err := w.Write(b)
	wb.b = b
	putWireBuf(wb)
	return err
}

// sliceWriter collects writes into a byte slice (the OpText capture).
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// writeBinPairs encodes a name=value map as a StatusPairs frame. A nil map
// is the binary protocol's bare OK.
func writeBinPairs(w io.Writer, pairs map[string]string) error {
	est := 8
	for k, v := range pairs {
		est += 4 + len(k) + len(v)
	}
	wb := getWireBuf(est)
	b, start := protocol.BeginFrame(wb.b, protocol.StatusPairs)
	b = protocol.AppendU16(b, uint16(len(pairs)))
	for k, v := range pairs {
		b = protocol.AppendStr16(b, k)
		b = protocol.AppendStr16(b, v)
	}
	protocol.EndFrame(b, start)
	_, err := w.Write(b)
	wb.b = b
	putWireBuf(wb)
	return err
}

// binErr answers a request-level failure with a StatusError frame,
// counting it in the serving-layer error counter.
func (s *Server) binErr(w io.Writer, err error) error {
	s.metrics().errors.Inc()
	msg := err.Error()
	wb := getWireBuf(len(msg) + 8)
	b, start := protocol.BeginFrame(wb.b, protocol.StatusError)
	b = protocol.AppendStr16(b, msg)
	protocol.EndFrame(b, start)
	_, werr := w.Write(b)
	wb.b = b
	putWireBuf(wb)
	return werr
}

package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is a command-line-protocol client used by the query tool, the web
// interface and the performance evaluation tool. It is safe for concurrent
// use (requests are serialized on the single connection).
type Client struct {
	mu      sync.Mutex
	conn    io.ReadWriteCloser
	rd      *bufio.Reader
	timeout time.Duration

	// v2 is set once the connection upgraded to the binary protocol
	// (UpgradeV2). wbuf/fbuf are the encode scratch and frame read buffer,
	// reused across requests under mu.
	v2   bool
	wbuf []byte
	fbuf []byte
}

// deadliner is the subset of net.Conn needed for per-request deadlines;
// non-network connections (pipes in tests) simply don't get them.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// Dial connects to a Ferret server at addr (host:port).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a connection-establishment timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, rd: bufio.NewReader(conn)}
}

// SetTimeout bounds each subsequent request round trip (write + response
// read). Zero (the default) means no deadline. It only takes effect on
// connections that support deadlines (net.Conn).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ProtoV2 reports whether the connection upgraded to the binary protocol.
func (c *Client) ProtoV2() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v2
}

// UpgradeV2 negotiates the binary protocol v2 on the established
// connection. On success all subsequent requests use binary frames; hot
// commands get dedicated compact encodings, everything else tunnels the
// text command line through an OpText frame. A *ServerError means the
// server doesn't speak (or refuses) v2 — the connection remains usable on
// the text protocol.
func (c *Client) UpgradeV2() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v2 {
		return nil
	}
	c.deadline()
	if _, err := io.WriteString(c.conn, HelloV2+"\n"); err != nil {
		return err
	}
	lines, _, err := ReadResponseMeta(c.rd)
	if err != nil {
		return err
	}
	for _, line := range lines {
		if line == "proto="+HelloV2Value {
			c.v2 = true
			return nil
		}
	}
	return fmt.Errorf("protocol: server accepted HELLO but did not confirm proto=%s", HelloV2Value)
}

// TryUpgradeV2 attempts UpgradeV2 and reports whether the connection is now
// binary; a server that doesn't speak v2 leaves the client on the text
// protocol without error. Transport failures are still returned.
func (c *Client) TryUpgradeV2() (bool, error) {
	err := c.UpgradeV2()
	var se *ServerError
	if errors.As(err, &se) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// deadline arms (or clears) the per-request deadline. Caller holds mu.
func (c *Client) deadline() {
	if d, ok := c.conn.(deadliner); ok {
		if c.timeout > 0 {
			d.SetDeadline(time.Now().Add(c.timeout))
		} else {
			d.SetDeadline(time.Time{})
		}
	}
}

// binRoundTrip sends one binary frame and reads the response frame. The
// returned payload aliases the client's frame buffer: it is only valid
// until the next request, so callers decode before releasing mu.
// Caller holds mu.
func (c *Client) binRoundTrip(op byte, payload []byte) (byte, []byte, error) {
	c.deadline()
	if err := WriteFrame(c.conn, op, payload); err != nil {
		return 0, nil, err
	}
	status, resp, fbuf, err := ReadFrame(c.rd, c.fbuf)
	c.fbuf = fbuf
	if err != nil {
		return 0, nil, err
	}
	if status == StatusError {
		return 0, nil, DecodeError(resp)
	}
	return status, resp, nil
}

// binPairs runs a binary round trip expecting a StatusPairs response.
func (c *Client) binPairs(op byte, payload []byte) (map[string]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, resp, err := c.binRoundTrip(op, payload)
	if err != nil {
		return nil, err
	}
	if status != StatusPairs {
		return nil, fmt.Errorf("protocol: unexpected response status 0x%02x", status)
	}
	return DecodePairs(resp)
}

// textTunnel sends a text command line through an OpText frame and parses
// the raw text response carried back in StatusText. Caller holds mu.
func (c *Client) textTunnel(line string) ([]string, ResponseMeta, error) {
	c.wbuf = append(c.wbuf[:0], line...)
	status, resp, err := c.binRoundTrip(OpText, c.wbuf)
	if err != nil {
		return nil, ResponseMeta{}, err
	}
	if status != StatusText {
		return nil, ResponseMeta{}, fmt.Errorf("protocol: unexpected response status 0x%02x", status)
	}
	return ReadResponseMeta(bufio.NewReader(bytes.NewReader(resp)))
}

// roundTrip sends one request and reads the raw response lines.
func (c *Client) roundTrip(req Request) ([]string, error) {
	lines, _, err := c.roundTripMeta(req)
	return lines, err
}

// roundTripMeta sends one request and reads the raw response lines plus the
// head-line flags.
func (c *Client) roundTripMeta(req Request) ([]string, ResponseMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v2 {
		// Commands without a dedicated binary encoding tunnel their text
		// line through an OpText frame.
		return c.textTunnel(FormatRequest(req))
	}
	c.deadline()
	if _, err := io.WriteString(c.conn, FormatRequest(req)+"\n"); err != nil {
		return nil, ResponseMeta{}, err
	}
	return ReadResponseMeta(c.rd)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	if c.ProtoV2() {
		_, err := c.binPairs(OpPing, nil)
		return err
	}
	_, err := c.roundTrip(Request{Cmd: CmdPing})
	return err
}

// Count returns the number of objects in the server's database.
func (c *Client) Count() (int, error) {
	if c.ProtoV2() {
		pairs, err := c.binPairs(OpCount, nil)
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(pairs["count"])
	}
	lines, err := c.roundTrip(Request{Cmd: CmdCount})
	if err != nil {
		return 0, err
	}
	if len(lines) != 1 {
		return 0, fmt.Errorf("protocol: COUNT returned %d lines", len(lines))
	}
	return strconv.Atoi(strings.TrimPrefix(lines[0], "count="))
}

// QueryParams carries the tunable query parameters of the command-line
// interface: result count, search mode, filter settings and attribute
// restrictions.
type QueryParams struct {
	// K is the number of results (server default when 0).
	K int
	// Mode is "filtering", "bruteforce" or "sketch" ("" = filtering).
	Mode string
	// Keywords restricts the similarity search to objects matching all
	// keywords (attribute + similarity combination, paper §4.1.2).
	Keywords []string
	// Attrs restricts to exact attribute matches.
	Attrs map[string]string
	// SegWeights optionally scales the query object's segment weights (the
	// "adjusted weights for feature vectors" of §4.1.4); factor i applies
	// to segment i.
	SegWeights []float64
	// Budget, when positive, requests a per-query time budget: if it
	// expires mid-rank the server answers with its best results so far,
	// flagged degraded. Servers cap it at their configured maximum.
	Budget time.Duration
	// Trace asks the server to trace the query: the response's meta then
	// carries the retained trace's ID and the per-stage timing breakdown.
	Trace bool
}

func (p QueryParams) fill(args map[string]string) {
	if p.K > 0 {
		args["k"] = strconv.Itoa(p.K)
	}
	if p.Mode != "" {
		args["mode"] = p.Mode
	}
	if len(p.Keywords) > 0 {
		args["keywords"] = strings.Join(p.Keywords, ",")
	}
	for k, v := range p.Attrs {
		args["attr:"+k] = v
	}
	if len(p.SegWeights) > 0 {
		parts := make([]string, len(p.SegWeights))
		for i, w := range p.SegWeights {
			parts[i] = strconv.FormatFloat(w, 'g', -1, 64)
		}
		args["segweights"] = strings.Join(parts, ",")
	}
	if p.Budget > 0 {
		args["budget"] = p.Budget.String()
	}
	if p.Trace {
		args["trace"] = "on"
	}
}

// binaryEligible reports whether the parameters fit the compact OpQuery
// encoding; keyword/attribute restrictions and segment-weight adjustments
// ride the OpText tunnel instead.
func (p QueryParams) binaryEligible() bool {
	return len(p.Keywords) == 0 && len(p.Attrs) == 0 && len(p.SegWeights) == 0
}

// Query runs a similarity query using an already-ingested object.
func (c *Client) Query(key string, p QueryParams) ([]Result, error) {
	results, _, err := c.QueryMeta(key, p)
	return results, err
}

// QueryMeta is Query exposing the response flags (degradation, cache).
func (c *Client) QueryMeta(key string, p QueryParams) ([]Result, ResponseMeta, error) {
	if results, meta, ok, err := c.binQuery(key, p); ok {
		return results, meta, err
	}
	args := map[string]string{"key": key}
	p.fill(args)
	return c.resultsMeta(Request{Cmd: CmdQuery, Args: args})
}

// binQuery runs QUERY over the binary protocol; ok is false when the
// connection is on the text protocol or the parameters need the tunnel.
func (c *Client) binQuery(key string, p QueryParams) (results []Result, meta ResponseMeta, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.v2 || !p.binaryEligible() {
		return nil, ResponseMeta{}, false, nil
	}
	var flags byte
	if p.Trace {
		flags |= QueryFlagTrace
	}
	c.wbuf = AppendQueryV2(c.wbuf[:0], key, p.K, p.Mode, flags, uint64(p.Budget))
	status, resp, err := c.binRoundTrip(OpQuery, c.wbuf)
	if err != nil {
		return nil, ResponseMeta{}, true, err
	}
	if status != StatusResults {
		return nil, ResponseMeta{}, true, fmt.Errorf("protocol: unexpected response status 0x%02x", status)
	}
	results, meta, err = DecodeResults(resp)
	return results, meta, true, err
}

// BatchQuery runs similarity queries for several already-ingested objects as
// one request: the server answers each key as QUERY would. The returned
// slice is parallel to keys; per-query failures are reported in
// BatchItem.Err without failing their siblings.
func (c *Client) BatchQuery(keys []string, p QueryParams) ([]BatchItem, error) {
	if items, ok, err := c.binBatchQuery(keys, p); ok {
		if err != nil {
			return nil, err
		}
		if len(items) != len(keys) {
			return nil, fmt.Errorf("protocol: BATCHQUERY returned %d groups for %d keys", len(items), len(keys))
		}
		return items, nil
	}
	args := map[string]string{"n": strconv.Itoa(len(keys))}
	for i, k := range keys {
		args["key"+strconv.Itoa(i)] = k
	}
	p.fill(args)
	lines, err := c.roundTrip(Request{Cmd: CmdBatchQuery, Args: args})
	if err != nil {
		return nil, err
	}
	items, err := ParseBatch(lines)
	if err != nil {
		return nil, err
	}
	if len(items) != len(keys) {
		return nil, fmt.Errorf("protocol: BATCHQUERY returned %d groups for %d keys", len(items), len(keys))
	}
	return items, nil
}

// binBatchQuery runs BATCHQUERY over the binary protocol; ok is false when
// the connection is on the text protocol or the parameters need the tunnel.
func (c *Client) binBatchQuery(keys []string, p QueryParams) (items []BatchItem, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.v2 || !p.binaryEligible() {
		return nil, false, nil
	}
	var flags byte
	if p.Trace {
		flags |= QueryFlagTrace
	}
	c.wbuf = AppendBatchQueryV2(c.wbuf[:0], keys, p.K, p.Mode, flags, uint64(p.Budget))
	status, resp, err := c.binRoundTrip(OpBatchQuery, c.wbuf)
	if err != nil {
		return nil, true, err
	}
	if status != StatusBatch {
		return nil, true, fmt.Errorf("protocol: unexpected response status 0x%02x", status)
	}
	items, err = DecodeBatch(resp)
	return items, true, err
}

// Traces fetches retained query traces, one compact rendering per line,
// keyed recent<i>/slow<i> in newest-first order. slowOnly restricts the
// answer to the slow-query log; n caps each list (server default when 0).
func (c *Client) Traces(n int, slowOnly bool) (map[string]string, error) {
	if c.ProtoV2() {
		return c.binPairs(OpTrace, AppendTraceV2(nil, n, slowOnly, ""))
	}
	args := map[string]string{}
	if n > 0 {
		args["n"] = strconv.Itoa(n)
	}
	if slowOnly {
		args["slow"] = "1"
	}
	lines, err := c.roundTrip(Request{Cmd: CmdTrace, Args: args})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(lines))
	for _, line := range lines {
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("protocol: malformed TRACE line %q", line)
		}
		val := line[eq+1:]
		if strings.HasPrefix(val, `"`) {
			if unq, err := strconv.Unquote(val); err == nil {
				val = unq
			}
		}
		out[line[:eq]] = val
	}
	return out, nil
}

// QueryFile runs a similarity query on a data file the server extracts with
// its plug-in.
func (c *Client) QueryFile(path string, p QueryParams) ([]Result, error) {
	results, _, err := c.QueryFileMeta(path, p)
	return results, err
}

// QueryFileMeta is QueryFile exposing the response flags (degradation).
func (c *Client) QueryFileMeta(path string, p QueryParams) ([]Result, ResponseMeta, error) {
	args := map[string]string{"path": path}
	p.fill(args)
	return c.resultsMeta(Request{Cmd: CmdQueryFile, Args: args})
}

// AddFile ingests a data file through the server's plug-in extractor,
// attaching the given attributes.
func (c *Client) AddFile(path string, attrs map[string]string) error {
	if c.ProtoV2() {
		_, err := c.binPairs(OpIngest, AppendIngestV2(nil, path, attrs))
		return err
	}
	args := map[string]string{"path": path}
	for k, v := range attrs {
		args["attr:"+k] = v
	}
	_, err := c.roundTrip(Request{Cmd: CmdAddFile, Args: args})
	return err
}

// Search runs an attribute-based search; results carry distance 0.
func (c *Client) Search(keywords []string, attrs map[string]string) ([]Result, error) {
	args := map[string]string{}
	if len(keywords) > 0 {
		args["keywords"] = strings.Join(keywords, ",")
	}
	for k, v := range attrs {
		args["attr:"+k] = v
	}
	return c.results(Request{Cmd: CmdSearch, Args: args})
}

// Info returns the stored attributes of an object.
func (c *Client) Info(key string) (map[string]string, error) {
	lines, err := c.roundTrip(Request{Cmd: CmdInfo, Args: map[string]string{"key": key}})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(lines))
	for _, line := range lines {
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("protocol: malformed INFO line %q", line)
		}
		name := line[:eq]
		val := line[eq+1:]
		if strings.HasPrefix(val, `"`) {
			if unq, err := strconv.Unquote(val); err == nil {
				val = unq
			}
		}
		out[name] = val
	}
	return out, nil
}

// Stats returns the server engine's statistics as name → value pairs.
func (c *Client) Stats() (map[string]string, error) {
	if c.ProtoV2() {
		return c.binPairs(OpStats, nil)
	}
	lines, err := c.roundTrip(Request{Cmd: CmdStats})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(lines))
	for _, line := range lines {
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("protocol: malformed STATS line %q", line)
		}
		out[line[:eq]] = line[eq+1:]
	}
	return out, nil
}

// Telemetry returns the server's runtime telemetry — every registered
// counter, gauge and histogram summary (count/sum/p50/p90/p99) as flat
// name → value pairs.
func (c *Client) Telemetry() (map[string]string, error) {
	lines, err := c.roundTrip(Request{Cmd: CmdTelemetry})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(lines))
	for _, line := range lines {
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("protocol: malformed TELEMETRY line %q", line)
		}
		out[line[:eq]] = line[eq+1:]
	}
	return out, nil
}

// Delete removes an object by key.
func (c *Client) Delete(key string) error {
	if c.ProtoV2() {
		_, err := c.binPairs(OpDelete, AppendStr16(nil, key))
		return err
	}
	_, err := c.roundTrip(Request{Cmd: CmdDelete, Args: map[string]string{"key": key}})
	return err
}

func (c *Client) results(req Request) ([]Result, error) {
	out, _, err := c.resultsMeta(req)
	return out, err
}

func (c *Client) resultsMeta(req Request) ([]Result, ResponseMeta, error) {
	lines, meta, err := c.roundTripMeta(req)
	if err != nil {
		return nil, meta, err
	}
	out := make([]Result, 0, len(lines))
	for _, line := range lines {
		r, err := ParseResultLine(line)
		if err != nil {
			return nil, meta, err
		}
		out = append(out, r)
	}
	return out, meta, nil
}

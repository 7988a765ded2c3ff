package profile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Profiles persist so collected DCGs can be saved by one tool run and
// consumed by another (e.g. profile offline with cbsvm, then feed the
// inliner, or stream snapshots to the cbsd aggregation daemon),
// mirroring how the paper's systems hand profiles from the profiler to
// the optimizing compiler through a repository.
//
// The wire format is versioned behind four magic bytes:
//
//	"DCGB" | uint32 version | uint64 edge count |
//	  (int64 caller, int64 site, int64 callee, float64-bits weight)*
//
// all little-endian, edges in canonical (caller, site, callee) order
// and weights as exact IEEE-754 bit patterns, so serialization is
// deterministic and byte-identical graphs really are identical graphs.
// ReadDCG rejects payloads with unknown magic and versions newer than
// this build, and still accepts the legacy line-oriented text format
// ("dcg v1" header, one "edge caller site callee weight" line per
// edge) that predates versioning — wire version 0.

// wireMagic introduces every binary profile.
var wireMagic = [4]byte{'D', 'C', 'G', 'B'}

// WireVersion is the newest binary format version this build writes
// and reads. Version 0 is the legacy text format.
const WireVersion = 1

// legacyHeader is the first line of the pre-versioning text format.
const legacyHeader = "dcg v1"

// maxWireEdges bounds the declared edge count so a corrupt header
// cannot request an absurd allocation.
const maxWireEdges = 1 << 32

// WriteTo serializes the graph in the current binary wire format, in
// deterministic edge order. The output is canonical: two DCGs with the
// same edges and weights serialize to identical bytes. Records are
// encoded into a fixed chunk buffer with no reflection, the mirror of
// readBinary's batched decode.
func (g *DCG) WriteTo(w io.Writer) (int64, error) {
	es := g.Edges()
	const batch = 512
	buf := make([]byte, 0, wireHdrSize+min(len(es), batch)*wireRecSize)
	buf = append(buf, wireMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, WireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(es)))
	var n int64
	for _, e := range es {
		if len(buf)+wireRecSize > cap(buf) {
			m, err := w.Write(buf)
			n += int64(m)
			if err != nil {
				return n, err
			}
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Caller)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Site)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Callee)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.weights[e]))
	}
	m, err := w.Write(buf)
	return n + int64(m), err
}

// WriteText serializes the graph in the legacy (version 0) text
// format, kept for human inspection and for producing inputs older
// tooling understands. Weights are written with full float64
// round-trip precision.
func (g *DCG) WriteText(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintln(bw, legacyHeader)); err != nil {
		return n, err
	}
	for _, e := range g.Edges() {
		if err := count(fmt.Fprintf(bw, "edge %d %d %d %s\n",
			e.Caller, e.Site, e.Callee,
			strconv.FormatFloat(g.weights[e], 'g', -1, 64))); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDCG parses a serialized graph in either the binary wire format
// or the legacy text format, rejecting bad magic and versions newer
// than this build with a descriptive error.
func ReadDCG(r io.Reader) (*DCG, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	head, err := br.Peek(len(wireMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	if len(head) == len(wireMagic) && [4]byte(head) == wireMagic {
		return readBinary(br)
	}
	return readLegacyText(br)
}

// DecodeDCGBytes parses a serialized graph held entirely in memory —
// the daemon's ingest fast path. It accepts the same formats ReadDCG
// does but decodes binary records straight out of the slice with no
// reflection, no intermediate reader, and no per-record allocation, so
// a pooled request buffer can be decoded and returned to its pool with
// nothing retained: the resulting DCG never aliases data.
func DecodeDCGBytes(data []byte) (*DCG, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	if len(data) < len(wireMagic) || [4]byte(data[:4]) != wireMagic {
		return readLegacyText(bufio.NewReader(bytes.NewReader(data)))
	}
	if len(data) < wireHdrSize {
		return nil, fmt.Errorf("truncated profile header: %d bytes", len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	edges := binary.LittleEndian.Uint64(data[8:16])
	if version == 0 || version > WireVersion {
		return nil, fmt.Errorf("profile wire version %d not supported (this build reads 1..%d and the legacy text format)",
			version, WireVersion)
	}
	if edges > maxWireEdges {
		return nil, fmt.Errorf("profile declares %d edges, beyond the %d limit", edges, maxWireEdges)
	}
	body := data[wireHdrSize:]
	if uint64(len(body)) != edges*wireRecSize {
		if uint64(len(body)) < edges*wireRecSize {
			return nil, fmt.Errorf("edge %d of %d: truncated record: %w",
				uint64(len(body))/wireRecSize, edges, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("trailing data after %d edges", edges)
	}
	// The body length matches the header, so the edge count is bounded
	// by the payload actually received and can size the map.
	g := &DCG{weights: make(map[Edge]float64, edges)}
	for i := uint64(0); i < edges; i++ {
		if err := g.addWireRecord(i, body[i*wireRecSize:(i+1)*wireRecSize]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// wireHdrSize is the byte size of the binary header: magic, u32
// version, u64 edge count.
const wireHdrSize = 16

// wireRecSize is the byte size of one binary edge record.
const wireRecSize = 32

// addWireRecord validates and merges one 32-byte wire record.
func (g *DCG) addWireRecord(i uint64, rec []byte) error {
	w := math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("edge %d: invalid weight %v", i, w)
	}
	e := Edge{
		Caller: int(int64(binary.LittleEndian.Uint64(rec[0:8]))),
		Site:   int(int64(binary.LittleEndian.Uint64(rec[8:16]))),
		Callee: int(int64(binary.LittleEndian.Uint64(rec[16:24]))),
	}
	if g.weights[e] != 0 {
		return fmt.Errorf("edge %d: duplicate edge %v", i, e)
	}
	g.AddSample(e, w)
	return nil
}

// readBinary decodes the versioned binary format; br is positioned at
// the magic bytes. Records are decoded in batches through a fixed
// chunk buffer — one ReadFull and zero reflection per batch rather
// than one binary.Read per record.
func readBinary(br *bufio.Reader) (*DCG, error) {
	var hdr [wireHdrSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("truncated profile header: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	edges := binary.LittleEndian.Uint64(hdr[8:16])
	if version == 0 || version > WireVersion {
		return nil, fmt.Errorf("profile wire version %d not supported (this build reads 1..%d and the legacy text format)",
			version, WireVersion)
	}
	if edges > maxWireEdges {
		return nil, fmt.Errorf("profile declares %d edges, beyond the %d limit", edges, maxWireEdges)
	}
	g := NewDCG()
	const batch = 512
	var chunk [batch * wireRecSize]byte
	for done := uint64(0); done < edges; {
		n := edges - done
		if n > batch {
			n = batch
		}
		if _, err := io.ReadFull(br, chunk[:n*wireRecSize]); err != nil {
			return nil, fmt.Errorf("edge %d of %d: truncated record: %w", done, edges, err)
		}
		for i := uint64(0); i < n; i++ {
			if err := g.addWireRecord(done+i, chunk[i*wireRecSize:(i+1)*wireRecSize]); err != nil {
				return nil, err
			}
		}
		done += n
	}
	// Trailing garbage means the payload is not what its header claims.
	if _, err := br.Peek(1); err != io.EOF {
		return nil, fmt.Errorf("trailing data after %d edges", edges)
	}
	return g, nil
}

// readLegacyText decodes the pre-versioning text format (version 0).
func readLegacyText(br *bufio.Reader) (*DCG, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty profile")
	}
	if strings.TrimSpace(sc.Text()) != legacyHeader {
		return nil, fmt.Errorf("bad profile magic: want %q binary or %q text header, got %q",
			wireMagic, legacyHeader, sc.Text())
	}
	g := NewDCG()
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 5 || fields[0] != "edge" {
			return nil, fmt.Errorf("line %d: malformed edge %q", line, text)
		}
		caller, err1 := strconv.Atoi(fields[1])
		site, err2 := strconv.Atoi(fields[2])
		callee, err3 := strconv.Atoi(fields[3])
		w, err4 := strconv.ParseFloat(fields[4], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("line %d: malformed edge %q", line, text)
		}
		if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, fmt.Errorf("line %d: invalid weight %v", line, w)
		}
		g.AddSample(Edge{Caller: caller, Site: site, Callee: callee}, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// TopEdges returns the k heaviest edges (all edges if k <= 0 or k
// exceeds the edge count), heaviest first with deterministic
// tie-breaking.
func (g *DCG) TopEdges(k int) []Edge {
	es := g.Edges()
	sort.SliceStable(es, func(i, j int) bool {
		return g.weights[es[i]] > g.weights[es[j]]
	})
	if k > 0 && k < len(es) {
		es = es[:k]
	}
	return es
}

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"tsppr/internal/atomicio"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
)

// Model files are little-endian binary: a magic header, the shape and map
// kind, the parameter tables, then the feature extractor's static tables.
// The format is versioned via the magic. A CRC32-C checksum of everything
// after the magic trails the body, so truncation and bit rot are detected
// at load time instead of silently corrupting scores. This is the only
// format read: the checksum-less v1 it replaced is refused, because
// accepting it would let any damaged v2 file load by claiming to be v1.
const modelMagic = "TSPPRv2\n"

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type countingWriter struct {
	w   io.Writer
	err error
}

func (cw *countingWriter) write(v any) {
	if cw.err != nil {
		return
	}
	cw.err = binary.Write(cw.w, binary.LittleEndian, v)
}

func (cw *countingWriter) writeFloats(xs []float64) {
	if cw.err != nil {
		return
	}
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	_, cw.err = cw.w.Write(buf)
}

// Write serializes the model (including its extractor) to w in the v2
// format: magic, body, CRC32-C trailer over the body.
func (m *Model) Write(w io.Writer) error {
	if err := m.requireMaps(); err != nil {
		return err // an A-less body would be a file no load accepts
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, modelMagic); err != nil {
		return fmt.Errorf("core: write magic: %w", err)
	}
	h := crc32.New(crcTable)
	cw := &countingWriter{w: io.MultiWriter(bw, h)}
	m.writeBody(cw)
	if cw.err != nil {
		return fmt.Errorf("core: write model: %w", cw.err)
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return fmt.Errorf("core: write checksum: %w", err)
	}
	return bw.Flush()
}

// writeBody emits everything between the magic and the checksum trailer.
func (m *Model) writeBody(cw *countingWriter) {
	cw.write(int64(m.K))
	cw.write(int64(m.F))
	cw.write(int64(m.MapType))
	cw.write(int64(m.U.Rows))
	cw.write(int64(m.V.Rows))
	cw.writeFloats(m.U.Data)
	cw.writeFloats(m.V.Data)
	cw.write(int64(len(m.A)))
	for _, a := range m.A {
		cw.writeFloats(a.Data)
	}
	quality, reratio := m.Extractor.Tables()
	cw.write(int64(m.Extractor.Mask()))
	cw.write(int64(m.Extractor.RecencyKind()))
	cw.write(int64(m.Extractor.WindowCap()))
	cw.write(int64(m.Extractor.Omega()))
	cw.write(int64(len(quality)))
	cw.writeFloats(quality)
	cw.writeFloats(reratio)
}

type countingReader struct {
	r     io.Reader
	err   error
	chunk [floatChunkBytes]byte // readFloats' only staging: one fixed buffer per load
}

func (cr *countingReader) readInt() int64 {
	if cr.err != nil {
		return 0
	}
	var v int64
	cr.err = binary.Read(cr.r, binary.LittleEndian, &v)
	return v
}

// floatPresize caps what readFloats allocates on a header's say-so: beyond
// it the destination doubles only as chunks actually arrive, so a damaged
// file that claims 2⁴⁸ floats and then ends costs this much and an error,
// not the process.
const (
	floatPresize    = 64 << 10
	floatChunkBytes = 8 << 10
)

// readFloats decodes n little-endian float64s through the fixed chunk
// buffer straight into the destination slice: xs's storage when it is
// large enough (the serving load's one A_u block), a fresh one otherwise.
func (cr *countingReader) readFloats(xs []float64, n int) []float64 {
	if cr.err != nil || n < 0 {
		return nil
	}
	if xs = xs[:0]; cap(xs) == 0 {
		xs = make([]float64, 0, min(n, floatPresize))
	}
	for len(xs) < n {
		want := min(n-len(xs), len(cr.chunk)/8)
		b := cr.chunk[:8*want]
		if _, err := io.ReadFull(cr.r, b); err != nil {
			if err == io.EOF && len(xs) > 0 {
				err = io.ErrUnexpectedEOF // the table, not the stream, is what ended early
			}
			cr.err = err
			return nil
		}
		xs = grown(xs, want, n)
		base := len(xs)
		xs = xs[:base+want]
		for i := 0; i < want; i++ {
			xs[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return xs
}

// grown returns xs with room for want more floats that have arrived: at
// most doubled, never past the n the header claims in total.
func grown(xs []float64, want, n int) []float64 {
	if len(xs)+want <= cap(xs) {
		return xs
	}
	return append(make([]float64, 0, min(n, max(2*cap(xs), len(xs)+want))), xs...)
}

// hashingReader forwards reads while feeding every delivered byte into h,
// so the reader can checksum exactly the bytes the parser consumed.
type hashingReader struct {
	r io.Reader
	h hash.Hash32
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.h.Write(p[:n])
	}
	return n, err
}

// ReadModel deserializes a model written by Write, verifying its checksum.
func ReadModel(r io.Reader) (*Model, error) { return readModel(r, false) }

// ReadServingModel is ReadModel for a process that only scores: same
// format, same checks, but a PerUserMap file's A_u blocks are folded into
// w_u = A_uᵀu as they stream by and never held, so the model comes back
// with A == nil. Such a model scores bit-identically to the full load and
// cannot be trained or written.
func ReadServingModel(r io.Reader) (*Model, error) { return readModel(r, true) }

func readModel(r io.Reader, serving bool) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, fmt.Errorf("core: bad model magic %q, want %q", magic, modelMagic)
	}
	hr := &hashingReader{r: br, h: crc32.New(crcTable)}
	m, err := readBody(&countingReader{r: hr}, serving)
	if err != nil {
		return nil, err
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("core: read checksum: %w", err)
	}
	if got := hr.h.Sum32(); got != want {
		return nil, fmt.Errorf("core: checksum mismatch (got %08x, want %08x): file is truncated or corrupt", got, want)
	}
	return m, nil
}

func readBody(cr *countingReader, serving bool) (*Model, error) {
	k := int(cr.readInt())
	f := int(cr.readInt())
	mapType := MapKind(cr.readInt())
	numUsers := int(cr.readInt())
	numItems := int(cr.readInt())
	if cr.err != nil {
		return nil, fmt.Errorf("core: read header: %w", cr.err)
	}
	if k <= 0 || f <= 0 || numUsers <= 0 || numItems <= 0 ||
		k > 1<<20 || f > 1<<20 || numUsers > 1<<28 || numItems > 1<<28 {
		return nil, fmt.Errorf("core: implausible model shape K=%d F=%d users=%d items=%d", k, f, numUsers, numItems)
	}
	if mapType < PerUserMap || mapType > IdentityMap {
		return nil, fmt.Errorf("core: unknown map kind %d", mapType)
	}
	m := &Model{K: k, F: f, MapType: mapType}
	m.U = &linalg.Matrix{Rows: numUsers, Cols: k, Data: cr.readFloats(nil, numUsers*k)}
	m.V = &linalg.Matrix{Rows: numItems, Cols: k, Data: cr.readFloats(nil, numItems*k)}
	numMaps := int(cr.readInt())
	wantMaps := 0
	switch mapType {
	case PerUserMap:
		wantMaps = numUsers
	case SharedMap:
		wantMaps = 1
	}
	if cr.err == nil && numMaps != wantMaps {
		return nil, fmt.Errorf("core: map count %d, want %d for %v", numMaps, wantMaps, mapType)
	}
	if serving && mapType == PerUserMap {
		if err := cr.foldMaps(m); err != nil {
			return nil, err
		}
	} else {
		m.A = make([]*linalg.Matrix, numMaps)
		for i := range m.A {
			m.A[i] = &linalg.Matrix{Rows: k, Cols: f, Data: cr.readFloats(nil, k*f)}
		}
	}
	mask := features.Mask(cr.readInt())
	recency := features.RecencyKind(cr.readInt())
	windowCap := int(cr.readInt())
	omega := int(cr.readInt())
	tableLen := int(cr.readInt())
	if cr.err != nil {
		return nil, fmt.Errorf("core: read tables header: %w", cr.err)
	}
	if tableLen < 0 || tableLen > 1<<28 {
		return nil, fmt.Errorf("core: implausible table length %d", tableLen)
	}
	quality := cr.readFloats(nil, tableLen)
	reratio := cr.readFloats(nil, tableLen)
	if cr.err != nil {
		return nil, fmt.Errorf("core: read model body: %w", cr.err)
	}
	ex, err := features.FromTables(mask, recency, windowCap, omega, quality, reratio)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild extractor: %w", err)
	}
	if ex.Dim() != f {
		return nil, fmt.Errorf("core: extractor dim %d != model F %d", ex.Dim(), f)
	}
	m.Extractor = ex
	// Loaded models go straight to scoring; fold the effective feature
	// weights here so load time, not first-request time, pays the cost.
	m.Precompute()
	return m, nil
}

// foldMaps consumes the numUsers K×F blocks of a PerUserMap file through
// one reusable buffer, leaving m.effW folded and m.A nil. Each block gets
// the finiteness check Validate would have given it, and effW at most
// doubles as blocks arrive: F is still only the header's claim here.
func (cr *countingReader) foldMaps(m *Model) error {
	n := m.U.Rows * m.F
	var eff, block []float64
	for u := 0; u < m.U.Rows; u++ {
		if block = cr.readFloats(block, m.K*m.F); cr.err != nil {
			return nil // readBody's next check reports it, as for the full load
		}
		if !finiteSlice(block) {
			return fmt.Errorf("core: non-finite value in A[%d]", u)
		}
		eff = grown(eff, m.F, n)[:len(eff)+m.F]
		foldInto(eff[len(eff)-m.F:], m.U.Row(u), block)
	}
	m.effW = &linalg.Matrix{Rows: m.U.Rows, Cols: m.F, Data: eff}
	return nil
}

// SaveFile writes the model to path atomically: the bytes go to a
// temporary file in the same directory which is fsynced and then renamed
// over path, so a crash (or an injected fault) mid-write never leaves a
// truncated model where a good one used to be.
func (m *Model) SaveFile(path string) error {
	return writeFileAtomic(path, m.Write)
}

// writeFileAtomic streams fn into a temp file next to path, fsyncs it,
// and renames it over path (see atomicio.WriteFile, which every durable
// artifact in the pipeline shares). The write stream passes through the
// "core.io.write" fault-injection point.
func writeFileAtomic(path string, fn func(io.Writer) error) error {
	return atomicio.WriteFile(path, "core.io.write", fn)
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) { return loadFile(path, false) }

// LoadServingFile reads a model from path through ReadServingModel.
func LoadServingFile(path string) (*Model, error) { return loadFile(path, true) }

func loadFile(path string, serving bool) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return readModel(f, serving)
}

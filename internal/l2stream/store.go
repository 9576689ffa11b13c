package l2stream

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// CodecVersion identifies the on-disk and in-memory event encoding.
// It is folded into every persistent-store key, so bumping it after
// an encoding change invalidates all previously persisted captures at
// once — stale files are simply never addressed again. Version 3
// dropped the fixed-width sidecar and the spill form; version 4 moved
// the derived views from separate .l2d files into sections of the
// stream's own file.
const CodecVersion = 4

// Store file format (".l2s"): one file per capture, holding the stream
// and every persisted derived view —
//
//	header    storeHeaderSize bytes
//	table     per view section: key length (uint16), key, payload
//	          length (uint64), payload CRC-32C (uint32)
//	payloads  the sections' payloads, in table order
//	body      the stream's delta/varint event buffer
//
// The body comes last, so header, table and views form a prefix that
// can be read without it.
//
// Header layout (little-endian): magic [0:4], codec version [4:8], key
// fingerprint [8:40], CRC-32C of header[44:] plus the table [40:44],
// CRC-32C of the body [44:48], then twelve uint64s from offset 48 —
// records, instructions, events, accesses, warmupAt, warmInstrAt, L1I
// misses, L1D misses, warmed (0/1), body length, table length, section
// count. A damaged header, table or body rejects the whole file; a
// damaged payload drops only its section.
const (
	storeMagic      = "CHL2"
	storeCRCOffset  = 40
	storeBodyCRC    = 44
	storeU64Offset  = 48
	storeHeaderSize = storeU64Offset + 8*12

	hdrBodyLen, hdrTableLen, hdrSections = 9, 10, 11
)

// storeCRC is the checksum table for store files (Castagnoli, the
// polynomial with hardware support on amd64 and arm64).
var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// store is the cache's persistent tier: a content-addressed directory
// of captured streams, keyed by the capture key fingerprint (workload
// name + policy-invariant config + codec version). Writers stage into
// a temp file and atomically rename, so concurrent processes sharing
// one directory either see a complete file or none — the worst race
// outcome is two processes capturing (or building views for) the same
// stream once each.
type store struct {
	dir string

	// mu serializes the size-budget GC; limit <= 0 means unbounded.
	mu    sync.Mutex
	limit int64
}

// newStore opens (creating if needed) a persistent capture directory.
func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("l2stream: capture dir: %w", err)
	}
	return &store{dir: dir}, nil
}

// setLimit installs the directory's byte budget and immediately
// rebalances, so a long-lived directory inherited from earlier runs is
// trimmed at open rather than on the first write.
func (st *store) setLimit(maxBytes int64) {
	st.mu.Lock()
	st.limit = maxBytes
	st.mu.Unlock()
	st.gc()
}

// fingerprint derives the content address of a capture key: every
// field of the key plus the codec version, hashed. Two runs agree on
// the file name exactly when they would produce byte-identical
// captures.
func fingerprint(key Key) [sha256.Size]byte {
	c := key.Config
	id := fmt.Sprintf(
		"chirp-l2stream-v%d|%q|l1i:%q,%d,%d,%d|l1d:%q,%d,%d,%d|shift:%d|instr:%d|warm:%g",
		CodecVersion, key.Workload,
		c.L1I.Name, c.L1I.Entries, c.L1I.Ways, c.L1I.PageShift,
		c.L1D.Name, c.L1D.Entries, c.L1D.Ways, c.L1D.PageShift,
		c.PageShift, c.Instructions, c.WarmupFraction,
	)
	// The spec hash is appended only when present so legacy (spec-less)
	// fingerprints — and the persistent captures stored under them —
	// stay valid.
	if key.Spec != "" {
		id += fmt.Sprintf("|spec:%q", key.Spec)
	}
	return sha256.Sum256([]byte(id))
}

// path returns the .l2s file path for key.
func (st *store) path(key Key) string {
	h := fingerprint(key)
	return filepath.Join(st.dir, fmt.Sprintf("chirp-%x.l2s", h[:12]))
}

// section is one persisted derived view: its derived key and payload.
// A nil payload marks a section that failed its checksum.
type section struct {
	key     string
	payload []byte
}

// storeFile ties a stream to its file in a capture store. mu guards
// pending and orders the stream's rewrites, so concurrent Derives on
// one stream never drop each other's sections.
type storeFile struct {
	st  *store
	key Key

	mu sync.Mutex
	// pending holds the sections load read, in the pooled buffer
	// pendingBuf, until the first Derive takes them.
	pending    []section
	pendingBuf *[]byte
}

// fileBufs recycles the buffers store files are read into: the body
// is copied out and the view sections are decoded and dropped, so the
// buffer goes back once Derive is done with it, and a warm sweep does
// not re-zero a fresh allocation per file.
var fileBufs sync.Pool

func releaseBuf(bp *[]byte) {
	if bp != nil {
		fileBufs.Put(bp)
	}
}

// readFile reads key's file into a pooled buffer and validates it. It
// returns the buffer (release it when done) with the stream and intact
// sections aliasing it, or nil when the file is missing or unusable —
// err is set only for a failure worth counting.
func (st *store) readFile(key Key) (*[]byte, *Stream, []section, error) {
	start := time.Now()
	f, err := os.Open(st.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return nil, nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nil, err
	}
	bp, _ := fileBufs.Get().(*[]byte)
	if bp == nil || cap(*bp) < int(fi.Size()) {
		b := make([]byte, fi.Size())
		bp = &b
	}
	data := (*bp)[:fi.Size()]
	if _, err := io.ReadFull(f, data); err != nil {
		releaseBuf(bp)
		return nil, nil, nil, err
	}
	s, secs, ok := decodeStoreFile(data, key)
	if !ok {
		releaseBuf(bp)
		return nil, nil, nil, nil
	}
	obsPhaseStoreRead.Observe(time.Since(start).Seconds())
	return bp, s, secs, nil
}

// decodeStoreFile validates a store file against key and returns its
// stream and sections; both alias data. A section that fails its
// checksum comes back with a nil payload, so only that view is
// rebuilt; a damaged header, table or body rejects the whole file. The
// checksums cover the run scalars, the table, every payload and the
// body, so a file it accepts is one write produced (short of a CRC-32C
// collision) and decodes to its header's event and access counts.
func decodeStoreFile(data []byte, key Key) (*Stream, []section, bool) {
	want := fingerprint(key)
	if len(data) < storeHeaderSize || string(data[:4]) != storeMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != CodecVersion ||
		string(data[8:8+sha256.Size]) != string(want[:]) {
		return nil, nil, false
	}
	var u [12]uint64
	for i := range u {
		u[i] = binary.LittleEndian.Uint64(data[storeU64Offset+8*i:])
	}
	rest := uint64(len(data) - storeHeaderSize)
	if u[hdrTableLen] > rest || u[hdrBodyLen] > rest-u[hdrTableLen] || u[8] > 1 {
		return nil, nil, false
	}
	tableEnd := storeHeaderSize + u[hdrTableLen]
	bodyStart := uint64(len(data)) - u[hdrBodyLen]
	body := data[bodyStart:]
	if binary.LittleEndian.Uint32(data[storeCRCOffset:]) != crc32.Checksum(data[storeCRCOffset+4:tableEnd], storeCRC) ||
		binary.LittleEndian.Uint32(data[storeBodyCRC:]) != crc32.Checksum(body, storeCRC) {
		return nil, nil, false
	}
	table, payloads := data[storeHeaderSize:tableEnd], data[tableEnd:bodyStart]
	var secs []section
	for i := uint64(0); i < u[hdrSections]; i++ {
		if len(table) < 2 {
			return nil, nil, false
		}
		k := 2 + int(binary.LittleEndian.Uint16(table))
		if len(table) < k+12 {
			return nil, nil, false
		}
		n := binary.LittleEndian.Uint64(table[k:])
		if n > uint64(len(payloads)) {
			return nil, nil, false
		}
		sec := section{key: string(table[2:k]), payload: payloads[:n]}
		if crc32.Checksum(sec.payload, storeCRC) != binary.LittleEndian.Uint32(table[k+8:]) {
			sec.payload = nil
		}
		secs = append(secs, sec)
		table, payloads = table[k+12:], payloads[n:]
	}
	if len(table) != 0 || len(payloads) != 0 {
		return nil, nil, false
	}
	return &Stream{
		cfg:          key.Config,
		buf:          body,
		records:      u[0],
		instructions: u[1],
		events:       u[2],
		accesses:     u[3],
		warmupAt:     u[4],
		warmInstrAt:  u[5],
		l1iMisses:    u[6],
		l1dMisses:    u[7],
		warmed:       u[8] != 0,
	}, secs, true
}

// load returns the persisted stream for key, or (nil, nil) when the
// store holds nothing usable for it — a missing, truncated, corrupt or
// mismatched file all read as "absent", so the caller recaptures and
// the stream's first Derive atomically replaces whatever was there.
// The body is copied to an exact-size buffer; the view sections stay
// in the pooled read buffer, on the stream, until its first Derive
// decodes them.
func (st *store) load(key Key) (*Stream, error) {
	bp, s, secs, err := st.readFile(key)
	if s == nil {
		if err != nil {
			err = fmt.Errorf("l2stream: reading persisted capture: %w", err)
		}
		return nil, err
	}
	s.buf = append([]byte(nil), s.buf...)
	s.file = &storeFile{st: st, key: key, pending: secs, pendingBuf: bp}
	// Touch the file so the GC's LRU order counts reads as uses, not
	// just the original write time. Best-effort, and only worth a
	// syscall when a byte budget means the GC can actually run.
	st.mu.Lock()
	limited := st.limit > 0
	st.mu.Unlock()
	if limited {
		now := time.Now()
		_ = os.Chtimes(st.path(key), now, now)
	}
	return s, nil
}

// sections returns the view sections in the stream's file plus the
// pooled buffer they alias, nil when the file is missing or unusable:
// the ones load read, if no Derive took them yet, else those of a
// fresh read of the file. Called with f.mu held.
func (f *storeFile) sections() ([]section, *[]byte) {
	if f.pendingBuf != nil {
		secs, bp := f.pending, f.pendingBuf
		f.pending, f.pendingBuf = nil, nil
		return secs, bp
	}
	bp, _, secs, err := f.st.readFile(f.key)
	if err != nil {
		obsCacheDiskErrors.Inc()
	}
	return secs, bp
}

// write writes the stream's file, staged in a temp file and renamed
// into place: the body, added, and the sections the file holds now
// that added does not replace. It counts the write or the failure,
// then rebalances the directory budget.
func (f *storeFile) write(s *Stream, added []section) {
	f.mu.Lock()
	defer f.mu.Unlock()
	secs, bp := f.sections()
	defer releaseBuf(bp)
	built := len(added)
	for _, sec := range secs {
		if _, dup := findSection(added, sec.key); !dup && sec.payload != nil {
			added = append(added, sec)
		}
	}
	start := time.Now()
	h := fingerprint(f.key)
	hdr := make([]byte, storeHeaderSize)
	bufs := [][]byte{nil}
	for _, sec := range added {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(sec.key)))
		hdr = append(hdr, sec.key...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec.payload)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(sec.payload, storeCRC))
		bufs = append(bufs, sec.payload)
	}
	copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], CodecVersion)
	copy(hdr[8:], h[:])
	binary.LittleEndian.PutUint32(hdr[storeBodyCRC:], crc32.Checksum(s.buf, storeCRC))
	warmed := uint64(0)
	if s.warmed {
		warmed = 1
	}
	for i, v := range [12]uint64{
		s.records, s.instructions, s.events, s.accesses,
		s.warmupAt, s.warmInstrAt, s.l1iMisses, s.l1dMisses,
		warmed, uint64(len(s.buf)), uint64(len(hdr) - storeHeaderSize), uint64(len(added)),
	} {
		binary.LittleEndian.PutUint64(hdr[storeU64Offset+8*i:], v)
	}
	binary.LittleEndian.PutUint32(hdr[storeCRCOffset:], crc32.Checksum(hdr[storeCRCOffset+4:], storeCRC))
	bufs[0] = hdr

	tmp, err := os.CreateTemp(f.st.dir, "chirp-*.l2s.tmp")
	if err != nil {
		obsCacheDiskErrors.Inc()
		return
	}
	for _, b := range append(bufs, s.buf) {
		if err == nil {
			_, err = tmp.Write(b)
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), f.st.path(f.key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		obsCacheDiskErrors.Inc()
		return
	}
	obsCacheDiskWrites.Inc()
	obsDerivedDiskWrites.Add(uint64(built))
	obsPhaseStoreWrite.Observe(time.Since(start).Seconds())
	f.st.gc()
}

// gc holds the persistent directory to its byte budget: store files
// are evicted least-recently-used first (by mtime; loads touch the
// file, so "used" means read or written) until the directory fits. A
// capture and its views are one file, so they go together. Files of
// older codec versions — .l2s captures and the separate .l2d views
// version 3 wrote — are never addressed again; they count against the
// budget like any file and age out first. Concurrent processes sharing
// a directory may each run gc; the worst race outcome is a double
// eviction of the same file, and a load racing an eviction reads as
// absent and recaptures.
func (st *store) gc() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.limit <= 0 {
		return
	}
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		obsCacheDiskErrors.Inc()
		return
	}
	var files []fs.FileInfo
	total := int64(0)
	for _, ent := range ents {
		// Temp files (still being written) and foreign files are left
		// alone.
		name := ent.Name()
		if ext := filepath.Ext(name); !strings.HasPrefix(name, "chirp-") || (ext != ".l2s" && ext != ".l2d") {
			continue
		}
		if info, err := ent.Info(); err == nil {
			files = append(files, info)
			total += info.Size()
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].ModTime().Before(files[j].ModTime()) })
	for _, fi := range files {
		if total <= st.limit {
			break
		}
		if err := os.Remove(filepath.Join(st.dir, fi.Name())); err != nil && !os.IsNotExist(err) {
			obsCacheDiskErrors.Inc()
		}
		total -= fi.Size()
		obsStoreEvictions.Inc()
	}
	obsStoreBytes.Set(total)
}

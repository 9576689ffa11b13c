// Package l2stream captures the policy-invariant event stream an L2
// TLB policy observes — demand accesses that missed the L1 TLBs,
// committed branches, and the warmup boundary — so an N-policy sweep
// pays trace generation and L1 filtering once per workload instead of
// once per (workload, policy) cell.
//
// The invariance argument: the paper holds the L1 TLBs fixed at LRU
// (Table II), and nothing below the L1s feeds back into them, so the
// sequence of L2 demand accesses and the interleaved branch stream are
// identical for every L2 replacement policy. Capture runs the
// generator and the two L1 filters once and encodes that shared
// sequence; sim.ReplayMulti then drives any number of L2 policies
// over views derived from it, bit-identical to sim.RunTLBOnly.
//
// A stream has exactly one base form: the delta/varint event buffer
// (a few bytes per event), which is also the body of its persisted
// .l2s file. Everything replay walks — the dense access view and the
// signature sequences — is a derived view built by streaming that
// buffer through Decoder.NextBlock (derived.go), and persisted as a
// section of the same file. A capture whose
// buffer would pass the byte budget stops with ErrOverBudget, and the
// caller runs the direct driver instead.
package l2stream

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/chirplab/chirp/internal/tlb"
)

// Config identifies the policy-invariant part of a TLB-only run: the
// L1 geometries, the L2 page size, and the instruction/warmup budget.
// Two runs with equal Configs share the same captured stream no matter
// which L2 policy, L2 geometry, or prefetch distance they use, so
// Config doubles as the cache key. It is comparable.
type Config struct {
	// L1I and L1D are the L1 TLB geometries (always LRU).
	L1I, L1D tlb.Config
	// PageShift is the L2 TLB's page-size shift (VPN = address >> shift).
	PageShift uint
	// Instructions bounds the committed instruction count (0 = drain).
	Instructions uint64
	// WarmupFraction of instructions warms structures before measurement.
	WarmupFraction float64
}

// EventKind discriminates the replay events.
type EventKind uint8

const (
	// EventInstrAccess is an instruction-side L2 demand access; the VPN
	// is the fetch page (PC >> PageShift).
	EventInstrAccess EventKind = iota
	// EventDataAccess is a data-side L2 demand access.
	EventDataAccess
	// EventBranch is a committed branch (for BranchObserver policies).
	EventBranch
	// EventWarmup marks the warmup boundary: replay snapshots its L2
	// statistics exactly here, mirroring RunTLBOnly's per-record check.
	EventWarmup
)

// Event is one decoded stream event.
type Event struct {
	Kind   EventKind
	PC     uint64
	VPN    uint64 // access events only
	Target uint64 // branch events only
	// Conditional/Indirect/Taken qualify branch events, matching the
	// tlb.BranchObserver.OnBranch signature.
	Conditional bool
	Indirect    bool
	Taken       bool
}

// Encoding: each event is a tag byte followed by varint payloads. The
// tag's low 3 bits are the wire kind; bit 3 is the branch-taken flag.
// PCs are signed deltas against the previous event's PC (shared across
// kinds: consecutive events come from nearby code). Data-access VPNs
// are signed deltas against the previous data VPN; instruction-access
// VPNs are derived from the PC and not stored. Branch targets are
// signed deltas against the branch's own PC.
const (
	wireInstrAccess = 0
	wireDataAccess  = 1
	wireCondBranch  = 2
	wireDirBranch   = 3
	wireIndBranch   = 4
	wireWarmup      = 5

	wireKindMask = 0x07
	wireTaken    = 1 << 3
)

// encoder appends delta/varint events to a byte buffer.
type encoder struct {
	buf     []byte
	lastPC  uint64
	lastVPN uint64
}

func (e *encoder) putPC(pc uint64) {
	e.buf = binary.AppendVarint(e.buf, int64(pc-e.lastPC))
	e.lastPC = pc
}

func (e *encoder) access(pc, vpn uint64, instr bool) {
	if instr {
		e.buf = append(e.buf, wireInstrAccess)
		e.putPC(pc)
		return
	}
	e.buf = append(e.buf, wireDataAccess)
	e.putPC(pc)
	e.buf = binary.AppendVarint(e.buf, int64(vpn-e.lastVPN))
	e.lastVPN = vpn
}

func (e *encoder) branch(pc uint64, conditional, indirect, taken bool, target uint64) {
	tag := byte(wireDirBranch)
	if conditional {
		tag = wireCondBranch
	} else if indirect {
		tag = wireIndBranch
	}
	if taken {
		tag |= wireTaken
	}
	e.buf = append(e.buf, tag)
	e.putPC(pc)
	e.buf = binary.AppendVarint(e.buf, int64(target-pc))
}

func (e *encoder) warmup() { e.buf = append(e.buf, wireWarmup) }

// Decoder iterates a captured stream in blocks. It is single-use and
// not safe for concurrent use; take one Decoder per pass.
type Decoder struct {
	buf       []byte
	pos       int
	lastPC    uint64
	lastVPN   uint64
	accesses  uint64 // access events decoded so far
	pageShift uint
	err       error
}

// NextBlock decodes up to len(evs) events and returns how many it
// produced; 0 means the stream is exhausted (or broken — check Err).
// Decode state stays in locals, varints are open-coded, and each
// event's fields are stored selectively, so only the fields meaningful
// for the decoded Kind are valid (an access event's Target, say, holds
// whatever the buffer held before). Consumers must switch on Kind
// before touching the rest, which every view builder does anyway.
func (d *Decoder) NextBlock(evs []Event) int {
	if d.err != nil {
		return 0
	}
	buf, pos := d.buf, d.pos
	lastPC, lastVPN, acc := d.lastPC, d.lastVPN, d.accesses
	shift := d.pageShift
	n := 0
	for n < len(evs) && pos < len(buf) {
		tag := buf[pos]
		pos++
		kind := tag & wireKindMask
		ev := &evs[n]
		if kind == wireWarmup {
			ev.Kind = EventWarmup
			n++
			continue
		}
		delta, p, ok := decodeVarint(buf, pos)
		if !ok {
			d.err = fmt.Errorf("l2stream: corrupt stream: truncated varint at offset %d", pos)
			break
		}
		pos = p
		pc := lastPC + uint64(delta)
		lastPC = pc
		switch kind {
		case wireInstrAccess:
			ev.Kind = EventInstrAccess
			ev.PC = pc
			ev.VPN = pc >> shift
			acc++
		case wireDataAccess:
			delta, p, ok = decodeVarint(buf, pos)
			if !ok {
				d.err = fmt.Errorf("l2stream: corrupt stream: truncated varint at offset %d", pos)
				break
			}
			pos = p
			lastVPN += uint64(delta)
			ev.Kind = EventDataAccess
			ev.PC = pc
			ev.VPN = lastVPN
			acc++
		case wireCondBranch, wireDirBranch, wireIndBranch:
			delta, p, ok = decodeVarint(buf, pos)
			if !ok {
				d.err = fmt.Errorf("l2stream: corrupt stream: truncated varint at offset %d", pos)
				break
			}
			pos = p
			ev.Kind = EventBranch
			ev.PC = pc
			ev.Target = pc + uint64(delta)
			ev.Conditional = kind == wireCondBranch
			ev.Indirect = kind == wireIndBranch
			ev.Taken = tag&wireTaken != 0
		default:
			d.err = fmt.Errorf("l2stream: corrupt stream: unknown event kind %d at offset %d", kind, pos-1)
		}
		if d.err != nil {
			break
		}
		n++
	}
	d.pos, d.lastPC, d.lastVPN, d.accesses = pos, lastPC, lastVPN, acc
	return n
}

// decodeVarint is binary.Varint open-coded against (buf, pos): no
// subslice construction per call, and a branch-light fast path for the
// one- and two-byte encodings that dominate delta streams.
//
//chirp:hotpath
func decodeVarint(buf []byte, pos int) (int64, int, bool) {
	if pos+1 < len(buf) {
		b := buf[pos]
		if b < 0x80 {
			u := uint64(b)
			return int64(u>>1) ^ -int64(u&1), pos + 1, true
		}
		if b2 := buf[pos+1]; b2 < 0x80 {
			u := uint64(b&0x7f) | uint64(b2)<<7
			return int64(u>>1) ^ -int64(u&1), pos + 2, true
		}
	}
	var u uint64
	var shift uint
	for pos < len(buf) {
		b := buf[pos]
		pos++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, pos, false // overflow
			}
			u |= uint64(b) << shift
			return int64(u>>1) ^ -int64(u&1), pos, true
		}
		if shift == 63 {
			return 0, pos, false // overflow
		}
		u |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, pos, false // truncated
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Stream is one captured workload stream: the delta/varint event
// buffer plus the policy-invariant run scalars (instruction totals,
// warmup position, L1 miss counts) that every replay shares. Streams
// are immutable after capture and safe for concurrent replays; the
// only state that grows later is the derived-view memo (derived.go).
type Stream struct {
	cfg Config
	buf []byte // encoded events

	// Derived views (see derived.go): keyed single-flight memos, plus
	// the store file and cache hook, each set once before other
	// goroutines can reach the stream; the mutex guards map and total.
	derivedMu    sync.Mutex
	derived      map[string]*derivedSlot
	derivedBytes int64
	file         *storeFile // nil: not backed by a capture store
	onGrow       func(delta int64)

	records      uint64
	instructions uint64
	events       uint64
	accesses     uint64

	warmed      bool
	warmupAt    uint64
	warmInstrAt uint64
	l1iMisses   uint64 // post-warmup
	l1dMisses   uint64 // post-warmup
}

// Config returns the capture configuration the stream was built under.
func (s *Stream) Config() Config { return s.cfg }

// MemBytes returns the encoded event buffer's size.
func (s *Stream) MemBytes() int { return len(s.buf) }

// Records returns how many trace records the capture consumed.
func (s *Stream) Records() uint64 { return s.records }

// Instructions returns the total committed instruction count.
func (s *Stream) Instructions() uint64 { return s.instructions }

// Events returns the captured event count.
func (s *Stream) Events() uint64 { return s.events }

// Accesses returns the L2 demand access count.
func (s *Stream) Accesses() uint64 { return s.accesses }

// Warmed reports whether the capture reached the warmup boundary.
func (s *Stream) Warmed() bool { return s.warmed }

// WarmupAt returns the configured warmup boundary in instructions.
func (s *Stream) WarmupAt() uint64 { return s.warmupAt }

// WarmupInstructions returns the instruction count at which the warmup
// snapshot fired (the first record boundary at or past WarmupAt).
func (s *Stream) WarmupInstructions() uint64 { return s.warmInstrAt }

// L1IMisses returns the post-warmup L1 instruction-TLB miss count.
func (s *Stream) L1IMisses() uint64 { return s.l1iMisses }

// L1DMisses returns the post-warmup L1 data-TLB miss count.
func (s *Stream) L1DMisses() uint64 { return s.l1dMisses }

// Decode returns a fresh block iterator over the stream's events.
func (s *Stream) Decode() *Decoder {
	return &Decoder{buf: s.buf, pageShift: s.cfg.PageShift}
}

// blockEvents is the block size EachBlock decodes into: large enough
// to amortize the per-block call, small enough to stay in L1.
const blockEvents = 256

// EachBlock streams the whole event sequence through fn, one decoded
// block at a time, and checks that the buffer held exactly Events()
// events, Accesses() of them accesses — so every view built from the
// blocks agrees with the header's counts. The block aliases a buffer reused across calls, so fn must
// not retain it; as with NextBlock, only the fields meaningful for
// each event's Kind are valid.
func (s *Stream) EachBlock(fn func(evs []Event)) error {
	d := s.Decode()
	var blk [blockEvents]Event
	var n uint64
	for {
		k := d.NextBlock(blk[:])
		if k == 0 {
			break
		}
		n += uint64(k)
		fn(blk[:k])
	}
	if err := d.Err(); err != nil {
		return err
	}
	if n != s.events || d.accesses != s.accesses {
		return fmt.Errorf("l2stream: corrupt stream: decoded %d events / %d accesses, header says %d / %d", n, d.accesses, s.events, s.accesses)
	}
	return nil
}

// FootprintBytes is the stream's in-memory cost: the encoded buffer
// plus every derived view materialized so far. The cache accounts
// this against its budget.
func (s *Stream) FootprintBytes() int64 {
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	return int64(len(s.buf)) + s.derivedBytes
}

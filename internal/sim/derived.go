// Derived replay views: the stream-pure precomputations ReplayMulti
// drives policies from. Everything here is a pure function of one
// captured l2stream.Stream plus a small configuration key, never of
// TLB or policy state:
//
//   - replayView: the dense access sequence as struct-of-arrays (PC,
//     VPN, set index for one L2 geometry, instruction-side flag), the
//     warmup boundary's position in it, and the stride prefetcher's
//     fill schedule as a CSR — stride decisions depend only on the
//     demand stream, so they are computed once and only the per-policy
//     Contains gate runs at replay time.
//   - CHiRP signature sequence: per access, the Figure 5 demand
//     signature (pre path-push) and the prefetch-fill signature (post
//     path-push), packed into one uint32. Shared by every CHiRP
//     variant that agrees on the signature-relevant config subset
//     (core.Config.SignatureKey).
//   - GHRP signature sequence: one uint64 per access; GHRP's histories
//     advance only on branches, so it covers the demand hit/insert and
//     any prefetch fills alike.
//
// Each view has an incremental builder fed decoded event blocks;
// viewSpecs lists the views a replay needs, and ReplayMulti hands that
// list to l2stream.Stream.Derive, which builds the missing ones in one
// shared decode pass. The views are memoized on the stream
// (single-flight, budget-accounted) and persisted as sections of the
// stream's store file when it belongs to a -capturedir store, so warm
// sweeps skip both the decode and the signature recomputation.
package sim

import (
	"encoding/binary"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/tlb"
)

// replayView is the dense struct-of-arrays access view for one (L2
// geometry, prefetch distance). All slices are indexed by demand
// access ordinal; it is shared read-only across policies and replays.
type replayView struct {
	pc    []uint64
	vpn   []uint64
	set   []uint32 // VPN & setMask for the keyed geometry
	instr []uint8  // 1 = instruction-side access

	// warmIdx is the number of accesses preceding the warmup marker
	// (len(pc) when the marker trails every access, -1 when the stream
	// has no marker); replay latches warm stats right before access
	// warmIdx, which is where the marker event sat.
	warmIdx int

	// Prefetch fill schedule, CSR over access ordinals: access i's
	// fill candidates are pfVPN[pfOff[i]:pfOff[i+1]]. pfOff is nil
	// when the view was built with prefetching off.
	pfOff []uint32
	pfVPN []uint64
}

func (v *replayView) bytes() int64 {
	return int64(len(v.pc)*8+len(v.vpn)*8+len(v.set)*4+len(v.instr)) +
		int64(len(v.pfOff)*4+len(v.pfVPN)*8)
}

// viewSpecs lists the derived views replaying policies under cfg
// reads: the dense replay view for cfg's L2 geometry and prefetch
// distance first, then the signature sequence of each signature-fed
// policy (CHiRP per signature configuration, GHRP). sigAt[j] is the
// index of policy j's signature view (0 for a policy without one).
// Duplicates are harmless: Derive shares keys.
func viewSpecs(cfg TLBOnlyConfig, policies []tlb.Policy) (specs []*l2stream.DerivedSpec, sigAt []int) {
	specs = []*l2stream.DerivedSpec{replayViewSpec(cfg)}
	sigAt = make([]int, len(policies))
	for j, p := range policies {
		switch pp := p.(type) {
		case *core.CHiRP:
			specs = append(specs, chirpSigSpec(pp.Config()))
		case *policy.GHRP:
			specs = append(specs, ghrpSigSpec)
		default:
			continue
		}
		sigAt[j] = len(specs) - 1
	}
	return specs, sigAt
}

// replayViewSpec is the dense replay view family for cfg's L2
// geometry and prefetch distance.
func replayViewSpec(cfg TLBOnlyConfig) *l2stream.DerivedSpec {
	sets := cfg.Hierarchy.L2.Entries / cfg.Hierarchy.L2.Ways
	pd := cfg.PrefetchDistance
	return &l2stream.DerivedSpec{
		Key: fmt.Sprintf("rv2:s%d:pd%d", sets, pd),
		Build: func(s *l2stream.Stream) l2stream.DerivedBuilder {
			n := int(s.Accesses())
			b := &replayViewBuilder{v: &replayView{
				pc:      make([]uint64, 0, n),
				vpn:     make([]uint64, 0, n),
				set:     make([]uint32, 0, n),
				instr:   make([]uint8, 0, n),
				warmIdx: -1,
			}, mask: uint64(sets - 1)}
			if pd > 0 {
				b.pf = newStridePrefetcher(pd)
				b.v.pfOff = make([]uint32, 1, n+1)
			}
			return b
		},
		Bytes:  func(view any) int64 { return view.(*replayView).bytes() },
		Encode: func(view any) []byte { return encodeReplayView(view.(*replayView)) },
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			return decodeReplayView(s, data, sets, pd)
		},
	}
}

// replayViewBuilder builds a replayView, running the shared stride
// prefetcher over the accesses exactly as a direct run would.
type replayViewBuilder struct {
	v    *replayView
	pf   *stridePrefetcher
	mask uint64
}

func (b *replayViewBuilder) Feed(evs []l2stream.Event) {
	v := b.v
	for i := range evs {
		ev := &evs[i]
		var instr uint8
		switch ev.Kind {
		case l2stream.EventWarmup:
			v.warmIdx = len(v.pc)
			continue
		case l2stream.EventBranch:
			continue
		case l2stream.EventInstrAccess:
			instr = 1
		}
		v.pc = append(v.pc, ev.PC)
		v.vpn = append(v.vpn, ev.VPN)
		v.set = append(v.set, uint32(ev.VPN&b.mask))
		v.instr = append(v.instr, instr)
		if b.pf != nil {
			v.pfVPN = append(v.pfVPN, b.pf.observe(ev.PC, ev.VPN)...)
			v.pfOff = append(v.pfOff, uint32(len(v.pfVPN)))
		}
	}
}

func (b *replayViewBuilder) Finish() any { return b.v }

// encodeReplayView serializes the view as a store-section payload:
// warmIdx+1, then the pc, vpn, instr, pfOff and pfVPN columns. The
// set-index array is recomputed at decode (one mask per access) rather
// than stored.
func encodeReplayView(v *replayView) []byte {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 48+v.bytes()), uint64(v.warmIdx+1))
	out = appendCol(out, v.pc)
	out = appendCol(out, v.vpn)
	out = appendCol(out, v.instr)
	out = appendCol(out, v.pfOff)
	return appendCol(out, v.pfVPN)
}

// decodeReplayView validates a section payload against the stream and
// the view's configuration and rebuilds the in-memory form. ok=false
// means stale — the caller rebuilds from the stream.
func decodeReplayView(s *l2stream.Stream, data []byte, sets, pd int) (*replayView, bool) {
	if len(data) < 8 || binary.LittleEndian.Uint64(data) > s.Accesses()+1 {
		return nil, false
	}
	v := &replayView{warmIdx: int(binary.LittleEndian.Uint64(data)) - 1}
	c := cols{data: data[8:], ok: true}
	v.pc, v.vpn, v.instr = readCol[uint64](&c), readCol[uint64](&c), readCol[uint8](&c)
	v.pfOff, v.pfVPN = readCol[uint32](&c), readCol[uint64](&c)
	n := len(v.pc)
	if !c.ok || len(c.data) != 0 || uint64(n) != s.Accesses() || len(v.vpn) != n || len(v.instr) != n || v.warmIdx > n {
		return nil, false
	}
	for _, x := range v.instr {
		if x > 1 {
			return nil, false
		}
	}
	if pd == 0 {
		if len(v.pfOff)+len(v.pfVPN) != 0 {
			return nil, false
		}
		v.pfOff = nil
	} else {
		if len(v.pfOff) != n+1 || v.pfOff[n] != uint32(len(v.pfVPN)) {
			return nil, false
		}
		for i := 1; i <= n; i++ {
			if v.pfOff[i] < v.pfOff[i-1] {
				return nil, false
			}
		}
	}
	mask := uint64(sets - 1)
	v.set = make([]uint32, n)
	for i, vpn := range v.vpn {
		v.set[i] = uint32(vpn & mask)
	}
	return v, true
}

// sigSpec is a signature-sequence family: one T per access, persisted
// as one column.
func sigSpec[T uint32 | uint64](key string, build func(s *l2stream.Stream) l2stream.DerivedBuilder) *l2stream.DerivedSpec {
	return &l2stream.DerivedSpec{
		Key:    key,
		Build:  build,
		Bytes:  func(view any) int64 { return int64(len(view.([]T)) * binary.Size(T(0))) },
		Encode: func(view any) []byte { return appendCol(nil, view.([]T)) },
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			c := cols{data: data, ok: true}
			sigs := readCol[T](&c)
			return sigs, c.ok && len(c.data) == 0 && uint64(len(sigs)) == s.Accesses()
		},
	}
}

// chirpSigSpec is the CHiRP signature sequence family for cfg's
// signature-relevant configuration: per access, demand signature in
// the low half, prefetch-fill signature in the high half.
func chirpSigSpec(cfg core.Config) *l2stream.DerivedSpec {
	return sigSpec[uint32]("chirp:"+cfg.SignatureKey(), func(s *l2stream.Stream) l2stream.DerivedBuilder {
		return &chirpSigBuilder{q: core.NewSigSequencer(cfg), out: make([]uint32, 0, s.Accesses())}
	})
}

// chirpSigBuilder replays the signature computation over the events
// through the same Histories/signature code the live policy runs
// (core.SigSequencer).
type chirpSigBuilder struct {
	q   *core.SigSequencer
	out []uint32
}

func (b *chirpSigBuilder) Feed(evs []l2stream.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			sig, psig := b.q.OnAccess(ev.PC)
			b.out = append(b.out, uint32(sig)|uint32(psig)<<16)
		case l2stream.EventBranch:
			b.q.OnBranch(ev.PC, ev.Conditional, ev.Indirect)
		}
	}
}

func (b *chirpSigBuilder) Finish() any { return b.out }

// ghrpSigSpec is the GHRP signature sequence family: one signature per
// access, valid for its hit/insert and prefetch fills alike.
var ghrpSigSpec = sigSpec[uint64]("ghrp:gs1", func(s *l2stream.Stream) l2stream.DerivedBuilder {
	return &ghrpSigBuilder{out: make([]uint64, 0, s.Accesses())}
})

type ghrpSigBuilder struct {
	h   policy.GHRPHistory
	out []uint64
}

func (b *ghrpSigBuilder) Feed(evs []l2stream.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case l2stream.EventInstrAccess, l2stream.EventDataAccess:
			b.out = append(b.out, b.h.Signature(ev.PC))
		case l2stream.EventBranch:
			b.h.OnBranch(ev.PC, ev.Conditional, ev.Taken)
		}
	}
}

func (b *ghrpSigBuilder) Finish() any { return b.out }

// appendCol appends a column to dst: its length as a uint64, then its
// elements, little-endian.
func appendCol[T uint8 | uint32 | uint64](dst []byte, xs []T) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(xs)))
	switch xs := any(xs).(type) {
	case []uint8:
		dst = append(dst, xs...)
	case []uint32:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint32(dst, x)
		}
	case []uint64:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	}
	return dst
}

// cols reads appendCol columns back in order. ok turns false, and
// stays false, once a column runs past the payload.
type cols struct {
	data []byte
	ok   bool
}

func readCol[T uint8 | uint32 | uint64](c *cols) []T {
	size := uint64(binary.Size(T(0)))
	if !c.ok || len(c.data) < 8 || binary.LittleEndian.Uint64(c.data) > uint64(len(c.data)-8)/size {
		c.ok = false
		return nil
	}
	n := binary.LittleEndian.Uint64(c.data)
	body := c.data[8 : 8+n*size]
	c.data = c.data[8+n*size:]
	out := make([]T, n)
	switch out := any(out).(type) {
	case []uint8:
		copy(out, body)
	case []uint32:
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
	case []uint64:
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
	}
	return out
}

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
// Each builder streams the stream's varint buffer once through
// l2stream.Stream.EachBlock. The views are memoized on the stream
// (l2stream.Derived: single-flight, budget-accounted) and persisted as
// .l2d files when the stream belongs to a -capturedir store, so warm
// sweeps skip both the decode and the signature recomputation.
package sim

import (
	"encoding/binary"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/policy"
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

// replayViewFor materializes (or recalls) the stream's dense replay
// view for cfg's L2 geometry and prefetch distance.
func replayViewFor(stream *l2stream.Stream, cfg TLBOnlyConfig) (*replayView, error) {
	sets := cfg.Hierarchy.L2.Entries / cfg.Hierarchy.L2.Ways
	pd := cfg.PrefetchDistance
	spec := &l2stream.DerivedSpec{
		Key:   fmt.Sprintf("rv1:s%d:pd%d", sets, pd),
		Build: func(s *l2stream.Stream) (any, error) { return buildReplayView(s, sets, pd) },
		Bytes: func(view any) int64 { return view.(*replayView).bytes() },
		Encode: func(view any) []byte {
			return encodeReplayView(view.(*replayView))
		},
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			return decodeReplayView(s, data, sets, pd)
		},
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.(*replayView), nil
}

// buildReplayView walks the stream's events once, running the shared
// stride prefetcher over the accesses exactly as a direct run would.
func buildReplayView(s *l2stream.Stream, sets, pd int) (*replayView, error) {
	n := int(s.Accesses())
	v := &replayView{
		pc:      make([]uint64, 0, n),
		vpn:     make([]uint64, 0, n),
		set:     make([]uint32, 0, n),
		instr:   make([]uint8, 0, n),
		warmIdx: -1,
	}
	var pf *stridePrefetcher
	if pd > 0 {
		pf = newStridePrefetcher(pd)
		v.pfOff = make([]uint32, 1, n+1)
	}
	mask := uint64(sets - 1)
	err := s.EachBlock(func(evs []l2stream.Event) {
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
			v.set = append(v.set, uint32(ev.VPN&mask))
			v.instr = append(v.instr, instr)
			if pf != nil {
				v.pfVPN = append(v.pfVPN, pf.observe(ev.PC, ev.VPN)...)
				v.pfOff = append(v.pfOff, uint32(len(v.pfVPN)))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(v.pc) != n {
		return nil, fmt.Errorf("sim: replay view decoded %d accesses, stream reports %d", len(v.pc), n)
	}
	return v, nil
}

// encodeReplayView serializes the view as a .l2d payload. The
// set-index array is recomputed at decode (one mask per access) rather
// than stored.
func encodeReplayView(v *replayView) []byte {
	n := len(v.pc)
	size := 8 + 8 + 1 + n*8 + n*8 + n
	if v.pfOff != nil {
		size += len(v.pfOff)*4 + len(v.pfVPN)*8
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, uint64(int64(v.warmIdx)))
	if v.pfOff != nil {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendU64s(out, v.pc)
	out = appendU64s(out, v.vpn)
	out = append(out, v.instr...)
	if v.pfOff != nil {
		out = appendU32s(out, v.pfOff)
		out = appendU64s(out, v.pfVPN)
	}
	return out
}

// decodeReplayView validates a .l2d payload against the stream and
// the view's configuration and rebuilds the in-memory form. ok=false
// means corrupt or stale — the caller rebuilds from the stream.
func decodeReplayView(s *l2stream.Stream, data []byte, sets, pd int) (*replayView, bool) {
	if len(data) < 17 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint64(data))
	warmIdx := int(int64(binary.LittleEndian.Uint64(data[8:])))
	hasPF := data[16]
	if uint64(n) != s.Accesses() || warmIdx < -1 || warmIdx > n {
		return nil, false
	}
	if (hasPF != 0) != (pd > 0) || hasPF > 1 {
		return nil, false
	}
	pos := 17
	fixed := pos + n*8 + n*8 + n
	if hasPF != 0 {
		if len(data) < fixed+(n+1)*4 {
			return nil, false
		}
		nPF := int(binary.LittleEndian.Uint32(data[fixed+n*4:]))
		if len(data) != fixed+(n+1)*4+nPF*8 {
			return nil, false
		}
	} else if len(data) != fixed {
		return nil, false
	}
	v := &replayView{warmIdx: warmIdx}
	v.pc, pos = readU64s(data, pos, n)
	v.vpn, pos = readU64s(data, pos, n)
	v.instr = append([]uint8(nil), data[pos:pos+n]...)
	pos += n
	for i := range v.instr {
		if v.instr[i] > 1 {
			return nil, false
		}
	}
	if hasPF != 0 {
		v.pfOff, pos = readU32s(data, pos, n+1)
		last := uint32(0)
		for _, o := range v.pfOff {
			if o < last {
				return nil, false
			}
			last = o
		}
		v.pfVPN, _ = readU64s(data, pos, int(last))
	}
	mask := uint64(sets - 1)
	v.set = make([]uint32, n)
	for i, vpn := range v.vpn {
		v.set[i] = uint32(vpn & mask)
	}
	return v, true
}

// chirpSigsFor materializes (or recalls) the CHiRP signature sequence
// for cfg's signature-relevant configuration: per access, demand
// signature in the low half, prefetch-fill signature in the high half.
func chirpSigsFor(stream *l2stream.Stream, cfg core.Config) ([]uint32, error) {
	spec := &l2stream.DerivedSpec{
		Key:   "chirp:" + cfg.SignatureKey(),
		Build: func(s *l2stream.Stream) (any, error) { return buildCHiRPSigs(s, cfg) },
		Bytes: func(view any) int64 { return int64(len(view.([]uint32)) * 4) },
		Encode: func(view any) []byte {
			sigs := view.([]uint32)
			out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(sigs)*4), uint64(len(sigs)))
			return appendU32s(out, sigs)
		},
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			if len(data) < 8 {
				return nil, false
			}
			n := int(binary.LittleEndian.Uint64(data))
			if uint64(n) != s.Accesses() || len(data) != 8+n*4 {
				return nil, false
			}
			sigs, _ := readU32s(data, 8, n)
			return sigs, true
		},
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.([]uint32), nil
}

// buildCHiRPSigs replays the signature computation over the stream's
// events once, through the same Histories/signature code the live
// policy runs (core.SigSequencer).
func buildCHiRPSigs(s *l2stream.Stream, cfg core.Config) ([]uint32, error) {
	q := core.NewSigSequencer(cfg)
	out := make([]uint32, 0, s.Accesses())
	err := s.EachBlock(func(evs []l2stream.Event) {
		for i := range evs {
			ev := &evs[i]
			switch ev.Kind {
			case l2stream.EventInstrAccess, l2stream.EventDataAccess:
				sig, psig := q.OnAccess(ev.PC)
				out = append(out, uint32(sig)|uint32(psig)<<16)
			case l2stream.EventBranch:
				q.OnBranch(ev.PC, ev.Conditional, ev.Indirect)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if uint64(len(out)) != s.Accesses() {
		return nil, fmt.Errorf("sim: chirp signature view built %d entries, stream reports %d accesses", len(out), s.Accesses())
	}
	return out, nil
}

// ghrpSigsFor materializes (or recalls) the GHRP signature sequence:
// one signature per access, valid for its hit/insert and prefetch
// fills alike.
func ghrpSigsFor(stream *l2stream.Stream) ([]uint64, error) {
	spec := &l2stream.DerivedSpec{
		Key:   "ghrp:gs1",
		Build: buildGHRPSigs,
		Bytes: func(view any) int64 { return int64(len(view.([]uint64)) * 8) },
		Encode: func(view any) []byte {
			sigs := view.([]uint64)
			out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(sigs)*8), uint64(len(sigs)))
			return appendU64s(out, sigs)
		},
		Decode: func(s *l2stream.Stream, data []byte) (any, bool) {
			if len(data) < 8 {
				return nil, false
			}
			n := int(binary.LittleEndian.Uint64(data))
			if uint64(n) != s.Accesses() || len(data) != 8+n*8 {
				return nil, false
			}
			sigs, _ := readU64s(data, 8, n)
			return sigs, true
		},
	}
	v, err := stream.Derived(spec)
	if err != nil {
		return nil, err
	}
	return v.([]uint64), nil
}

func buildGHRPSigs(s *l2stream.Stream) (any, error) {
	var h policy.GHRPHistory
	out := make([]uint64, 0, s.Accesses())
	err := s.EachBlock(func(evs []l2stream.Event) {
		for i := range evs {
			ev := &evs[i]
			switch ev.Kind {
			case l2stream.EventInstrAccess, l2stream.EventDataAccess:
				out = append(out, h.Signature(ev.PC))
			case l2stream.EventBranch:
				h.OnBranch(ev.PC, ev.Conditional, ev.Taken)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if uint64(len(out)) != s.Accesses() {
		return nil, fmt.Errorf("sim: ghrp signature view built %d entries, stream reports %d accesses", len(out), s.Accesses())
	}
	return out, nil
}

func appendU64s(dst []byte, xs []uint64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

func appendU32s(dst []byte, xs []uint32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, x)
	}
	return dst
}

func readU64s(data []byte, pos, n int) ([]uint64, int) {
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[pos:])
		pos += 8
	}
	return out, pos
}

func readU32s(data []byte, pos, n int) ([]uint32, int) {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[pos:])
		pos += 4
	}
	return out, pos
}

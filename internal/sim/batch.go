package sim

import (
	"fmt"
	"math"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/predict"
)

// This file is the batched form of Step. A fleet advancing N sessions at one
// virtual tick repeats the same planning work for every session whose
// decision inputs coincide — and at scale they coincide massively: sessions
// replaying the same (viewer trace, bandwidth trace) pair from the same join
// offset stay in bit-identical lockstep forever (a property the fleet
// differential tests already pin), so a 100k-session fleet built from a
// trace pool contains only dozens of distinct trajectories.
//
// StepBatch exploits that structurally, not statistically:
//
//   - Each session's decision-relevant residual state is fingerprinted into
//     raw words: (user, trace, next segment) identity plus the exact bits of
//     the wall clock, buffer, previous-choice memory, and the full
//     bandwidth-estimator window (predict.StateBits).
//   - Sessions are grouped by a hash of those words. The hash is only a
//     rendezvous: membership in a group always requires word-for-word
//     equality with the group leader — the exactness guard. A session whose
//     words match no leader becomes a new leader; a session that cannot be
//     fingerprinted falls back to the scalar Step.
//   - The group leader runs plan (plan build, MPC DP, download integration,
//     energy/QoE evaluation) into the group's stepDelta, then apply.
//     Followers run only apply, with the leader's delta.
//
// Followers are bit-identical to the scalar path by construction. Every
// value plan computes is a deterministic function of state the fingerprint
// pins exactly, so the leader's delta is the very delta the follower's own
// plan would have produced; apply is the one mutation path every step
// takes, so the follower performs the same floating-point operations on the
// same operands. Nothing is re-associated, re-ordered, or approximated —
// which is why the shared result survives Float64bits comparison across
// schemes, seeds, and worker counts (see the differential tests here and in
// internal/fleet).

// BatchStats reports how one StepBatch call decomposed its input.
type BatchStats struct {
	// Leaders counts sessions that planned the step for their group.
	Leaders int
	// Replays counts sessions that applied a leader's delta without
	// planning.
	Replays int
	// Fallbacks counts sessions stepped scalar because their state could not
	// be fingerprinted (a link other than a trace, or an estimator without
	// predict.StateBits).
	Fallbacks int
}

// BatchScratch is the reusable workspace of StepBatch: signature storage
// and the group table. One scratch serves one stepper; like the stepper it
// must not be shared by concurrent goroutines.
type BatchScratch struct {
	words  []uint64
	groups []batchGroup
	table  map[batchKey]int32
}

// batchKey is the group rendezvous: shared-trace identity plus the hash of
// the residual-state words.
type batchKey struct {
	user *headtrace.Trace
	net  *lte.Trace
	seg  int
	hash uint64
}

// batchGroup is one leader's signature (words[off:off+n]) and planned
// delta; groups whose keys collide chain through next.
type batchGroup struct {
	off, n int32
	next   int32
	delta  stepDelta
}

// NewBatchScratch returns an empty batch workspace.
func NewBatchScratch() *BatchScratch {
	return &BatchScratch{table: make(map[batchKey]int32)}
}

func (sc *BatchScratch) reset() {
	sc.words = sc.words[:0]
	sc.groups = sc.groups[:0]
	clear(sc.table)
}

// batchFingerprintDisabled forces every session onto the scalar fallback —
// a test hook mirroring disablePlanTables, so the fallback path is
// exercisable end to end.
var batchFingerprintDisabled bool

// batchHashDropBits is a test hook: when non-zero, sigHash drops that many
// low bits of every word before folding, so states that differ only in
// their low mantissa bits rendezvous in one bucket and the exact word
// comparison alone decides membership. Production hashes full words.
var batchHashDropBits uint

// appendSigWords appends state's decision-relevant fingerprint: every datum
// the step reads besides the shared (stepper, user trace, net trace, segment
// index) identity carried in batchKey, and returns the session's trace.
// ok is false when the session cannot be batched: its link is not a pure
// trace (a packet-level link carries per-session queue state outside the
// fingerprint), or its bandwidth estimator does not expose its state (no
// predict.StateBits).
func appendSigWords(dst []uint64, state *State) (_ []uint64, net *lte.Trace, ok bool) {
	if batchFingerprintDisabled {
		return dst, nil, false
	}
	net, isTrace := state.link.(*lte.Trace)
	if !isTrace {
		return dst, nil, false
	}
	sb, fits := state.bw.(predict.StateBits)
	if !fits {
		return dst, nil, false
	}
	var flags uint64
	if state.hasPrevQ0 {
		flags |= 1
	}
	if state.hasPrev {
		flags |= 2
	}
	dst = append(dst, flags, math.Float64bits(state.tWall), math.Float64bits(state.buffer))
	if state.hasPrevQ0 {
		dst = append(dst, math.Float64bits(state.prevQ0))
	}
	if state.hasPrev {
		dst = append(dst, uint64(state.prevChoice.Quality), math.Float64bits(state.prevChoice.FrameRate))
	}
	return sb.AppendStateBits(dst), net, true
}

// sigHash folds the signature words into the rendezvous hash.
func sigHash(words []uint64) uint64 {
	drop := batchHashDropBits
	h := uint64(1469598103934665603)
	for _, w := range words {
		h ^= w >> drop
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// StepBatch advances every session in states by one segment, sharing the
// planning work across decision-identical sessions, and writes each
// session's StepInfo into infos. It is bit-identical to calling Step on each
// state in order. Sessions may be heterogeneous (different traces, segments,
// progress); only provably identical ones share work. On error the batch
// aborts with some sessions already advanced — the same partial-progress
// contract as a scalar loop that errors midway.
func (st *Stepper) StepBatch(sc *BatchScratch, states []*State, infos []StepInfo) (BatchStats, error) {
	var stats BatchStats
	if len(states) != len(infos) {
		return stats, fmt.Errorf("sim: StepBatch infos length %d != states %d", len(infos), len(states))
	}
	if sc == nil {
		return stats, fmt.Errorf("sim: StepBatch needs a scratch")
	}
	sc.reset()

	for i, state := range states {
		base := len(sc.words)
		words, net, ok := appendSigWords(sc.words, state)
		if !ok {
			info, err := st.Step(state)
			if err != nil {
				return stats, err
			}
			infos[i] = info
			stats.Fallbacks++
			continue
		}
		sc.words = words
		sig := sc.words[base:]
		key := batchKey{user: state.user, net: net, seg: state.nextSeg, hash: sigHash(sig)}

		// Probe the bucket; exact word equality decides membership.
		gi, seen := sc.table[key]
		tail := int32(-1)
		for seen {
			g := &sc.groups[gi]
			if wordsEqual(sc.words[g.off:g.off+g.n], sig) {
				break
			}
			if g.next < 0 {
				tail, gi = gi, -1
				break
			}
			gi = g.next
		}
		if seen && gi >= 0 {
			// Follower: apply the leader's delta. Its signature words are
			// no longer needed.
			sc.words = sc.words[:base]
			info, err := st.s.apply(state, &sc.groups[gi].delta)
			if err != nil {
				return stats, err
			}
			infos[i] = info
			stats.Replays++
			continue
		}

		// Leader: plan into the group's delta for followers, then apply.
		sc.groups = append(sc.groups, batchGroup{off: int32(base), n: int32(len(sig)), next: -1})
		ni := int32(len(sc.groups) - 1)
		if tail >= 0 {
			sc.groups[tail].next = ni
		} else {
			sc.table[key] = ni
		}
		info, err := st.step(state, &sc.groups[ni].delta)
		if err != nil {
			return stats, err
		}
		infos[i] = info
		stats.Leaders++
	}
	return stats, nil
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

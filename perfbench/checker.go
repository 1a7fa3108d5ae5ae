package main

import (
	"fmt"

	"abcast/internal/msg"
)

// delivery is one adeliver event observed at a process.
type delivery struct {
	key    uint64 // generator index the payload carries
	sender int    // broadcasting process the payload names
	id     msg.ID // identifier the stack delivered it under
	ok     bool   // the payload's checksum held
	at     int64  // instant of delivery (ns on the workload's clock)
}

// procLog is everything one process delivered during a run, one slice per
// incarnation: a process restarted from its checkpoint starts a new slice.
type procLog struct {
	incs [][]delivery
	// correct is true when the process is up at the end of the run: it must
	// then deliver every message the run requires.
	correct bool
}

// deliver appends d to the current incarnation's log.
func (l *procLog) deliver(d delivery) {
	if len(l.incs) == 0 {
		l.incs = append(l.incs, nil)
	}
	i := len(l.incs) - 1
	l.incs[i] = append(l.incs[i], d)
}

// restart opens a new incarnation's log.
func (l *procLog) restart() { l.incs = append(l.incs, nil) }

// report is the checker's verdict on one run.
type report struct {
	// violations counts safety violations: order disagreement, duplicates,
	// payloads never broadcast or corrupted. Any makes the run incorrect.
	violations int
	// examples describes the first few violations.
	examples []string
	// undelivered counts required messages that some correct process had
	// not delivered by the end of the run.
	undelivered int
	// first[p][key] is the instant process p first delivered key, or -1.
	first [][]int64
}

func (r *report) violate(format string, args ...any) {
	r.violations++
	if len(r.examples) < 8 {
		r.examples = append(r.examples, fmt.Sprintf(format, args...))
	}
}

// checkDeliveries checks a run's delivery logs against the properties of
// uniform atomic broadcast. senders[key] is the process that broadcast the
// message with that generator key; logs is indexed by process (index 0
// unused).
//
//   - Integrity: every delivered payload passes its checksum, was
//     broadcast, names the sender its identifier names, and one identifier
//     always carries the same payload.
//   - No duplicates: an incarnation delivers each message once. A restarted
//     incarnation may redeliver the suffix above its checkpoint, but only in
//     the order the process already delivered it.
//   - Uniform total order: the per-process delivery sequences (incarnations
//     merged) are prefixes of one another.
//   - Validity and uniform agreement: a message broadcast by a correct
//     process, or delivered anywhere, is delivered by every correct process.
//     Misses are counted in undelivered, not as violations: they are a
//     liveness shortfall at the instant the run ended.
func checkDeliveries(senders []int, logs []procLog) report {
	r := report{first: make([][]int64, len(logs))}
	idKey := make(map[msg.ID]uint64, len(senders))
	merged := make([][]uint64, len(logs))
	for p := 1; p < len(logs); p++ {
		pos := make([]int32, len(senders))
		first := make([]int64, len(senders))
		for k := range pos {
			pos[k], first[k] = -1, -1
		}
		var seq []uint64
		for inc, ds := range logs[p].incs {
			start := len(seq)
			if inc > 0 && len(ds) > 0 && ds[0].ok && ds[0].key < uint64(len(senders)) && pos[ds[0].key] >= 0 {
				start = int(pos[ds[0].key])
			}
			idx := start
			for _, d := range ds {
				if !d.ok {
					r.violate("p%d delivered a corrupted payload under id %v", p, d.id)
					continue
				}
				if d.key >= uint64(len(senders)) {
					r.violate("p%d delivered key %d, which was never broadcast", p, d.key)
					continue
				}
				if senders[d.key] != d.sender || int(d.id.Sender) != d.sender {
					r.violate("p%d delivered key %d under id %v; it was broadcast by p%d", p, d.key, d.id, senders[d.key])
					continue
				}
				if k, seen := idKey[d.id]; seen && k != d.key {
					r.violate("id %v carries keys %d and %d", d.id, k, d.key)
					continue
				}
				idKey[d.id] = d.key
				switch {
				case idx < len(seq):
					if seq[idx] != d.key {
						r.violate("p%d incarnation %d redelivered key %d at position %d, where it first delivered key %d", p, inc+1, d.key, idx, seq[idx])
					}
				case pos[d.key] >= 0:
					r.violate("p%d delivered key %d twice (positions %d and %d)", p, d.key, pos[d.key], idx)
					continue
				default:
					pos[d.key] = int32(len(seq))
					first[d.key] = d.at
					seq = append(seq, d.key)
				}
				idx++
			}
		}
		merged[p] = seq
		r.first[p] = first
	}

	longest := 1
	for p := 1; p < len(logs); p++ {
		if len(merged[p]) > len(merged[longest]) {
			longest = p
		}
	}
	for p := 1; p < len(logs); p++ {
		for i, k := range merged[p] {
			if k != merged[longest][i] {
				r.violate("p%d and p%d disagree at position %d (keys %d and %d)", p, longest, i, k, merged[longest][i])
				break
			}
		}
	}

	for k, s := range senders {
		required := s >= 1 && s < len(logs) && logs[s].correct
		for p := 1; p < len(logs) && !required; p++ {
			required = r.first[p][k] >= 0
		}
		if !required {
			continue
		}
		for p := 1; p < len(logs); p++ {
			if logs[p].correct && r.first[p][k] < 0 {
				r.undelivered++
				break
			}
		}
	}
	return r
}

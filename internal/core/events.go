package core

import (
	"fmt"
	"strings"
)

// EventKind classifies translator events for the debug log.
type EventKind uint8

// Event kinds.
const (
	EvTranslate   EventKind = iota // block translated
	EvInvalidate                   // translation discarded
	EvTrap                         // misalignment trap dispatched to the BT
	EvPatch                        // faulting instruction patched to a stub
	EvRearrange                    // block repositioned (§IV-A)
	EvRetranslate                  // block invalidated for re-profiling (§IV-C)
	EvLink                         // exit stub chained to a translated target
	EvFlush                        // full code cache flush
	EvRevert                       // adaptive site reverted to a plain op (§IV-D)
	EvIBTCFill                     // indirect-branch cache entry installed
	EvFault                        // fault-injection plan fired an injection point
	EvDegrade                      // a recovery path degraded down the ladder
	EvGuestFault                   // guest-visible memory fault rewound/delivered
	EvSMC                          // guest store into its own code invalidated state
)

var eventNames = [...]string{
	EvTranslate:   "translate",
	EvInvalidate:  "invalidate",
	EvTrap:        "trap",
	EvPatch:       "patch",
	EvRearrange:   "rearrange",
	EvRetranslate: "retranslate",
	EvLink:        "link",
	EvFlush:       "flush",
	EvRevert:      "revert",
	EvIBTCFill:    "ibtc-fill",
	EvFault:       "fault",
	EvDegrade:     "degrade",
	EvGuestFault:  "guest-fault",
	EvSMC:         "smc",
}

// String returns the event kind name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one translator event, stamped with the simulated cycle count.
type Event struct {
	Kind    EventKind
	Cycle   uint64
	GuestPC uint32 // block or instruction address, when applicable
	HostPC  uint64 // host address, when applicable
	Detail  string
}

// String renders the event as one log line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%12d] %-11s", e.Cycle, e.Kind)
	if e.GuestPC != 0 {
		fmt.Fprintf(&sb, " guest=%#x", e.GuestPC)
	}
	if e.HostPC != 0 {
		fmt.Fprintf(&sb, " host=%#x", e.HostPC)
	}
	if e.Detail != "" {
		sb.WriteByte(' ')
		sb.WriteString(e.Detail)
	}
	return sb.String()
}

// eventLog is a bounded ring buffer of engine events. A nil log is a no-op,
// so recording costs nothing unless enabled.
type eventLog struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

const eventLogCap = 4096

// EnableEventLog turns on event recording (bounded to the most recent 4096
// events). Call before Run.
func (e *Engine) EnableEventLog() {
	if e.events == nil {
		e.events = &eventLog{buf: make([]Event, 0, eventLogCap)}
	}
}

// reset empties the log, keeping its buffer (no-op when disabled). The
// recorded events are zeroed so their Detail strings can be collected.
func (l *eventLog) reset() {
	if l == nil {
		return
	}
	clear(l.buf)
	l.buf = l.buf[:0]
	l.next, l.wrapped, l.dropped = 0, false, 0
}

// Events returns the recorded events, oldest first, and the count of events
// dropped by the ring bound.
func (e *Engine) Events() ([]Event, uint64) {
	l := e.events
	if l == nil {
		return nil, 0
	}
	if !l.wrapped {
		out := make([]Event, len(l.buf))
		copy(out, l.buf)
		return out, l.dropped
	}
	out := make([]Event, 0, eventLogCap)
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out, l.dropped
}

// event records one event (no-op when the log is disabled).
func (e *Engine) event(kind EventKind, guestPC uint32, hostPC uint64, detail string) {
	l := e.events
	if l == nil {
		return
	}
	ev := Event{Kind: kind, Cycle: e.Mach.Counters().Cycles, GuestPC: guestPC, HostPC: hostPC, Detail: detail}
	if len(l.buf) < eventLogCap && !l.wrapped {
		l.buf = append(l.buf, ev)
		if len(l.buf) == eventLogCap {
			l.wrapped = true
			l.next = 0
		}
		return
	}
	l.buf[l.next] = ev
	l.next = (l.next + 1) % eventLogCap
	l.dropped++
}

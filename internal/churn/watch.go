package churn

import (
	"sync"

	"symnet/internal/obs"
	"symnet/internal/verify"
)

// Transition is one reachability-cell flip between consecutive report
// versions: the unit a watch client consumes ("src,dst: Delivered→Failed
// @version").
type Transition struct {
	Src  string `json:"src"`
	Dst  string `json:"dst"`
	From string `json:"from"` // "Delivered" or "Failed"
	To   string `json:"to"`
	// FromPaths/ToPaths are the delivered-path counts on either side.
	FromPaths int `json:"from_paths"`
	ToPaths   int `json:"to_paths"`
	// Version is the report version that introduced the new verdict.
	Version uint64 `json:"version"`
}

// VersionEvent is one published report version as seen by watchers: the
// version number plus every reachability transition it introduced (possibly
// none — noop absorptions still publish).
type VersionEvent struct {
	Version     uint64       `json:"version"`
	Transitions []Transition `json:"transitions,omitempty"`
}

// reachStatus renders a reachability verdict in watch wire vocabulary.
func reachStatus(reachable bool) string {
	if reachable {
		return "Delivered"
	}
	return "Failed"
}

// newEvent converts the raw cell deltas between the previous and given
// version into a VersionEvent, naming cells by source port and target
// element. Only verdict flips become transitions; path-count-only changes
// are not reachability transitions.
func (s *Service) newEvent(pr *PublishedReport, deltas []verify.CellDelta) VersionEvent {
	ev := VersionEvent{Version: pr.Version}
	for _, d := range deltas {
		if !d.Flipped() {
			continue
		}
		ev.Transitions = append(ev.Transitions, Transition{
			Src:       pr.Report.Sources[d.Src].String(),
			Dst:       pr.Report.Targets[d.Dst],
			From:      reachStatus(d.FromReachable),
			To:        reachStatus(d.ToReachable),
			FromPaths: d.FromPaths,
			ToPaths:   d.ToPaths,
			Version:   pr.Version,
		})
	}
	return ev
}

// ringSize bounds the retained VersionEvent history served to long-poll
// clients resuming from an older version (?since=). Clients further behind
// than the ring must re-read the full report.
const ringSize = 256

// Subscription is one watcher's event feed. Events arrives in version order.
// A subscriber that falls more than its buffer behind is cancelled (Events
// is closed) rather than blocking the publisher; the client re-syncs by
// re-reading the current report and re-subscribing.
type Subscription struct {
	// Events delivers one VersionEvent per published version. Closed when
	// the subscriber lags past its buffer or the hub shuts down.
	Events <-chan VersionEvent

	hub *hub
	id  uint64
	ch  chan VersionEvent
}

// Cancel detaches the subscription. Safe to call more than once and
// concurrently with event delivery.
func (sub *Subscription) Cancel() {
	sub.hub.cancel(sub.id)
}

// hub fans published VersionEvents out to subscribers and retains a bounded
// replay ring. The publisher never blocks: a full subscriber is dropped.
type hub struct {
	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	ring   []VersionEvent // last ringSize events, oldest first
	closed bool

	subscribers *obs.Gauge
	events      *obs.Counter
	transitions *obs.Counter
	dropped     *obs.Counter
}

func newHub(reg *obs.Registry) *hub {
	return &hub{
		subs:        make(map[uint64]*Subscription),
		subscribers: reg.Gauge("churn.watch.subscribers"),
		events:      reg.Counter("churn.watch.events"),
		transitions: reg.Counter("churn.watch.transitions"),
		dropped:     reg.Counter("churn.watch.dropped"),
	}
}

// watch subscribes to published versions. buffer bounds how far the
// subscriber may lag before it is dropped (minimum 1).
func (s *Service) watch(buffer int) *Subscription {
	return s.hub.subscribe(buffer)
}

// transitionsSince returns the retained events with Version > since, oldest
// first, and reports whether the history back to since is complete. A false
// second return means the client is beyond the replay ring (or predates it)
// and must re-read the full report instead.
func (s *Service) transitionsSince(since uint64) ([]VersionEvent, bool) {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	ring := s.hub.ring
	if len(ring) == 0 {
		cur := s.cur.Load()
		return nil, cur == nil || cur.Version <= since
	}
	if ring[0].Version > since+1 {
		return nil, false
	}
	var out []VersionEvent
	for _, ev := range ring {
		if ev.Version > since {
			out = append(out, ev)
		}
	}
	return out, true
}

func (h *hub) subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	ch := make(chan VersionEvent, buffer)
	sub := &Subscription{Events: ch, hub: h, id: h.nextID, ch: ch}
	if h.closed {
		close(ch)
		return sub
	}
	h.subs[sub.id] = sub
	h.subscribers.Set(int64(len(h.subs)))
	return sub
}

func (h *hub) cancel(id uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, ok := h.subs[id]; ok {
		delete(h.subs, id)
		close(sub.ch)
		h.subscribers.Set(int64(len(h.subs)))
	}
}

// broadcast appends the event to the replay ring and delivers it to every
// subscriber without blocking; subscribers with no buffer room are dropped
// (their channel closes), so a stalled client can never back-pressure the
// absorber.
func (h *hub) broadcast(ev VersionEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring = append(h.ring, ev)
	if len(h.ring) > ringSize {
		h.ring = h.ring[len(h.ring)-ringSize:]
	}
	h.events.Inc()
	h.transitions.Add(int64(len(ev.Transitions)))
	for id, sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(h.subs, id)
			close(sub.ch)
			h.dropped.Inc()
		}
	}
	h.subscribers.Set(int64(len(h.subs)))
}

// lastEvent returns the most recently broadcast event (zero before the
// first publish).
func (h *hub) lastEvent() VersionEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) == 0 {
		return VersionEvent{}
	}
	return h.ring[len(h.ring)-1]
}

// close drops every subscriber (used by Resident shutdown).
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, sub := range h.subs {
		delete(h.subs, id)
		close(sub.ch)
	}
	h.subscribers.Set(0)
}

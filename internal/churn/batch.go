package churn

import (
	"fmt"
	"slices"
	"time"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/models"
	"symnet/internal/tables"
)

// BatchResult reports how one absorbed batch — any number of deltas staged
// together — was reconciled and re-verified. N deltas to the same table
// collapse into one guard patch per changed port and one dependency-tracked
// re-verification pass over the union of their dirty sources.
type BatchResult struct {
	// Version is the report version this batch published.
	Version uint64 `json:"version"`
	// Deltas is the number of deltas absorbed.
	Deltas int `json:"deltas"`
	// Elems is the number of distinct tables (elements) touched.
	Elems int `json:"elems"`
	// Action is the most expensive absorption tier any element hit.
	Action Action `json:"action"`
	// DirtySources is the size of the union dirty set re-verified.
	DirtySources int `json:"dirty_sources"`
	// CellsReverified counts report cells recomputed by this batch.
	CellsReverified int `json:"cells_reverified"`
	// PortsPatched/PortsRecompiled/ElemsRebuilt break the reconcile down by
	// tier (ports, not deltas: coalesced deltas share a port's single patch).
	PortsPatched    int `json:"ports_patched"`
	PortsRecompiled int `json:"ports_recompiled"`
	ElemsRebuilt    int `json:"elems_rebuilt"`
	// Transitions counts reachability-cell flips vs the previous version.
	Transitions int `json:"transitions"`
	// Elapsed is the wall-clock absorption time for the whole batch.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// window accumulates the address region a batch's deltas can affect on one
// element's guards. Each delta's membership changes are confined to its own
// rule's address window, so the union window bounds the whole batch's and a
// single span-table patch inside it is exact (the replacement spans are
// recomputed from the element's final rule set).
type window struct {
	lo, hi uint64
	set    bool
}

func (w *window) widen(lo, hi uint64) {
	if !w.set || lo < w.lo {
		w.lo = lo
	}
	if !w.set || hi > w.hi {
		w.hi = hi
	}
	w.set = true
}

// elemStage is one element's staged table plus the union window of the
// deltas staged against it.
type elemStage struct {
	isFIB bool
	fib   tables.FIB
	mac   tables.MACTable
	win   window
	n     int // deltas staged against this element
}

// stage accumulates rule deltas against copies of the authoritative tables
// without touching resident state. Add is atomic per delta — an inapplicable
// delta (unknown element, duplicate insert, delete of a missing rule) leaves
// the stage unchanged, so a caller can skip it and keep staging. commit
// reconciles every staged table against the network in one pass: one guard
// patch per changed port, one re-verification of the union dirty set, one
// published report version.
type stage struct {
	svc    *Service
	elems  map[string]*elemStage
	order  []string
	deltas int
}

// newStage opens an empty delta batch against the service's current tables.
func (s *Service) newStage() *stage {
	return &stage{svc: s, elems: make(map[string]*elemStage)}
}

// Deltas returns the number of deltas staged so far.
func (st *stage) Deltas() int { return st.deltas }

// Add stages one delta: validates it and applies it to the staged copy of
// its element's table. On error the stage is unchanged.
func (st *stage) Add(d Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, ok := st.svc.cfg.Net.Element(d.Elem); !ok {
		return fmt.Errorf("churn: unknown element %q", d.Elem)
	}
	if d.Prefix != "" {
		return st.addFIB(d)
	}
	return st.addMAC(d)
}

// elemFor returns the element's stage, creating it from the authoritative
// table on first touch.
func (st *stage) elemFor(elem string, isFIB bool) (*elemStage, error) {
	if es, ok := st.elems[elem]; ok {
		if es.isFIB != isFIB {
			// Cannot happen through Validate (an element is registered as
			// either router or switch), but keep the stage coherent.
			return nil, fmt.Errorf("churn: element %q staged as both router and switch", elem)
		}
		return es, nil
	}
	es := &elemStage{isFIB: isFIB}
	if isFIB {
		fib, ok := st.svc.routers[elem]
		if !ok {
			return nil, fmt.Errorf("churn: element %q is not a registered router", elem)
		}
		es.fib = append(tables.FIB(nil), fib...)
	} else {
		tbl, ok := st.svc.switches[elem]
		if !ok {
			return nil, fmt.Errorf("churn: element %q is not a registered switch", elem)
		}
		es.mac = append(tables.MACTable(nil), tbl...)
	}
	st.elems[elem] = es
	st.order = append(st.order, elem)
	return es, nil
}

func (st *stage) addFIB(d Delta) error {
	pfx, plen, err := tables.ParsePrefix(d.Prefix)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	es, err := st.elemFor(d.Elem, true)
	if err != nil {
		return err
	}
	idx := -1
	for i, r := range es.fib {
		if r.Prefix == pfx && r.Len == plen {
			idx = i
			break
		}
	}
	switch d.Op {
	case OpInsert:
		if idx >= 0 {
			return fmt.Errorf("churn: %s already has route %s", d.Elem, d.Prefix)
		}
		es.fib = append(es.fib, tables.Route{Prefix: pfx, Len: plen, Port: d.Port})
	case OpDelete:
		if idx < 0 {
			return fmt.Errorf("churn: %s has no route %s", d.Elem, d.Prefix)
		}
		es.fib = append(es.fib[:idx:idx], es.fib[idx+1:]...)
	case OpModify:
		if idx < 0 {
			return fmt.Errorf("churn: %s has no route %s", d.Elem, d.Prefix)
		}
		es.fib[idx].Port = d.Port
	}
	es.win.widen(pfx, pfx|hostBits(plen, 32))
	es.n++
	st.deltas++
	return nil
}

func (st *stage) addMAC(d Delta) error {
	mac, err := tables.ParseMAC(d.MAC)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	es, err := st.elemFor(d.Elem, false)
	if err != nil {
		return err
	}
	idx := -1
	for i, en := range es.mac {
		if en.MAC == mac {
			idx = i
			break
		}
	}
	switch d.Op {
	case OpInsert:
		if idx >= 0 {
			return fmt.Errorf("churn: %s already has MAC %s", d.Elem, d.MAC)
		}
		es.mac = append(es.mac, tables.MACEntry{MAC: mac, Port: d.Port})
	case OpDelete:
		if idx < 0 {
			return fmt.Errorf("churn: %s has no MAC %s", d.Elem, d.MAC)
		}
		es.mac = append(es.mac[:idx:idx], es.mac[idx+1:]...)
	case OpModify:
		if idx < 0 {
			return fmt.Errorf("churn: %s has no MAC %s", d.Elem, d.MAC)
		}
		es.mac[idx].Port = d.Port
	}
	es.win.widen(mac, mac)
	es.n++
	st.deltas++
	return nil
}

// commit absorbs the staged batch into the resident service: per element,
// reconcile its changed port guards once (patch inside the union window
// where possible, recompile or rebuild otherwise), then run one
// re-verification pass over the union dirty set and publish the next report
// version. commit on an empty stage publishes nothing and returns an empty
// result.
func (st *stage) commit() (*BatchResult, error) {
	s := st.svc
	if s.report == nil {
		return nil, fmt.Errorf("churn: Apply before Init")
	}
	start := time.Now()
	res := &BatchResult{Deltas: st.deltas, Elems: len(st.order)}
	if st.deltas == 0 {
		return res, nil
	}
	for _, elem := range st.order {
		es := st.elems[elem]
		e, ok := s.cfg.Net.Element(elem)
		if !ok {
			return nil, fmt.Errorf("churn: unknown element %q", elem)
		}
		var err error
		if es.isFIB {
			err = s.commitFIB(e, elem, es, res)
		} else {
			err = s.commitMAC(e, elem, es, res)
		}
		if err != nil {
			return nil, err
		}
	}
	if res.Action == "" {
		res.Action = actionNoop
	}
	if err := s.reverify(res); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	pr := s.publish(s.report, st.deltas)
	res.Version = pr.Version
	if last := s.hub.lastEvent(); last.Version == pr.Version {
		res.Transitions = len(last.Transitions)
	}
	s.deltasApplied.Add(int64(st.deltas))
	s.batchesApplied.Inc()
	s.batchSize.Observe(int64(st.deltas))
	s.batchMax.SetMax(int64(st.deltas))
	s.batchNs.Observe(res.Elapsed.Nanoseconds())
	if st.deltas == 1 {
		// churn.delta_ns keeps its PR-8 meaning: the latency of absorbing a
		// single delta. Coalesced batches land in churn.batch_ns instead.
		s.deltaNs.Observe(res.Elapsed.Nanoseconds())
	}
	return res, nil
}

// commitFIB reconciles one router's staged table against the resident model.
func (s *Service) commitFIB(e *core.Element, elem string, es *elemStage, res *BatchResult) error {
	oldFib := s.routers[elem]
	newFib := es.fib
	ports := newFib.Ports()
	if !slices.Equal(oldFib.Ports(), ports) {
		// Fork list changes: regenerate the whole model.
		if err := models.Router(e, newFib, models.Egress); err != nil {
			return err
		}
		s.rebuiltElems.Inc()
		s.pendingInvalidate = true
		res.ElemsRebuilt++
		res.Action = worse(res.Action, actionRebuilt)
		for i := range s.visitedElem[elem] {
			s.unverified[i] = true
		}
	} else {
		// Each port's guard rows and span table, as models.Router's Egress
		// style builds them.
		oldRows, _ := tables.LPMRows(oldFib, e.NumOut)
		newRows, newSpans := tables.LPMRows(newFib, e.NumOut)
		for _, p := range ports {
			if slices.EqualFunc(oldRows[p], newRows[p], equalRow) {
				continue
			}
			action := s.reconcilePort(e, p, es.win.lo, es.win.hi, models.RouterEgressGuard(newRows[p], newSpans[p]))
			res.Action = worse(res.Action, action)
			res.countPort(action)
			ref := core.PortRef{Elem: elem, Port: p, Out: true}
			s.pendingRefresh = append(s.pendingRefresh, ref)
			for i := range s.visited[ref] {
				s.unverified[i] = true
			}
		}
	}
	s.routers[elem] = newFib
	return nil
}

// equalRow reports whether two guard rows are the same row.
func equalRow(a, b expr.GuardRow) bool {
	return a.Kind == b.Kind && a.V == b.V && a.Len == b.Len && slices.Equal(a.Excl, b.Excl)
}

// commitMAC reconciles one switch's staged table against the resident model.
func (s *Service) commitMAC(e *core.Element, elem string, es *elemStage, res *BatchResult) error {
	oldTbl := s.switches[elem]
	newTbl := es.mac
	ports := newTbl.Ports()
	if !slices.Equal(oldTbl.Ports(), ports) {
		if err := models.Switch(e, newTbl, models.Egress); err != nil {
			return err
		}
		s.rebuiltElems.Inc()
		s.pendingInvalidate = true
		res.ElemsRebuilt++
		res.Action = worse(res.Action, actionRebuilt)
		for i := range s.visitedElem[elem] {
			s.unverified[i] = true
		}
	} else {
		oldBy := oldTbl.ByPort()
		newBy := newTbl.ByPort()
		for _, p := range ports {
			if slices.Equal(oldBy[p], newBy[p]) {
				continue
			}
			action := s.reconcilePort(e, p, es.win.lo, es.win.hi, models.SwitchEgressGuard(newBy[p]))
			res.Action = worse(res.Action, action)
			res.countPort(action)
			ref := core.PortRef{Elem: elem, Port: p, Out: true}
			s.pendingRefresh = append(s.pendingRefresh, ref)
			for i := range s.visited[ref] {
				s.unverified[i] = true
			}
		}
	}
	s.switches[elem] = newTbl
	return nil
}

func (r *BatchResult) countPort(a Action) {
	switch a {
	case actionPatched:
		r.PortsPatched++
	case actionRecompiled:
		r.PortsRecompiled++
	}
}

// applyBatch stages ds in order and commits them as one coalesced batch:
// table updates collapse per element, changed guards patch once per port,
// and a single re-verification pass covers the union dirty set. Staging is
// all-or-nothing — any inapplicable delta fails the whole call before
// resident state is touched (per-delta skip semantics live in
// Resident.Submit).
func (s *Service) applyBatch(ds []Delta) (*BatchResult, error) {
	st := s.newStage()
	for i, d := range ds {
		if err := st.Add(d); err != nil {
			return nil, fmt.Errorf("churn: batch delta %d (%s): %w", i, d, err)
		}
	}
	return st.commit()
}

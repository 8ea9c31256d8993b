package churn

import (
	"fmt"
	"slices"
	"time"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// BatchResult reports how one absorbed batch — any number of deltas staged
// together — was reconciled and re-verified. N deltas to the same table
// collapse into one new guard per changed port and one dependency-tracked
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
	// PortsPatched counts the ports given a new guard (ports, not deltas:
	// coalesced deltas share a port's one new guard), rebuilt elements' ports
	// included; PortsRecompiled those of them whose compiled program was
	// resident and dropped; ElemsRebuilt the elements given a new Fork.
	PortsPatched    int `json:"ports_patched"`
	PortsRecompiled int `json:"ports_recompiled"`
	ElemsRebuilt    int `json:"elems_rebuilt"`
	// Transitions counts reachability-cell flips vs the previous version.
	Transitions int `json:"transitions"`
	// Elapsed is the wall-clock absorption time for the whole batch.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// elemStage is one element's staged table — a router's FIB or a switch's
// MAC table — and, once reconcile builds it, the table's Egress code.
type elemStage struct {
	isFIB bool
	fib   tables.FIB
	mac   tables.MACTable
	code  models.EgressCode
}

// stage accumulates rule deltas against copies of the authoritative tables
// without touching resident state. Add is atomic per delta — an inapplicable
// delta (unknown element, duplicate insert, delete of a missing rule, or a
// table the element's model would refuse) leaves the stage unchanged, so a
// caller can skip it and keep staging. commit reconciles every staged table
// against the network in one pass: one new guard per changed port, one
// re-verification of the union dirty set, one published report version.
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

// Add stages one delta: validates it, applies it to the staged copy of its
// element's table and checks the result as models.Router or models.Switch
// would (models.CheckTable), so commit never meets a table its model
// refuses. On error the stage is unchanged.
func (st *stage) Add(d Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	e, ok := st.svc.cfg.Net.Element(d.Elem)
	if !ok {
		return fmt.Errorf("churn: unknown element %q", d.Elem)
	}
	es, err := st.elemFor(d.Elem, d.Prefix != "")
	if err != nil {
		return err
	}
	if es.isFIB {
		pfx, plen, _ := tables.ParsePrefix(d.Prefix) // Validate parsed it
		i := slices.IndexFunc(es.fib, func(r tables.Route) bool { return r.Prefix == pfx && r.Len == plen })
		err = edit(e, "router", &es.fib, i, d, "route "+d.Prefix,
			tables.Route{Prefix: pfx, Len: plen, Port: d.Port}, func(r *tables.Route) *int { return &r.Port })
	} else {
		mac, _ := tables.ParseMAC(d.MAC) // Validate parsed it
		i := slices.IndexFunc(es.mac, func(m tables.MACEntry) bool { return m.MAC == mac })
		err = edit(e, "switch", &es.mac, i, d, "MAC "+d.MAC,
			tables.MACEntry{MAC: mac, Port: d.Port}, func(m *tables.MACEntry) *int { return &m.Port })
	}
	if err != nil {
		return err
	}
	if _, ok := st.elems[d.Elem]; !ok {
		st.put(d.Elem, es)
	}
	st.deltas++
	return nil
}

// put registers an element's staged table, in reconcile order.
func (st *stage) put(elem string, es *elemStage) {
	st.elems[elem] = es
	st.order = append(st.order, elem)
}

// ruleTable is a forwarding table churn stages: a FIB or a MAC table.
type ruleTable[R any] interface {
	~[]R
	Ports() []int
}

// edit applies d to *tbl, whose row i is the rule d names (i < 0: it has
// none) and to which an insert appends ins. It refuses a duplicate insert,
// a missing rule, and an edited table e's model would refuse
// (models.CheckTable), leaving *tbl's rows as they were: an insert appends
// past their end, a delete copies them, and a refused modify puts the port
// back.
func edit[T ruleTable[R], R any](e *core.Element, kind string, tbl *T, i int, d Delta, rule string, ins R, port func(*R) *int) error {
	t, was := *tbl, 0
	switch {
	case d.Op == OpInsert && i >= 0:
		return fmt.Errorf("churn: %s already has %s", d.Elem, rule)
	case d.Op != OpInsert && i < 0:
		return fmt.Errorf("churn: %s has no %s", d.Elem, rule)
	case d.Op == OpInsert:
		t = append(t, ins)
	case d.Op == OpDelete:
		t = append(t[:i:i], t[i+1:]...)
	default:
		was, *port(&t[i]) = *port(&t[i]), d.Port
	}
	if err := models.CheckTable(e, kind, t.Ports()); err != nil {
		if d.Op == OpModify {
			*port(&t[i]) = was
		}
		return err
	}
	*tbl = t
	return nil
}

// elemFor returns the element's stage, creating an unregistered one from the
// authoritative table on first touch (Add registers it once a delta lands).
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
		es.fib = slices.Clone(fib)
	} else {
		tbl, ok := st.svc.switches[elem]
		if !ok {
			return nil, fmt.Errorf("churn: element %q is not a registered switch", elem)
		}
		es.mac = slices.Clone(tbl)
	}
	return es, nil
}

// commit absorbs the staged batch into the resident service: reconcile
// every staged table once (a new guard per changed port, and a new Fork
// where the port set changed), then run one re-verification pass over the
// union dirty set and publish the next report version. commit on an empty
// stage publishes nothing and returns an empty result.
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
	if err := st.reconcile(res); err != nil {
		return nil, err
	}
	s.patchedPorts.Add(int64(res.PortsPatched))
	s.recompiledPorts.Add(int64(res.PortsRecompiled))
	s.rebuiltElems.Add(int64(res.ElemsRebuilt))
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

// reconcile builds every staged table's Egress code (models.RouterEgress or
// SwitchEgress), installs what differs from each element's code, and makes
// the staged tables resident. It is all or nothing: every element's code is
// built before any is installed, so a table the model refuses leaves the
// network and the tables as they were.
func (st *stage) reconcile(res *BatchResult) error {
	s := st.svc
	for _, name := range st.order {
		e, ok := s.cfg.Net.Element(name)
		if !ok {
			return fmt.Errorf("churn: unknown element %q", name)
		}
		es := st.elems[name]
		var err error
		if es.isFIB {
			es.code, err = models.RouterEgress(e, es.fib)
		} else {
			es.code, err = models.SwitchEgress(e, es.mac)
		}
		if err != nil {
			return err
		}
	}
	for _, name := range st.order {
		e, _ := s.cfg.Net.Element(name)
		es := st.elems[name]
		s.install(e, &es.code, res)
		if es.isFIB {
			s.routers[name] = es.fib
		} else {
			s.switches[name] = es.mac
		}
	}
	return nil
}

// install writes onto e what differs between its installed code and its
// Egress code c, counts it in res, queues each written entry for the Runner
// and marks the sources it may change unverified. A changed port set
// installs the new Fork — the rebuilt tier, which dirties every source that
// visited e — and each port whose guard differs from the installed one gets
// the new guard as its code, compiled on its next run. That dirties the
// sources that visited the port, unless the port's address set did not move:
// a guard with other rows but an equal span table (sameSpans) changes no
// observable of a run, since a run sees a table only through its span table
// (its trace lines and failure messages print it). Restore installs through
// here too.
func (s *Service) install(e *core.Element, c *models.EgressCode, res *BatchResult) {
	if installed, _ := e.Code(core.WildcardPort, false); !sameFork(installed, c.Fork) {
		e.SetInCode(core.WildcardPort, c.Fork)
		res.ElemsRebuilt++
		res.Action = worse(res.Action, actionRebuilt)
		s.pendingRefresh = append(s.pendingRefresh, core.PortRef{Elem: e.Name, Port: core.WildcardPort})
		for i := range s.visitedElem[e.Name] {
			s.unverified[i] = true
		}
	}
	for i, p := range c.Fork.Ports {
		g := c.Guards[i]
		installed, _ := e.Code(p, true)
		if sameGuard(installed, g) {
			continue
		}
		ref := core.PortRef{Elem: e.Name, Port: p, Out: true}
		visitors := s.visited[ref]
		if len(visitors) > 0 && sameSpans(installed, &g) {
			visitors = nil
		}
		if _, ok := e.CachedProgram(p, true); ok {
			res.PortsRecompiled++
		}
		e.SetOutCode(p, g)
		res.PortsPatched++
		res.Action = worse(res.Action, actionPatched)
		s.pendingRefresh = append(s.pendingRefresh, ref)
		for i := range visitors {
			s.unverified[i] = true
		}
	}
}

// sameFork reports whether the installed in[*] code is the Fork f.
func sameFork(installed sefl.Instr, f sefl.Fork) bool {
	was, ok := installed.(sefl.Fork)
	return ok && slices.Equal(was.Ports, f.Ports)
}

// sameGuard reports whether the installed port code is the table guard g,
// row for row: the port needs no new code. It is install's first test;
// sameSpans, which costs a span table, runs only when it fails.
func sameGuard(installed sefl.Instr, g sefl.Constrain) bool {
	was, ok := installedTable(installed)
	return ok && slices.EqualFunc(was.Rows, g.C.(sefl.Table).Rows, equalRow)
}

// sameSpans reports whether the installed port code is a table guard on g's
// field with g's span table: other rows, perhaps, but the same address set.
// It stores g's span table in g, which the port's next compile adopts
// instead of merging it again.
func sameSpans(installed sefl.Instr, g *sefl.Constrain) bool {
	t := g.C.(sefl.Table)
	t.Spans = t.SpanTable()
	g.C = t
	was, ok := installedTable(installed)
	return ok && was.F == t.F && was.SpanTable().Equal(t.Spans)
}

// installedTable returns the table of installed port code that is a table
// guard.
func installedTable(installed sefl.Instr) (sefl.Table, bool) {
	c, ok := installed.(sefl.Constrain)
	if !ok {
		return sefl.Table{}, false
	}
	t, ok := c.C.(sefl.Table)
	return t, ok
}

// equalRow reports whether two guard rows are the same row.
func equalRow(a, b expr.GuardRow) bool {
	return a.Kind == b.Kind && a.V == b.V && a.Len == b.Len && slices.Equal(a.Excl, b.Excl)
}

// applyBatch stages ds in order and commits them as one coalesced batch:
// table updates collapse per element, each changed port gets its new guard
// once, and a single re-verification pass covers the union dirty set.
// Staging is all-or-nothing — any inapplicable delta fails the whole call
// before resident state is touched (per-delta skip semantics live in
// Resident.Apply).
func (s *Service) applyBatch(ds []Delta) (*BatchResult, error) {
	st := s.newStage()
	for i, d := range ds {
		if err := st.Add(d); err != nil {
			return nil, fmt.Errorf("churn: batch delta %d (%s): %w", i, d, err)
		}
	}
	return st.commit()
}

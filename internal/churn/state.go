package churn

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"

	"symnet/internal/tables"
)

// stateSchema versions the snapshot wire format.
const stateSchema = 1

// State is a serializable snapshot of the resident state: the authoritative
// tables plus the published version. It deliberately omits the report — a
// restore re-runs the full verification, so the restored report is
// from-scratch-fresh by construction and the byte-identity invariant holds
// trivially at the restored version.
type State struct {
	Schema        int                        `json:"schema"`
	Version       uint64                     `json:"version"`
	DeltasApplied uint64                     `json:"deltas_applied"`
	Routers       map[string]tables.FIB      `json:"routers,omitempty"`
	Switches      map[string]tables.MACTable `json:"switches,omitempty"`
}

// exportState captures the current tables and version. Single-writer; the
// Resident serializes it with absorption (Resident.Export).
func (s *Service) exportState() *State {
	st := &State{
		Schema:   stateSchema,
		Routers:  make(map[string]tables.FIB, len(s.routers)),
		Switches: make(map[string]tables.MACTable, len(s.switches)),
	}
	if pr := s.current(); pr != nil {
		st.Version = pr.Version
		st.DeltasApplied = pr.DeltasApplied
	}
	for name, fib := range s.routers {
		st.Routers[name] = append(tables.FIB(nil), fib...)
	}
	for name, tbl := range s.switches {
		st.Switches[name] = append(tables.MACTable(nil), tbl...)
	}
	return st
}

// WriteTo serializes the state as JSON.
func (st *State) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// ReadState deserializes and validates a snapshot.
func ReadState(r io.Reader) (*State, error) {
	var st State
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("churn: snapshot decode: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// validate checks the schema, that a version can follow the snapshot's, and
// that every row is one the FIB and MAC-table text parsers could yield.
func (st *State) validate() error {
	if st.Schema != stateSchema {
		return fmt.Errorf("churn: snapshot schema %d, want %d", st.Schema, stateSchema)
	}
	if st.Version == math.MaxUint64 {
		return fmt.Errorf("churn: snapshot version %d leaves no version to restore as", st.Version)
	}
	for _, name := range slices.Sorted(maps.Keys(st.Routers)) {
		for i, r := range st.Routers[name] {
			if !r.Valid() {
				return fmt.Errorf("churn: snapshot router %s: route %d (prefix %#x, len %d, port %d) is not a masked IPv4 prefix to a port",
					name, i, r.Prefix, r.Len, r.Port)
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(st.Switches)) {
		for i, e := range st.Switches[name] {
			if !e.Valid() {
				return fmt.Errorf("churn: snapshot switch %s: entry %d (mac %#x, vlan %d, port %d) is not a 48-bit MAC to a port",
					name, i, e.MAC, e.VLAN, e.Port)
			}
		}
	}
	return nil
}

// restoreState replaces the resident tables with the snapshot's, installs
// what differs between each element's code and the Egress code of its
// snapshot table (as a commit reconciles a staged table), re-runs the full
// verification, and publishes the restored report as the next version. The
// snapshot must cover exactly the elements registered with the service
// (same topology, different rules). Versions stay monotone: the published
// version is one past the maximum of the current and snapshot versions, and
// watchers see the real transitions between the pre- and post-restore
// reports.
func (s *Service) restoreState(st *State) (*PublishedReport, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	if err := keySetsMatch("router", s.routers, st.Routers); err != nil {
		return nil, err
	}
	if err := keySetsMatch("switch", s.switches, st.Switches); err != nil {
		return nil, err
	}
	// reconcile builds every element's code before it installs any, so a
	// snapshot the models refuse leaves the tables, the models and the
	// version as they were.
	stg := s.newStage()
	for _, name := range slices.Sorted(maps.Keys(st.Routers)) {
		stg.put(name, &elemStage{isFIB: true, fib: slices.Clone(st.Routers[name])})
	}
	for _, name := range slices.Sorted(maps.Keys(st.Switches)) {
		stg.put(name, &elemStage{mac: slices.Clone(st.Switches[name])})
	}
	if err := stg.reconcile(&BatchResult{}); err != nil {
		return nil, fmt.Errorf("churn: snapshot: %w", err)
	}
	s.flushRunner()
	rep, err := s.runFull()
	if err != nil {
		return nil, err
	}
	s.report = rep
	// Lift the version past the snapshot's so a restore never rewinds the
	// counter watchers and long-pollers rely on.
	ver := st.Version + 1
	if cur := s.cur.Load(); cur != nil && cur.Version >= ver {
		ver = cur.Version + 1
	}
	return s.publishAs(rep, ver, st.DeltasApplied), nil
}

// keySetsMatch checks that a snapshot covers exactly the registered elements
// of one kind.
func keySetsMatch[V any](kind string, registered, snapshot map[string]V) error {
	have, want := slices.Sorted(maps.Keys(registered)), slices.Sorted(maps.Keys(snapshot))
	if !slices.Equal(have, want) {
		return fmt.Errorf("churn: snapshot %s set %v does not match registered %v", kind, want, have)
	}
	return nil
}

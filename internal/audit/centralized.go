package audit

import (
	"slices"
	"sync"

	"confaudit/internal/logmodel"
	"confaudit/internal/query"
)

// Centralized is the paper's Figure 1 baseline: a single trusted
// auditor that holds every complete log record and evaluates criteria
// directly. It exists as the comparison point for the DLA architecture —
// fast and simple, but it "puts the absolute trust to the single
// auditor" and concentrates the full log in one place.
type Centralized struct {
	mu      sync.RWMutex
	records map[logmodel.GLSN]logmodel.Record
}

// NewCentralized creates an empty centralized log repository.
func NewCentralized() *Centralized {
	return &Centralized{records: make(map[logmodel.GLSN]logmodel.Record)}
}

// Store ingests a full record.
func (c *Centralized) Store(rec logmodel.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records[rec.GLSN] = rec.Clone()
}

// Len returns the number of stored records.
func (c *Centralized) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.records)
}

// Query evaluates an auditing criterion over the full log.
func (c *Centralized) Query(criteria string) ([]logmodel.GLSN, error) {
	var norm *query.Normalized
	if criteria != "*" {
		expr, err := query.Parse(criteria)
		if err != nil {
			return nil, err
		}
		if norm, err = query.Normalize(expr); err != nil {
			return nil, err
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]logmodel.GLSN, 0)
	for g, rec := range c.records {
		if norm == nil {
			out = append(out, g)
			continue
		}
		ok, err := norm.Eval(rec.Values)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Aggregate folds an aggregate over the matching records.
func (c *Centralized) Aggregate(criteria string, kind AggKind, attr logmodel.Attr) (float64, error) {
	glsns, err := c.Query(criteria)
	if err != nil {
		return 0, err
	}
	if kind == AggCount {
		return float64(len(glsns)), nil
	}
	return computeAggregate(centralizedState{c}, kind, attr, glsns)
}

// centralizedState adapts Centralized to the fragment-visiting surface
// aggregation needs.
type centralizedState struct{ c *Centralized }

var _ fragmentVisitor = centralizedState{}

func (s centralizedState) VisitFragments(glsns []logmodel.GLSN, fn func(logmodel.GLSN, map[logmodel.Attr]logmodel.Value) error) error {
	s.c.mu.RLock()
	defer s.c.mu.RUnlock()
	if glsns == nil {
		for g := range s.c.records {
			glsns = append(glsns, g)
		}
	} else {
		glsns = slices.Clone(glsns)
	}
	slices.Sort(glsns)
	for _, g := range glsns {
		if rec, ok := s.c.records[g]; ok {
			if err := fn(g, rec.Values); err != nil {
				return err
			}
		}
	}
	return nil
}

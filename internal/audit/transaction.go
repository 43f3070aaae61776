package audit

import (
	"context"
	"fmt"
	"slices"

	"confaudit/internal/logmodel"
)

// Transaction conformance auditing (paper eq. 1-2 and §4.2): a
// transaction T carries a specification set R_T of boolean rules
// ("correlation, fairness, non-repudiation, atomic, consistency
// checking, irregular pattern detection"); the auditing system examines
// records across DLA nodes "to see whether or not T is executed
// according to the specifications defined in R_T" — without assembling
// the raw records anywhere.
//
// Each rule is an auditing criterion; a record of the transaction that
// fails a rule is a violation. Everything is computed through the
// confidential query engine, so the auditor sees only glsn sets.

// TransactionReport is the conformance verdict for one transaction.
type TransactionReport struct {
	// Attr and Value identify the transaction (e.g. Tid = "T1100265").
	Attr  logmodel.Attr
	Value string
	// Records lists every event of the transaction.
	Records []logmodel.GLSN
	// Violations maps each rule of R_T to the events violating it.
	Violations map[string][]logmodel.GLSN
}

// Conforms reports whether the transaction satisfies every rule.
func (r *TransactionReport) Conforms() bool {
	for _, v := range r.Violations {
		if len(v) > 0 {
			return false
		}
	}
	return true
}

// CheckTransaction audits one transaction against its specification set
// R_T. tidAttr/tidValue select the transaction's records (eq. 1's tsn
// keyed by an audit attribute); rules are auditing criteria that every
// record of the transaction must satisfy (eq. 2).
func (a *Auditor) CheckTransaction(ctx context.Context, tidAttr logmodel.Attr, tidValue string, rules []string) (*TransactionReport, error) {
	base := fmt.Sprintf(`%s = %q`, tidAttr, tidValue)
	records, err := a.Query(ctx, base)
	if err != nil {
		return nil, fmt.Errorf("audit: selecting transaction: %w", err)
	}
	report := &TransactionReport{
		Attr:       tidAttr,
		Value:      tidValue,
		Records:    records,
		Violations: make(map[string][]logmodel.GLSN, len(rules)),
	}
	for _, rule := range rules {
		conforming, err := a.Query(ctx, base+" AND ("+rule+")")
		if err != nil {
			return nil, fmt.Errorf("audit: rule %q: %w", rule, err)
		}
		// Both lists ascend: a record violates the rule when it is
		// missing from the conforming list.
		var violations []logmodel.GLSN
		for _, g := range records {
			if _, pass := slices.BinarySearch(conforming, g); !pass {
				violations = append(violations, g)
			}
		}
		report.Violations[rule] = violations
	}
	return report, nil
}

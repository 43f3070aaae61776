package audit

import (
	"fmt"
	"math"

	"confaudit/internal/logmodel"
)

// fragmentVisitor is the store surface every fragment scan runs
// through. VisitFragments calls fn with the values of each fragment
// held among glsns, or of every fragment held when glsns is nil, in
// ascending glsn order; fn must not keep the values map, which the
// visitor may reuse. An error from fn ends the scan and is returned.
type fragmentVisitor interface {
	VisitFragments(glsns []logmodel.GLSN, fn func(logmodel.GLSN, map[logmodel.Attr]logmodel.Value) error) error
}

// computeAggregate folds an aggregate over the named attribute of the
// matched records, on the attribute's owner node. Only the final scalar
// leaves the node — the confidential-statistics flow of the paper's
// secret-counting reference [7].
func computeAggregate(node fragmentVisitor, kind AggKind, attr logmodel.Attr, glsns []logmodel.GLSN) (float64, error) {
	var (
		sum   float64
		count int
		maxV  = math.Inf(-1)
		minV  = math.Inf(1)
	)
	if glsns == nil {
		glsns = []logmodel.GLSN{} // non-nil: visit only these
	}
	err := node.VisitFragments(glsns, func(_ logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) error {
		v, ok := values[attr]
		if !ok {
			return nil
		}
		var f float64
		switch v.Kind {
		case logmodel.KindInt:
			f = float64(v.I)
		case logmodel.KindFloat:
			f = v.F
		default:
			// Counting does not need a numeric value.
			if kind == AggCount {
				count++
				return nil
			}
			return fmt.Errorf("audit: aggregate %q over non-numeric attribute %q", kind, attr)
		}
		count++
		sum += f
		if f > maxV {
			maxV = f
		}
		if f < minV {
			minV = f
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	switch kind {
	case AggCount:
		return float64(count), nil
	case AggSum:
		return sum, nil
	case AggAvg:
		if count == 0 {
			return 0, nil
		}
		return sum / float64(count), nil
	case AggMax:
		if count == 0 {
			return 0, fmt.Errorf("audit: max over empty match set")
		}
		return maxV, nil
	case AggMin:
		if count == 0 {
			return 0, fmt.Errorf("audit: min over empty match set")
		}
		return minV, nil
	default:
		return 0, fmt.Errorf("audit: unknown aggregate %q", kind)
	}
}

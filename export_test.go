package rasql

import (
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/exec"
)

// BaseFingerprint hashes every physical base side p has published (see
// fixpoint.BaseSlot.Fingerprint); 0 when no execution has built one yet.
func BaseFingerprint(p *Prepared, workers int) uint64 {
	var h uint64
	for i := range p.bases {
		h = h*31 + p.bases[i].Fingerprint(workers)
	}
	return h
}

// ExecCollect runs a script's one query statement down the route every
// final query took before the final stage, and that the local engine and
// non-eligible final queries still take: the fixpoint returns the view, the
// driver collects it, and exec.Query runs the final SELECT over it. The
// final-stage differential holds the engine to this route's rows, in order.
func ExecCollect(e *Engine, src string) (*relation.Relation, error) {
	prog, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	qc := e.cluster.NewQuery(nil)
	defer qc.Finish()
	ctx := exec.NewContext()
	if prog.Clique != nil && len(prog.Clique.Views) > 0 {
		res, err := e.runClique(qc, prog.Clique, nil, ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Bind(ctx)
	}
	return exec.Query(prog.Final, ctx)
}

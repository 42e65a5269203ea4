package shares

import "subgraphmr/internal/cq"

// ModelFromCQ builds the cost model of evaluating one CQ in its own
// map-reduce job (Section 4.1): every subgoal ships the edge relation once,
// so every coefficient is 1.
func ModelFromCQ(q *cq.CQ) Model {
	m := Model{NumVars: q.P}
	for _, sg := range q.Subgoals {
		m.Subgoals = append(m.Subgoals, Subgoal{Vars: []int{sg.Lo, sg.Hi}, Coef: 1})
	}
	return m
}

// ModelFromEdgeUses builds the variable-oriented cost model of Section 4.3
// for evaluating a whole CQ group in one job: one subgoal per sample edge,
// with coefficient 2 when the edge appears in both orientations across the
// CQs (its relation is shipped twice as large) and 1 otherwise.
func ModelFromEdgeUses(p int, uses []cq.EdgeUse) Model {
	m := Model{NumVars: p}
	for _, u := range uses {
		m.Subgoals = append(m.Subgoals, Subgoal{Vars: []int{u.I, u.J}, Coef: u.Coefficient()})
	}
	return m
}

// VariableOrientedModel is a convenience: the Section 4.3 model for a CQ
// set (typically the compiled CQ set of a sample graph).
func VariableOrientedModel(p int, cqs []*cq.CQ) Model {
	return ModelFromEdgeUses(p, cq.EdgeUses(cqs))
}

// Command cqgen prints the conjunctive-query sets the paper's Section 3
// and Section 5 pipelines generate for a sample graph — the machinery
// behind Figures 5, 6 and 7 — and the set every strategy runs: one CQ per
// automorphism orbit of the sample's acyclic orientations, from which the
// edge orientations and shares are derived.
//
// Usage:
//
//	cqgen -sample lollipop          # Section 3: orderings → quotient → merge,
//	                                # then the production set
//	cqgen -cycle 6                  # Section 5: run-sequence CQs for C_6
//	cqgen -sample square -shares 4096
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"subgraphmr"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/perm"
	"subgraphmr/internal/shares"
)

// errUsage signals a flag-parse failure the FlagSet already reported, so
// main exits without printing it a second time.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "cqgen: %v\n", err)
		os.Exit(1)
	}
}

// run executes one cqgen invocation, writing the report to out. It is main
// minus the process plumbing, so tests can pin the generated CQ sets.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cqgen", flag.ContinueOnError)
	var (
		sampleName = fs.String("sample", "", "sample graph name (see sgmr -help)")
		cycleP     = fs.Int("cycle", 0, "generate Section 5 cycle CQs for C_p")
		k          = fs.Float64("shares", 0, "if > 0, also print optimal shares for this reducer budget")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	switch {
	case *cycleP >= 3:
		printCycleCQs(out, *cycleP)
		return nil
	case *sampleName != "":
		s := subgraphmr.NamedSample(*sampleName)
		if s == nil {
			return fmt.Errorf("unknown sample %q", *sampleName)
		}
		return printSampleCQs(out, s, *k)
	default:
		fs.Usage()
		return errUsage
	}
}

func printSampleCQs(out io.Writer, s *subgraphmr.Sample, k float64) error {
	fmt.Fprintf(out, "sample graph: %v\n", s)
	auts := s.Automorphisms()
	fmt.Fprintf(out, "automorphism group: %d elements; Sym(%d) has %d; quotient size %d\n",
		len(auts), s.P(), int(perm.Factorial(s.P())), int(perm.Factorial(s.P()))/len(auts))
	fmt.Fprintln(out)

	all := cq.GenerateForSample(s)
	fmt.Fprintf(out, "== %d CQs, one per coset of Sym(p)/Aut(S) (Theorem 3.1) ==\n", len(all))
	for i, q := range all {
		fmt.Fprintf(out, "%3d. %s\n", i+1, q)
	}
	fmt.Fprintln(out)

	groups := cq.OrientationGroups(all)
	fmt.Fprintf(out, "== orientation groups (Fig. 6 style) ==\n")
	for i, grp := range groups {
		fmt.Fprintf(out, "group %d: CQs %v\n", i+1, grp)
	}
	fmt.Fprintln(out)

	merged := cq.MergeByOrientation(all)
	fmt.Fprintf(out, "== %d merged CQs with OR-ed conditions (Section 3.3, Fig. 7 style) ==\n", len(merged))
	for i, q := range merged {
		exact := ""
		if !q.ExactSimplified {
			exact = "  (condition shown is a relaxation; evaluation uses the exact order set)"
		}
		fmt.Fprintf(out, "%3d. %s%s\n", i+1, q, exact)
	}
	fmt.Fprintln(out)

	prod, err := cq.OrbitCQs(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== %d production CQs (one per Aut-orbit of acyclic orientations) ==\n", len(prod))
	for i, q := range prod {
		fmt.Fprintf(out, "%3d. %s\n", i+1, q)
	}
	fmt.Fprintln(out)

	uses := cq.EdgeUses(prod)
	fmt.Fprintf(out, "== edge orientations across the production set (Section 4.3) ==\n")
	for _, u := range uses {
		kind := "unidirectional (relation size e)"
		if u.Bidirectional() {
			kind = "bidirectional (relation size 2e)"
		}
		fmt.Fprintf(out, "  %s-%s: %s\n", s.Name(u.I), s.Name(u.J), kind)
	}

	if k > 0 {
		fmt.Fprintln(out)
		model := shares.ModelFromEdgeUses(s.P(), uses)
		sol, err := model.Solve(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== optimal shares for k=%v reducers (variable-oriented) ==\n", k)
		for v := 0; v < s.P(); v++ {
			dom := ""
			if sol.Dominated[v] {
				dom = " (dominated)"
			}
			fmt.Fprintf(out, "  share(%s) = %.3f%s\n", s.Name(v), sol.Shares[v], dom)
		}
		fmt.Fprintf(out, "  communication cost: %.2f per data edge\n", sol.CostPerEdge)
		ints := model.RoundShares(sol.Shares, k)
		fs := make([]float64, len(ints))
		for i, v := range ints {
			fs[i] = float64(v)
		}
		fmt.Fprintf(out, "  integer shares %v -> %.2f per edge, %d reducers\n",
			ints, model.CostPerEdge(fs), intProduct(ints))
		degrees := make([]int, s.P())
		for i := range degrees {
			degrees[i] = s.Degree(i)
		}
		if closed, which := shares.Theorem43Shares(s.P(), degrees, uses, k); which != shares.Theorem43None {
			fmt.Fprintf(out, "  Theorem 4.3 %v closed form: %v -> %.2f per edge\n",
				which, closed, model.CostPerEdge(closed))
		}
	}
	return nil
}

func printCycleCQs(out io.Writer, p int) {
	ccs := cycles.Generate(p)
	fmt.Fprintf(out, "== Section 5 run-sequence CQs for C_%d: %d classes ==\n", p, len(ccs))
	fmt.Fprintf(out, "conditional upper bound (2^p-2)/(2p) = %.2f\n\n", cycles.ConditionalUpperBound(p))
	for i, c := range ccs {
		var tags []string
		if c.Period < p {
			tags = append(tags, fmt.Sprintf("period %d", c.Period))
		}
		if c.Palindrome {
			tags = append(tags, "palindrome")
		}
		for _, r := range c.Reflections {
			if r != 0 {
				tags = append(tags, fmt.Sprintf("reflection@%d", r))
			}
		}
		suffix := ""
		if len(tags) > 0 {
			suffix = " [" + strings.Join(tags, ", ") + "]"
		}
		fmt.Fprintf(out, "%2d. orientation %s  runs %v%s\n", i+1, c.Orientation, c.Runs, suffix)
		fmt.Fprintf(out, "    %s\n", c.CQ)
	}
}

func intProduct(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

package bench

// Commentary maps experiment ids to the paper-vs-measured discussion that
// EXPERIMENTS.md embeds under each regenerated table. Keeping the text next
// to the harness keeps the claims and the code that tests them in one
// place.
var Commentary = map[string]string{
	"fig1": `**Paper:** RaSQL-SSSP 14s / RaSQL-CC 10s vs Stratified-SSSP 360s*
(cut, non-terminating on cycles) / Stratified-CC 1200s — the unstratified
queries run orders of magnitude faster, and endo-min SSSP terminates where
the stratified version cannot.
**Measured:** the same shape. The aggregate-in-recursion versions finish in
tens of milliseconds at this scale, the stratified CC is one to two orders
of magnitude slower (its recursion enumerates every propagated label), and
the stratified SSSP hits the non-termination guard and is reported cut
after the meaningful iterations, exactly as the paper's footnote describes.
The gap widens with graph size, which is why the stratified arm runs on a
smaller graph than the other figures.`,

	"fig5": `**Paper:** stage combination gains 3x-5x on REACH and 1.5x-2x
on CC/SSSP.
**Measured:** the same ordering — REACH benefits most (roughly 2x-3.5x),
CC/SSSP roughly 1.2x-2.5x. Combination requires the partition-aware
scheduler, so the uncombined arm also runs under the default
locality-oblivious policy (as on stock Spark); the win comes from half the
stages per iteration plus the inter-iteration locality the paper's
Section 7.1 describes. REACH gains most because its per-iteration compute
is smallest, leaving scheduling and delta-handoff costs dominant.`,

	"fig6": `**Paper:** decomposed execution beats the shuffled plan by
~1.5x-2x, and broadcast compression roughly halves total time on the large
tree graphs (N-40M/N-80M).
**Measured:** the same two steps on every dataset: decomposed+compressed <
decompose-only < no-optimizations. Decomposition removes the per-iteration
shuffle entirely (TC's head carries its partition key), and compression
shrinks the broadcast payload versus shipping the pre-built hashed
relation.`,

	"fig7": `**Paper:** whole-stage code generation gains 10-20% on CC/SSSP
and less on REACH; shuffle-dominated queries see less benefit.
**Measured:** fused kernels beat Volcano iterators consistently; our
magnitudes run somewhat larger than the paper's on REACH at small scale,
because per-row iterator dispatch is proportionally heavier when the data
is scaled down and shuffling is cheaper in-process. The direction and
bounded size of the effect (well under the structural optimizations of
Figures 5/6) match the paper's observation that codegen is the smallest of
the three optimizations.`,

	"fig8": `**Paper:** RaSQL is fastest (REACH) or within 10% (CC, SSSP) of
the best system; Giraph is the closest competitor; GraphX trails by 4x-8x;
Myria is competitive on small graphs but scales poorly.
**Measured:** the Spark-based orderings reproduce: RaSQL beats BigDatalog
(the engine minus stage combination, fused kernels and compressed
broadcast) and both SQL-loop baselines; GraphX trails Giraph by the
stage-structure gap; Myria's shuffle-volume penalty grows with size. One
honest deviation: our Giraph substitute is an idealized native
implementation (dense float arrays, no JVM), and the row-model engine
trails it by a small constant factor (~2-3x on CC) rather than matching it.
The paper's parity depended on JVM-level effects on both sides that a
one-process simulation cannot reproduce; the skew-balance mechanism that
lets RaSQL catch up on real graphs is visible in Figure 9.`,

	"fig9": `**Paper:** on real-world graphs RaSQL ranks 1st on 9 of 12
tests and 2nd on the other 3, roughly 2x over Giraph on REACH/SSSP thanks
to better handling of skew.
**Measured (on skewed RMAT analogs preserving each graph's |E|/|V|):** the
skew mechanism reproduces: the vertex-centric engines suffer larger
max-per-worker times (hub vertices pin whole adjacency lists to one
worker), while RaSQL's tuple-level partitioning stays balanced — visible as
a lower simulated-to-total-work ratio. Absolute rankings against the
idealized native Giraph carry the same constant-factor caveat as Figure 8.`,

	"fig10": `**Paper:** RaSQL is at least 2x faster than GraphX (4x-6x at
300M nodes); Spark-SQL-SN beats Spark-SQL-Naive by ~2x but still trails
RaSQL by 4x+.
**Measured:** the paper's RaSQL-over-GraphX ordering does not reproduce
here: the GraphX model is faster than RaSQL on most rows, by about 1.4-2.8x.
It keeps vertex values in float64 arrays and int64-keyed maps, while RaSQL
moves generic rows. The rest of the ordering holds: RaSQL < SQL-SN <
SQL-Naive on all three queries, though SQL-SN trails RaSQL by less than the
paper's 4x. The SQL loops lose exactly where the paper says they do — every
iteration is an independent job that rebuilds join state, re-broadcasts,
and (for Naive) re-joins and re-aggregates the whole accumulated
relation.`,

	"fig11": `**Paper:** shuffle-hash join always beats sort-merge (the
build side is hashed once and cached across iterations); the gap grows with
size, up to ~4x on SSSP at 128M.
**Measured:** shuffle-hash wins on every cell, with the gap growing with
dataset size — the sort-merge side re-sorts the delta every iteration while
the hash side only probes a cached table (its build cost amortized across
iterations).`,

	"fig12": `**Paper:** scaling from 1-2 workers to 15 yields ~7x (TC) and
~10x (SG) speedups.
**Measured (simulated workers, sequential simulation):** near-linear
scaling for the large TC/SG workloads — the simulated clock records the max
per-worker stage time, so more workers shrink it until skew and
per-stage overhead dominate. Grid TC scales least (long diameter → many
tiny iterations), matching the paper's flattest curve.`,

	"table1": `The four real graphs are not redistributable; the harness
generates skewed RMAT analogs preserving each graph's |E|/|V| ratio at
1/512 of the original vertex counts. The table records paper sizes
alongside the generated ones. The CSV loader accepts the original edge
lists for anyone who has them.`,

	"table2": `Generators are verified in two ways: structural parameters
(Grid150 reproduces the paper's exact 22,801/45,300 vertex/edge counts;
Tree11 uses the paper's height-11, degree 2-6 parameters) and computed
TC/SG output sizes on scaled instances, cross-checked against brute-force
closures in the test suite. The paper's full-size outputs (10^8-10^9 rows)
exceed one machine and are quoted for reference.`,

	"table3": `**Paper:** the serial GAP/COST baselines win on small graphs
(low overhead, no coordination); the distributed systems win at
twitter scale (7x-100x on CC/SSSP for RaSQL).
**Measured:** the serial baselines win throughout at our scaled sizes —
expected, because 1/512-scale analogs sit in the paper's "small graph"
regime where even the paper's own numbers favour GAP/COST. The distributed
systems' advantage appears only beyond single-machine scale, which a
simulation on one machine definitionally cannot reach; we report the same
crossover logic through the Myria/size curves of Figure 8 instead.`,

	"ablations": `Design choices DESIGN.md calls out beyond the paper's own
figures, each toggled independently on SSSP: immutable state (no SetRDD)
pays full-copy unions; hybrid scheduling pays inter-iteration remote
fetches; rebuilding join state each iteration pays the Spark-SQL-loop
penalty in isolation; naive evaluation pays re-derivation of the whole
state every iteration (and the local engines calibrate the distributed
runtime's overhead).`,
}

(** Fixed points of fragment sets (Definition 9).

    F⁺ = \{ ⋈F' | F' ⊆ F, F' ≠ ∅ \} — every fragment obtainable by
    joining any non-empty subset of F.  Because pairwise join is
    monotonic and absorption holds, F⁺ equals ⋈ₙ(F), the n-fold pairwise
    self-join, and Theorem 1 shows k = |⊖(F)| rounds suffice.

    {b Erratum (reproduction finding).}  Theorem 1 as stated is {e false}
    for general fragment sets: with
    F = \{⟨n0,n4⟩, ⟨n0,n2,n3⟩, ⟨n0,n1,n2,n3,n4⟩\} under a root with four
    children, ⊖(F) is a singleton (k = 1, so "zero rounds"), yet
    ⟨n0,n4⟩ ⋈ ⟨n0,n2,n3⟩ = ⟨n0,n2,n3,n4⟩ is a new fragment
    (see test_fixed_point.ml).  The theorem {e does} hold empirically for
    sets of single-node fragments — the only inputs the paper's query
    evaluation ever feeds it (keyword-selected node sets, §2.3) — with no
    counterexample in 65 000 random singleton-seed instances.

    Computation strategies, all returning the same set:
    - {!naive}: iterate [G ← G ⋈ F] with a fixed-point check after every
      round (§3.1.1);
    - {!with_reduction}: fast-forward k−1 = |⊖(F)|−1 unchecked rounds
      (§3.1.2), then verify convergence — sound for every input;
    - {!with_reduction_unchecked}: the paper's exact Theorem 1 recipe,
      exactly k−1 rounds and no check — use only on single-node seeds;
    - {!semi_naive}: delta iteration.

    Each takes an optional [?prune] (default {!Filter.True}, unpruned):
    an anti-monotonic filter pushed inside the fixed point (Theorem 3),
    applied to the seed and bounded before and checked after every
    join — pairs whose join {!Filter.may_join} proves fails the filter
    are never built, and every join that is built is checked with
    {!Filter.evaluate}.  Sound in the sense that
    [σ_prune F⁺ = σ_prune (naive ~prune F)], likewise for the others.

    Every strategy accepts an optional [?deadline] ({!Deadline.t},
    default {!Deadline.none}): checked at the top of every round and
    once per row inside the round's pairwise join, so a runaway fixed
    point aborts with {!Deadline.Expired} between whole joins. *)

val naive :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?prune:Filter.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t

val semi_naive :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?prune:Filter.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t
(** Delta iteration (the classic datalog optimization; the paper's
    "algorithms to implement all the operations" future work): each round
    joins only the fragments *discovered in the previous round* against
    the seed, instead of the whole accumulated set.  Correct because
    join results involving two old fragments were already produced in an
    earlier round.  Performs strictly fewer joins than {!naive} after the
    first round; answers are identical (property-tested).  [prune]
    (default {!Filter.True}) prunes anti-monotonically as in
    {!naive}. *)

val with_reduction :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?prune:Filter.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t

val with_reduction_unchecked :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  ?prune:Filter.t ->
  ?reduced:Frag_set.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t
(** Theorem 1 verbatim: exactly |⊖(F)|−1 pairwise-join rounds, no
    convergence check.  Correct when every member of the input is a
    single-node fragment (the paper's use case); may under-compute on
    general inputs — see the erratum above.  With [prune], the round
    count is |⊖(σ_prune F)|−1, and the result is still correct for
    single-node seeds and anti-monotonic [prune] (σ_prune of the answer
    is reached within that round count — see the induction in
    DESIGN.md).  [reduced], when given, must be ⊖ of the pruned input
    computed against the same context — it skips the internal reduce
    so a caller that already reduced the seed (e.g. the Auto-strategy
    probe's [Reduce] plan node) does not pay for it twice. *)

val iterate :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  int ->
  Frag_set.t ->
  Frag_set.t
(** [iterate ctx n f] is ⋈ₙ(F): the pairwise self-join applied to [n]
    copies of [F] (so [iterate ctx 1 f = f]).
    @raise Invalid_argument if [n < 1]. *)

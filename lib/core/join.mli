(** Fragment join (Definition 4) and pairwise fragment join
    (Definition 5).

    [fragment ctx f1 f2] is the minimal fragment containing both inputs.
    Because f1 and f2 are themselves connected, that minimal fragment is
    exactly [f1 ∪ f2 ∪ path(root f1, root f2)]:

    - it is connected (f1 reaches its root r1; the tree path joins r1 to
      r2; f2 hangs off r2), and
    - any fragment containing f1 and f2 contains r1 and r2, and a
      connected node set containing two nodes necessarily contains the
      unique tree path between them, hence this whole set — so it is the
      minimum, and in particular unique.

    The algebraic laws of Definition 4 (idempotency, commutativity,
    associativity, absorption) follow and are property-tested.

    Every operation accepts an optional [?cache] ({!Join_cache.t}):
    when given, single-fragment joins are memoized by interned operand
    identity, answering repeats in O(1) without recomputing the LCA
    path or the node-set unions.  Answers are unchanged (the cache only
    replays previously computed results for the same context
    generation); accounting moves from [fragment_joins] to
    [cache_hits] for the joins avoided.

    The set-level operations also accept an optional [?deadline]
    ({!Deadline.t}, default {!Deadline.none}): the pairwise loops call
    {!Deadline.check} once per outer-operand row, between whole
    fragment joins, so a long-running join product aborts with
    {!Deadline.Expired} without ever interrupting a cache update. *)

val fragment :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  Context.t ->
  Fragment.t ->
  Fragment.t ->
  Fragment.t
(** f1 ⋈ f2. *)

val fragment_many :
  ?stats:Op_stats.t -> ?cache:Join_cache.t -> Context.t -> Fragment.t list -> Fragment.t
(** ⋈{f1, …, fn} — left fold of {!fragment}.
    @raise Invalid_argument on the empty list. *)

val max_size_hint : int
(** Cap on builder pre-allocation in the pairwise loops: the |F1|·|F2|
    upper bound is used as the initial table size only up to this many
    buckets (2^20); larger outputs grow the table organically instead of
    pre-allocating gigabytes for a product that overwhelmingly
    collapses. *)

val pairwise :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t ->
  Frag_set.t
(** F1 ⋈ F2 = { f1 ⋈ f2 | f1 ∈ F1, f2 ∈ F2 } (duplicates collapse).
    With an enabled [trace], records a [pairwise-join] span carrying the
    operand and result cardinalities. *)

val pairwise_filtered :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  prune:Filter.t ->
  Frag_set.t ->
  Frag_set.t ->
  Frag_set.t
(** Pairwise join that keeps only results passing [prune] — the
    primitive behind Theorem 3 push-down evaluation.  Every pair is
    bounded before and checked after: {!Filter.may_join} first rejects,
    in O(1), pairs whose join is sure to fail [prune] — those are never
    materialized, never probe [cache] and never count as
    [fragment_joins] — and {!Filter.evaluate} then checks each join that
    is built.  Both come from the one [prune] value, so they cannot
    disagree.  Every pair counts as a candidate; a pair rejected either
    way also counts as [pruned].  Only sound for pushing below further joins when [prune]
    is anti-monotonic (the caller guarantees this). *)

val pairwise_parallel :
  ?stats:Op_stats.t ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?domains:int ->
  ?prune:Filter.t ->
  Context.t ->
  Frag_set.t ->
  Frag_set.t ->
  Frag_set.t
(** {!pairwise_filtered} (default [prune]: {!Filter.True}) with the outer
    operand partitioned across
    OCaml 5 domains (default: [Domain.recommended_domain_count], capped
    at 8).  The context is only read, so sharing it is safe; results are
    merged deterministically.  Falls back to the sequential path for
    small inputs.  [stats] is updated once at the end with the summed
    per-domain counters plus the cross-domain duplicate collapses, so
    [candidates], [duplicates] and [pruned] match what the sequential
    join reports on the same input.  [cache] is honored only on the
    sequential fallback — the memo table is not domain-safe, so workers
    always compute their joins directly. *)

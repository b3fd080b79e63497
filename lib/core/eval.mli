(** Query evaluation strategies (§4).

    All strategies compute the same answer set
    σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm); they differ in how much work they do:

    - {!Brute_force} (§4.1): literal powerset join of the keyword node
      sets, then one final selection.  Exponential; refuses keyword sets
      larger than the powerset guard.
    - {!Naive_fixpoint} (§3.1.1): Theorem 2 with the dynamic-programming
      fixed point (convergence checked each round).
    - {!Set_reduction} (§4.2): Theorem 2 with Theorem 1's pre-computed
      round count |⊖(F)|.
    - {!Pushdown} (§4.3): additionally pushes the anti-monotonic part of
      the filter below every join, inside fixed-point rounds included
      (Theorem 3).  The non-anti-monotonic residual is applied in a final
      selection, so answers are unchanged.
    - {!Pushdown_reduction}: the full §4.3 pipeline — Theorem 3 pruning
      combined with Theorem 1's pre-computed round count on the pruned
      seeds (valid: pruned keyword seeds are still single-node sets).
    - {!Semi_naive}: Theorem 3 pruning with delta-iterated fixed points —
      each round joins only the previous round's discoveries against the
      seed (see {!Fixed_point.semi_naive}).
    - {!Auto}: the §5 rules of {!compile}.

    When [strict_leaf_semantics] is set, answers are additionally
    filtered by Definition 8's leaf-occurrence requirement (see
    {!Query}).

    Every strategy is a {!Plan.t} shape.  {!compile} is the one step
    from a request to a plan, and this module holds the one executor:
    {!exec} (the query path) and {!exec_recorded} (EXPLAIN ANALYZE) run
    the same compiled plan, the latter with a per-node recorder. *)

type strategy = Exec.strategy =
  | Brute_force
  | Naive_fixpoint
  | Set_reduction
  | Pushdown
  | Pushdown_reduction
  | Semi_naive
  | Auto
(** Re-export of {!Exec.strategy} — the type lives with the request
    API; this equation keeps [Eval.Auto]-style code compiling. *)

type outcome = {
  answers : Frag_set.t;
  stats : Op_stats.t;
  strategy_used : strategy;  (** [Auto] resolved to a concrete strategy *)
  keyword_node_counts : (string * int) list;
      (** posting-list size per query keyword *)
  elapsed_ns : int;  (** wall-clock time of the whole evaluation *)
  phase_ns : (string * int) list;
      (** coarse wall-clock breakdown, in execution order: [scan]
          (posting-list lookups and compiling, Auto's probe included),
          [evaluate] (joins, fixed points, final selection) and, when
          requested, [strict-leaf].  Measured with a handful of clock reads, so it
          is present whether or not tracing is enabled. *)
}

val strategy_name : strategy -> string

val strategy_of_string : string -> (strategy, string) result
(** Recognizes [brute-force], [naive], [set-reduction], [pushdown],
    [pushdown-reduction], [semi-naive], [auto]. *)

val all_strategies : strategy list
(** The six concrete strategies (without [Auto]). *)

type compiled = {
  strategy : strategy;  (** concrete: [Auto] resolved *)
  plan : Plan.t;
  probe : Plan.t list;
      (** the Auto probe's [Reduce] nodes, evaluated while compiling —
          shared with [plan] when set reduction won, otherwise run but
          unused; [[]] when no probe ran *)
}

val compile : Context.t -> Exec.Request.t -> compiled
(** The request's plan: the strategy's shape over the keyword scans,
    the final selection, and Definition 8's σ when [strict_leaf] is
    set.  Auto follows the measured rules (bench E1/A1): semi-naive
    with Theorem 3 pruning whenever the filter has an anti-monotonic
    part; otherwise a ⊖ probe of the keyword sets (when none has more
    than 48 nodes) picks set reduction when a reduction factor reaches
    0.25 (the paper's [v]), else semi-naive.  A keyword without
    postings compiles to its empty scan.  Compiling runs the scans and
    the probe (their results decide the plan); {!exec} does the same
    inside the evaluation, so nothing runs twice there.
    @raise Invalid_argument if the request has no usable keyword. *)

val execute : Context.t -> Plan.t -> Frag_set.t
(** Run any plan (e.g. a {!Rewrite} result) on the executor.
    @raise Invalid_argument on a malformed plan node. *)

val exec : ?clock:Xfrag_obs.Clock.t -> Context.t -> Exec.Request.t -> outcome
(** Evaluate an {!Exec.Request.t} — the primary entry point; the CLI,
    the HTTP endpoints, and the sharded corpus engine all build one
    request value and land here.  A keyword with an empty posting list
    makes the answer empty (conjunctive semantics).  The request's
    [limit] is presentation-side and is {e not} applied here: [answers]
    is always the full set (the corpus engine and the endpoints
    truncate).

    [request.cache], when set, memoizes fragment joins across the whole
    evaluation (and across evaluations sharing the cache) — see
    {!Join_cache}.  Answers are unchanged; [stats] gains
    [cache_hits]/[cache_misses]/[cache_evictions] and [fragment_joins]
    counts only the joins actually computed.

    With an enabled [request.trace] (default
    {!Xfrag_obs.Trace.disabled}, which costs nothing), the evaluation is
    recorded as a span tree rooted at [query] — see {!Xfrag_obs.Export}.
    [clock] only affects the [elapsed_ns] / [phase_ns] measurements
    (injectable for deterministic tests).  [request.deadline] bounds the
    evaluation in wall-clock: every strategy's inner loops check it
    between whole fragment joins and abort with {!Deadline.Expired} once
    it passes — a shared cache is never left mid-update (see
    {!Deadline}).
    @raise Deadline.Expired once [request.deadline] passes.
    @raise Invalid_argument if the request has no usable keyword, or if
    [Brute_force] is asked to enumerate a keyword set above the
    exponential-enumeration guard. *)

type record = {
  rows : int;  (** output cardinality *)
  in_rows : int list;  (** input cardinalities, one per child *)
  self_ns : int;  (** clock time of the operator alone, inputs excluded *)
  counters : (string * int) list;
      (** non-zero {!Op_stats} deltas (cache counters included) charged
          while the operator ran *)
}
(** What the recorder saw one plan node do. *)

val exec_recorded :
  ?clock:Xfrag_obs.Clock.t ->
  Context.t ->
  Exec.Request.t ->
  outcome * compiled * (Plan.t * record) list
(** {!exec} with the per-node recorder on: the same compile, cache
    attachment and execution, plus the compiled plan and the record of
    every physical node that ran (probe included).  [clock] times the
    nodes as well as the outcome.  The records' counters sum to the
    outcome's stats. *)

val run :
  ?strategy:strategy ->
  ?strict_leaf_semantics:bool ->
  ?cache:Join_cache.t ->
  ?trace:Xfrag_obs.Trace.t ->
  ?clock:Xfrag_obs.Clock.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  Query.t ->
  outcome
(** @deprecated Thin wrapper kept for one release: builds an
    {!Exec.Request.t} from the optional arguments and calls {!exec}.
    New code should construct the request with the {!Exec.Request}
    builders instead.  Semantics are exactly {!exec}'s. *)

val answers :
  ?strategy:strategy ->
  ?strict_leaf_semantics:bool ->
  ?cache:Join_cache.t ->
  ?deadline:Deadline.t ->
  Context.t ->
  Query.t ->
  Frag_set.t
(** [run] without the accounting.
    @deprecated Same wrapper status as {!run}: prefer
    [(Eval.exec ctx request).answers]. *)

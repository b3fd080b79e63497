(** EXPLAIN ANALYZE: run a request's compiled plan with the executor's
    per-node recorder on and annotate every operator with what it did —
    time, input and output cardinalities, and the operation-counter
    deltas (joins, pruned, duplicates, cache hits, …) it was charged.

    The plan is the one {!Eval.compile} builds and {!Eval.exec} runs:
    same strategy (the request's, or Auto's choice), same strict-leaf
    σ, same cache attachment.  So the answers are {!Eval.exec}'s and the
    counters summed over the tree are its stats.  {!Cost} only prices
    the compiled plan; it chooses nothing.

    Timings use an injectable {!Xfrag_obs.Clock.t}; pass
    {!Xfrag_obs.Clock.counter} to make the rendering deterministic
    (snapshot tests). *)

type node = {
  op : string;  (** {!Plan.label}, e.g. ["σ size<=3"] or ["⋈"] *)
  rows : int;  (** output cardinality *)
  in_rows : int list;  (** input cardinalities, one per child *)
  self_ns : int;  (** time of this operator, children excluded *)
  counters : (string * int) list;
      (** non-zero {!Op_stats} deltas recorded while this operator ran
          (children excluded) *)
  children : node list;
      (** a node shared with an earlier part of the tree is shown once
          in full, then as a childless reference with no time or
          counters *)
}

type report = {
  query : Query.t;
  strategy : Exec.strategy;  (** concrete: Auto resolved *)
  plan : Plan.t;  (** the compiled plan that ran *)
  estimated_cost : float;  (** the {!Cost} estimate of [plan] *)
  probe : node list;  (** the Auto probe's ⊖ nodes; [[]] when none ran *)
  root : node;
  answers : Frag_set.t;
  total_ns : int;  (** sum of every node's [self_ns], probe included *)
}

val analyze_request : ?clock:Xfrag_obs.Clock.t -> Context.t -> Exec.Request.t -> report
(** Evaluate the request as {!Eval.exec} does, recording every node —
    the entry point of [POST /explain] and [xfrag query
    --explain-analyze].
    @raise Deadline.Expired once the request deadline passes.
    @raise Invalid_argument when no keyword survives normalization. *)

val total_ns : node -> int
(** Inclusive time: [self_ns] plus all descendants. *)

val pp_node : Format.formatter -> node -> unit

val pp : Format.formatter -> report -> unit
(** The full report: query, strategy, plan, estimated cost, measured
    total, the probe's nodes (when it ran) and the indented
    per-operator tree. *)

val plans : Context.t -> Exec.Request.t -> string
(** Without executing the plans: the initial plan, the Auto probe's
    reduction factors (when the rules probe), every concrete strategy's
    compiled plan priced by {!Cost} with the one Auto compiles to
    marked, and that plan's evaluation tree.  Used by [xfrag explain]. *)

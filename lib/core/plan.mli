(** Query-evaluation trees (the trees of Figure 5) — the one plan IR.

    Every evaluation strategy is a plan shape: {!Eval.compile} turns a
    request into a plan, and {!Eval}'s one executor runs it (for
    [POST /query], EXPLAIN ANALYZE and the {!Rewrite} tests alike).  The
    initial plan of a query is the paper's evaluation formula
    σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm).

    A plan may share a subplan physically (the Auto probe's {!Reduce}
    node reads the same scan as the fixed point that consumes it); the
    executor evaluates each physical node once. *)

type fixpoint =
  | Naive  (** convergence checked after every round (§3.1.1) *)
  | Semi_naive
      (** delta iteration: each round joins only the previous round's
          discoveries (see {!Fixed_point.semi_naive}) *)
  | Reduced
      (** Theorem 1 fast-forward through |⊖|−1 rounds, then checked —
          sound for every input *)
  | Reduced_unchecked of t option
      (** Theorem 1 verbatim: |⊖|−1 rounds, no check — only for
          single-node seeds.  The optional node is a {!Reduce} of the
          same input (the Auto probe's output), consumed instead of
          reducing again. *)

and t =
  | Scan_keyword of string  (** σ_{keyword=k}(nodes D) *)
  | Select of Filter.t * t  (** σ_P *)
  | Strict_leaf of string list * t
      (** Definition 8's leaf-occurrence σ over the given keywords *)
  | Join of Filter.t * t list
      (** F1 ⋈ … ⋈ Fm, left to right, keeping only results that pass
          the anti-monotonic prune filter ({!Filter.True}: unpruned) *)
  | Power_join of t list  (** F1 ⋈* … ⋈* Fm by literal subset enumeration *)
  | Fixed_point of fixpoint * Filter.t * t
      (** F⁺ by the given algorithm, pruned inside its rounds by the
          anti-monotonic filter (Theorem 3; {!Filter.True}: unpruned) *)
  | Reduce of t  (** ⊖F (Definition 10) *)

val initial : Query.t -> t
(** σ_P(F1 ⋈* … ⋈* Fm). *)

val children : t -> t list
(** Direct inputs, in evaluation order. *)

val operator_count : t -> int
(** Number of operator nodes in the plan tree (a shared node counts at
    every occurrence). *)

val label : t -> string
(** One-line operator name used by {!pp_tree} and EXPLAIN, e.g.
    ["⋈ [prune size<=3]"]. *)

val pp : Format.formatter -> t -> unit
(** One-line algebraic rendering, e.g. [σ_size<=3(F(xquery)⁺ ⋈ F(optimization)⁺)]. *)

val pp_tree : Format.formatter -> t -> unit
(** Multi-line indented rendering of the evaluation tree (Figure 5
    style). *)

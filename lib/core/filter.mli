(** Selection predicates ("filters", Definition 3) with an
    anti-monotonicity classification (Definition 11).

    A filter P is anti-monotonic iff P(f) implies P(f') for every
    subfragment f' ⊆ f.  Only such filters commute with join (Theorem 3)
    and may be pushed below join operations.  {!is_anti_monotonic} is a
    sound syntactic classification: [true] guarantees the property;
    [false] means "not guaranteed" (e.g. [Not] of an anti-monotonic
    filter, which the paper shows does not preserve the property).

    Filters that inspect keywords or labels need the document context, so
    evaluation takes a {!Context.t}. *)

type t =
  | True  (** satisfied by every fragment; anti-monotonic *)
  | Size_at_most of int  (** size(f) ≤ β (§3.3.1); anti-monotonic *)
  | Size_at_least of int  (** the paper's example of a non-anti-monotonic filter (§3.4) *)
  | Height_at_most of int  (** height(f) ≤ h (§3.3.2); anti-monotonic *)
  | Span_at_most of int  (** pre-order span ≤ w — the "horizontal distance" filter (§3.3.2); anti-monotonic *)
  | Diameter_at_most of int
      (** max tree distance (edges) between any two member nodes ≤ d;
          anti-monotonic — a node subset can only shrink the maximum *)
  | Width_at_most of int
      (** leaf-rank distance between the fragment's extreme nodes ≤ w —
          the paper's horizontal-distance filter (§3.3.2), see
          {!Fragment.width}; anti-monotonic *)
  | Depth_under of int  (** every node's absolute document depth ≤ d; anti-monotonic *)
  | Labels_among of string list  (** every node's label is in the list; anti-monotonic *)
  | Contains_keyword of string  (** some node's text contains the keyword; monotonic, hence NOT anti-monotonic *)
  | Root_label_is of string  (** fragment root has this label; not anti-monotonic *)
  | Equal_depth of string * string
      (** the paper's 'equal depth filter' (§3.4): every node containing
          the first keyword is at the same distance from the fragment
          root as every node containing the second; NOT anti-monotonic *)
  | Not of t
  | And of t * t
  | Or of t * t

val evaluate : Context.t -> t -> Fragment.t -> bool

val may_join : Context.t -> t -> Fragment.t -> Fragment.t -> bool
(** [may_join ctx p f1 f2] is a conservative O(1) pre-join test: it
    returns [false] only when [f1 ⋈ f2] is sure to fail [p], without
    building the join.  With roots r1, r2, l = lca(r1, r2) and d the
    document depth (the join is f1 ∪ f2 ∪ path(r1, r2), rooted at l):
    - [Size_at_most β]: when neither root is an ancestor of the other
      the size is exactly |f1| + |f2| + d(r1) + d(r2) − 2·d(l) − 1 (the
      subtrees are disjoint and the path adds only strict ancestors);
      when l = r1 it is at least max(|f1|, |f2| + d(r2) − d(r1)), and
      symmetrically when l = r2;
    - [Span_at_most w]: the span is exactly max(max f1, max f2) − l;
    - [Height_at_most h]: the height is at least max(d(r1), d(r2)) − d(l);
    - [And]/[Or] combine their children's answers;
    - every other term answers "may pass".

    Apply it to [ctx] and [p] once and reuse the closure: a filter with
    no bounded term returns a constant [true] test. *)

val is_anti_monotonic : t -> bool
(** Sound syntactic classification (conjunction and disjunction preserve
    the property; negation and the inherently non-anti-monotonic leaves
    do not). *)

val conjuncts : t -> t list
(** Flatten nested [And]s. *)

val conjoin : t list -> t
(** Inverse of {!conjuncts}; [conjoin [] = True]. *)

val decompose : t -> t * t
(** [decompose p] splits a conjunction into
    [(anti_monotonic_part, residual)] with
    [p ≡ And (anti_monotonic_part, residual)].  The first component is
    always anti-monotonic; either component may be [True]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse the CLI filter syntax: a comma-separated conjunction of
    [size<=N], [height<=N], [span<=N], [diameter<=N], [width<=N], [depth<=N], [size>=N],
    [rootlabel=NAME], [labels=a|b|c], [keyword=K], [eqdepth=K1/K2],
    [true]; a term may be prefixed with [not:]. *)

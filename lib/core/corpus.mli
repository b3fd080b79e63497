(** Multi-document collections and the sharded corpus engine.

    The paper closes by noting the model "can accommodate a very large
    collection of XML documents" (§7).  A corpus is a set of named
    documents, each with its own {!Context.t}; queries run per document
    (fragments never span documents — a fragment is connected within one
    tree) and results carry their document of origin.

    {!run} is the engine: the corpus is partitioned into shards
    (documents hash-assigned by name, then rebalanced by node count),
    each shard evaluates the request on a shared pool of reused domains
    ({!Shard_pool}), keeps only its top-k hits in a bounded heap, and
    the per-shard runs meet in a k-way merge — never materializing more
    than [shards x k] scored hits.  Because the ranking order is a
    strict total order, the sharded answer list is bit-identical to the
    sequential one for any shard count (property-tested).

    Corpora also maintain a corpus-wide inverted index
    ({!Xfrag_index.Corpus_index}), kept incrementally by {!add}.  {!run}
    uses it for {e routing} — a conjunctive query dispatches only to
    documents containing all keywords, before sharding, so shard load
    reflects candidate node counts and an empty intersection never
    touches the pool — and, with a caller-supplied {!score_bound}, for
    {e top-k early termination}: shards visit candidates bound-first and
    skip documents whose bound cannot strictly beat the worst kept
    score.  Both are transparent: routed answers are bit-identical to
    full scans (property-tested), and [XFRAG_ROUTING=0] (or
    [~routing:false]) restores the plain full scan. *)

type t

type hit = { doc : string; fragment : Fragment.t }

type doc_report = {
  doc_name : string;
  doc_nodes : int;  (** tree size, the shard-balancing weight *)
  doc_answers : int;  (** answer fragments before any top-k truncation *)
  doc_elapsed_ns : int;
  doc_strategy : Exec.strategy;  (** what [Auto] resolved to, per doc *)
}

type doc_error = {
  err_doc : string;
  err_detail : string;  (** [Printexc.to_string] of the contained exception *)
  err_request_id : string;
      (** id of the request whose evaluation failed ([Exec.Request.id];
          [""] when the request was anonymous) — lets a structured 500
          or access-log line be joined back to the exact victim row *)
}
(** A document whose evaluation raised: contained per shard, reported as
    data.  The surviving documents' hits are bit-identical to a run of
    the corpus without the failing document. *)

type shard_report = {
  shard_index : int;
  shard_docs : doc_report list;  (** documents evaluated, in name order *)
  shard_errors : doc_error list;
      (** documents whose evaluation was contained, in name order *)
  shard_nodes : int;
  shard_elapsed_ns : int;
  shard_deadline_expired : bool;
      (** the shard stopped early; [shard_docs] lists only the documents
          that completed *)
  shard_bound_skips : int;
      (** documents this shard never evaluated because their score upper
          bound could not beat the shard's full top-k heap threshold *)
}

type routing = {
  candidates : int;
      (** documents containing every query keyword (what was dispatched) *)
  routed_out : int;  (** documents excluded before sharding *)
  bound_skips : int;  (** Σ [shard_bound_skips] across shards *)
}

type outcome = {
  hits : (hit * float) list;
      (** merged, score descending (ties by document name then
          fragment), truncated to the request's [limit] *)
  stats : Op_stats.t;  (** merged across every evaluated document *)
  shard_reports : shard_report list;  (** by [shard_index] *)
  errors : doc_error list;
      (** flattened [shard_errors] in shard order — every contained
          per-document failure of the run *)
  merge_ns : int;  (** wall time of the k-way merge alone *)
  elapsed_ns : int;  (** wall time of the whole corpus run *)
  total_answers : int;
      (** answer fragments across all documents, before truncation *)
  deadline_expired : bool;
      (** some shard hit the request deadline; [hits] are the complete
          merge of what finished (partial results, never an exception) *)
  routing : routing option;
      (** [Some] when posting-list routing applied to this run; [None]
          when it could not (disabled, index dropped, or the request's
          keywords fail normalization) and every document was scanned *)
}

val empty : t

val add : t -> name:string -> Xfrag_doctree.Doctree.t -> t
(** Functional add-or-replace (PUT semantics); builds the document's
    context eagerly and folds it into the corpus index.  Adding an
    existing name {e replaces} that document: the old version is
    retracted first (retiring its {!Context.generation} — callers
    holding a {!Join_cache.t} should {!Join_cache.retire} it, see
    {!generation}) and the new version gets a fresh context.

    Index maintenance degrades, never fails the mutation: if folding
    the new document in raises (e.g. the [index.build] failpoint), the
    index is dropped — the corpus degrades gracefully to full-scan
    execution (and bumps the [index_build_errors] fault counter); the
    document is still added.  A replace additionally passes the retract
    ladder documented at {!remove}. *)

val replace : t -> name:string -> Xfrag_doctree.Doctree.t -> t
(** Alias of {!add} — the name callers on the mutation path should use
    when they expect the document to exist (though, like HTTP PUT, it
    creates on a fresh name too). *)

val remove : t -> name:string -> t
(** Functional delete; a no-op for unknown names.  The corpus index is
    maintained down a three-rung degradation ladder, each rung
    preserving answer correctness and losing only speed:

    + {b incremental retract} — [Corpus_index.remove_document] drops
      the document from every posting list (passes the [index.retract]
      failpoint, keyed by name);
    + {b full rebuild} — if the retract raises, the index is rebuilt
      from the surviving documents ([index_retract_errors] bumped; each
      fold step re-passes [index.build]);
    + {b no index} — if the rebuild raises too, the index is dropped
      ([index_build_errors] bumped) and queries full-scan.

    A corpus whose index was already dropped stays unindexed. *)

val generation : t -> string -> int option
(** The named document's {!Context.generation} — the key identifying
    its join-cache partition.  Read it {e before} a {!remove} /
    {!replace} and pass it to {!Join_cache.retire} so the mutation
    invalidates exactly that document's cached joins.  [None] for
    unknown names. *)

val mem : t -> string -> bool

val of_documents : (string * Xfrag_doctree.Doctree.t) list -> t
(** Folds {!add} left-to-right: duplicate names keep the last tree. *)

val size : t -> int
(** Number of documents. *)

val names : t -> string list
(** Sorted. *)

val context : t -> string -> Context.t
(** @raise Not_found for an unknown document. *)

val total_nodes : t -> int

val index : t -> Xfrag_index.Corpus_index.t option
(** The corpus-wide inverted index; [None] once index maintenance has
    failed and the corpus fell back to full scans. *)

val score_bound :
  t -> keywords:string list -> (string -> float) option
(** A per-document upper bound on [Ranking.score ~keywords] (or any
    scorer it dominates), backed by the index's posting statistics —
    what {!run}'s [?bound] expects.  [None] when the corpus has no
    index.  Pass the request's {e normalized} keywords
    ([(Exec.Request.to_query r).keywords]). *)

val run :
  ?pool:Shard_pool.t ->
  ?shards:int ->
  ?routing:bool ->
  ?bound:(string -> float) ->
  ?scorer:(Context.t -> Fragment.t -> float) ->
  ?clock:Xfrag_obs.Clock.t ->
  t ->
  Exec.Request.t ->
  outcome
(** Evaluate [request] against every document, sharded.

    [routing] defaults to the [XFRAG_ROUTING] environment variable
    (enabled unless it is [0]/[off]/[false]/[no]).  When routing
    applies, posting lists are intersected and only documents
    containing every keyword are sharded and evaluated; an empty
    intersection short-circuits to an empty outcome without touching
    the pool.  [bound] enables top-k early termination on the routed
    path: shards visit candidates bound-descending and skip a document
    only when the heap holds a full top-k and the document's bound is
    {e strictly} below the worst kept score (ties break by name, so an
    equal bound could still win).  The bound must be conservative —
    [bound doc >= scorer ctx f] for every fragment of [doc] (see
    {!score_bound}); a conservative bound never changes answers, it
    only skips work.  Both default off for callers that pass nothing:
    no index → full scan, no [bound] → no skipping.

    [shards] defaults to the [XFRAG_SHARDS] environment variable when it
    is a positive integer, else to the pool's parallelism; it is clamped
    to the candidate document count.  [pool] defaults to {!Shard_pool.default}
    (shared process-wide — concurrent callers reuse the same worker
    domains).  [scorer] ranks hits (default: constant [0.], which orders
    purely by document name and fragment).  [clock] times the shards and
    the merge; an injected clock must be safe to call from multiple
    domains.

    Each document evaluates with the request's [trace] stripped (the
    span stack is not domain-safe).  The [cache] is kept when it is
    safe: a [~synchronized:true] cache (striped mutexes, per-document
    partitions) serves all shards concurrently, and any cache works on
    the single-shard path.  An unsynchronized cache under a multi-shard
    run is dropped for that run rather than raced over.

    When the request deadline expires mid-run, each shard stops at the
    next document boundary, the in-flight document's answers are
    dropped, and the outcome carries everything that completed with
    [deadline_expired] set — {!Deadline.Expired} never escapes.

    {b Failure containment}: any other exception raised while
    evaluating or scoring one document (a malformed tree, an
    adversarial evaluation blowing the stack, an armed [eval.document]
    / [eval.join] failpoint, a raising [scorer]) is caught at the
    document boundary and reported in [shard_errors] / [errors]; the
    failing document contributes no hits, no stats, and no report row,
    so the surviving hits are bit-identical to a run of the corpus
    without that document (property-tested).  Each contained failure
    bumps the [doc_errors] fault counter.  Note the trade-off: a
    request-level mistake that makes {e every} document raise (e.g. an
    unvalidated keyword list) surfaces as one error per document, not
    as a single exception — callers should pre-validate requests with
    {!Exec.Request.of_json} / {!Query.make}. *)

val document_frequency : t -> string -> int
(** Number of documents whose index contains the keyword — an O(log n)
    posting-list lookup on the corpus index when present, a rescan of
    every document's index (unchanged behavior) when the corpus is
    unindexed. *)

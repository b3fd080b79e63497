module Inverted_index = Xfrag_doctree.Inverted_index
module Trace = Xfrag_obs.Trace
module Clock = Xfrag_obs.Clock
module Json = Xfrag_obs.Json

type strategy = Exec.strategy =
  | Brute_force
  | Naive_fixpoint
  | Set_reduction
  | Pushdown
  | Pushdown_reduction
  | Semi_naive
  | Auto

type outcome = {
  answers : Frag_set.t;
  stats : Op_stats.t;
  strategy_used : strategy;
  keyword_node_counts : (string * int) list;
  elapsed_ns : int;
  phase_ns : (string * int) list;
}

let strategy_name = Exec.strategy_name

let strategy_of_string = Exec.strategy_of_string

let all_strategies = Exec.all_strategies

(* --- the executor --- *)

type record = {
  rows : int;
  in_rows : int list;
  self_ns : int;
  counters : (string * int) list;
}

(* One evaluation's state.  [memo] (keyed by physical plan node) runs a
   shared subplan once; with a [recorder] clock, [records] collects what
   each node did.  Both are refs so that the copy made to attach the
   strategy's cache keeps sharing them. *)
type state = {
  ctx : Context.t;
  stats : Op_stats.t;
  cache : Join_cache.t option;
  trace : Trace.t;
  deadline : Deadline.t;
  recorder : Clock.t option;
  memo : (Plan.t * Frag_set.t) list ref;
  records : (Plan.t * record) list ref;
}

let new_state ?cache ?(trace = Trace.disabled) ?(deadline = Deadline.none) ?recorder ctx =
  let stats = Op_stats.create () in
  { ctx; stats; cache; trace; deadline; recorder; memo = ref []; records = ref [] }

let strict_leaf_filter ctx keywords answers =
  Frag_set.filter
    (fun f ->
      let leaves = Fragment.leaves ctx f in
      List.for_all
        (fun k ->
          List.exists (fun n -> Inverted_index.node_contains ctx.Context.index n k) leaves)
        keywords)
    answers

(* One operator applied to its already-evaluated inputs. *)
let apply s node inputs =
  let { ctx; stats; cache; trace; deadline; _ } = s in
  match (node, inputs) with
  | Plan.Scan_keyword k, [] -> Selection.keyword ~trace ctx k
  | Plan.Select (p, _), [ x ] -> Selection.select ~stats ~trace ctx p x
  | Plan.Strict_leaf (keywords, _), [ x ] ->
      Deadline.check deadline;
      Trace.with_span trace "strict-leaf" (fun () -> strict_leaf_filter ctx keywords x)
  | Plan.Join (prune, _), x :: xs ->
      List.fold_left
        (Join.pairwise_filtered ~stats ?cache ~trace ~deadline ctx ~prune)
        x xs
  | Plan.Power_join _, xs -> Powerset.many_literal ~stats ?cache ~trace ~deadline ctx xs
  | Plan.Fixed_point (Plan.Naive, prune, _), [ x ] ->
      Fixed_point.naive ~stats ?cache ~trace ~deadline ~prune ctx x
  | Plan.Fixed_point (Plan.Semi_naive, prune, _), [ x ] ->
      Fixed_point.semi_naive ~stats ?cache ~trace ~deadline ~prune ctx x
  | Plan.Fixed_point (Plan.Reduced, prune, _), [ x ] ->
      Fixed_point.with_reduction ~stats ?cache ~trace ~deadline ~prune ctx x
  | Plan.Fixed_point (Plan.Reduced_unchecked _, prune, _), x :: reduced ->
      Fixed_point.with_reduction_unchecked ~stats ?cache ~trace ~deadline ~prune
        ?reduced:(List.nth_opt reduced 0) ctx x
  | Plan.Reduce _, [ x ] ->
      (* Only the Auto probe builds this node; it runs inside the
         [choose-strategy] span, untraced. *)
      Reduce.reduce ~stats ?cache ctx x
  | _ -> invalid_arg "Eval: malformed plan"

(* [to_assoc] key order is stable, so positional subtraction is safe. *)
let counter_delta before after =
  List.map2 (fun (_, a) (k, b) -> (k, b - a)) before after
  |> List.filter (fun (_, d) -> d <> 0)

(* The one executor: post-order, each physical node once.  With the
   recorder off the only work beside [apply] is the memo lookup — no
   clock reads, no counter snapshots. *)
let rec run s node =
  match List.assq_opt node !(s.memo) with
  | Some out -> out
  | None ->
      let inputs = List.map (run s) (Plan.children node) in
      let out =
        match s.recorder with
        | None -> apply s node inputs
        | Some clock ->
            let before = Op_stats.to_assoc s.stats in
            let t0 = clock () in
            let out = apply s node inputs in
            let t1 = clock () in
            let record =
              {
                rows = Frag_set.cardinal out;
                in_rows = List.map Frag_set.cardinal inputs;
                self_ns = t1 - t0;
                counters = counter_delta before (Op_stats.to_assoc s.stats);
              }
            in
            s.records := (node, record) :: !(s.records);
            out
      in
      s.memo := (node, out) :: !(s.memo);
      out

let execute ctx plan = run (new_state ctx) plan

(* --- the compile step --- *)

type compiled = { strategy : strategy; plan : Plan.t; probe : Plan.t list }

(* Auto (§5): Theorem 3 pruning whenever the filter has a usable
   anti-monotonic part; otherwise probe the keyword sets (when all are
   small enough) and choose set reduction when a reduction factor clears
   the threshold, else semi-naive.  The probe's ⊖ nodes are real work,
   charged to the request's stats, and the Theorem 1 fixed points that
   set reduction compiles to consume them instead of reducing again. *)
let rf_probe_limit = 48

let rf_threshold = 0.25

(* Measured (bench E1/A1): delta iteration with pruning dominates every
   alternative when Theorem 3 applies — it performs the pruned
   convergence check of plain pushdown but re-joins only each round's
   discoveries.  Theorem 1's unchecked round count loses there: under
   pruning the fixed point converges earlier than |⊖| rounds, so
   skipping the check costs whole redundant rounds. *)
let choose s ~anti_monotone scans sets =
  if anti_monotone <> Filter.True then (Semi_naive, [])
  else if List.exists (fun set -> Frag_set.cardinal set > rf_probe_limit) sets then
    (Semi_naive, [])
  else begin
    let probe = List.map (fun scan -> Plan.Reduce scan) scans in
    let reduced = List.map (run s) probe in
    if
      List.exists2
        (fun original reduced -> Reduce.factor_of ~original ~reduced >= rf_threshold)
        sets reduced
    then (Set_reduction, probe)
    else (Semi_naive, probe)
  end

(* Request → plan.  Runs the keyword scans (and the Auto probe) on [s],
   because the rules read their results; returns the scanned sets too. *)
let compile_on s (r : Exec.Request.t) (q : Query.t) =
  let scans = List.map (fun k -> Plan.Scan_keyword k) q.keywords in
  let sets = List.map (run s) scans in
  let am, residual = Filter.decompose q.filter in
  let strategy, probe =
    match r.strategy with
    | Auto ->
        Trace.with_span s.trace "choose-strategy" (fun () ->
            let ((chosen, _) as choice) = choose s ~anti_monotone:am scans sets in
            Trace.add_attr s.trace "chosen" (Json.String (strategy_name chosen));
            choice)
    | st -> (st, [])
  in
  let join prune = function [ x ] -> x | xs -> Plan.Join (prune, xs) in
  let fixed_points algo prune =
    join prune (List.mapi (fun i scan -> Plan.Fixed_point (algo i, prune, scan)) scans)
  in
  let plan =
    match List.find_opt (fun (set, _) -> Frag_set.is_empty set) (List.combine sets scans) with
    | Some (_, empty_scan) ->
        (* Conjunctive semantics: a keyword without postings empties the
           answer, and no join runs. *)
        empty_scan
    | None -> (
        match strategy with
        | Auto -> assert false
        | Brute_force -> Plan.Select (q.filter, Plan.Power_join scans)
        | Naive_fixpoint ->
            Plan.Select (q.filter, fixed_points (fun _ -> Plan.Naive) Filter.True)
        | Set_reduction ->
            (* Keyword sets hold only single-node fragments, the setting
               in which Theorem 1's unchecked round count is valid; the
               i-th fixed point consumes the probe's i-th ⊖, if any. *)
            Plan.Select
              ( q.filter,
                fixed_points
                  (fun i -> Plan.Reduced_unchecked (List.nth_opt probe i))
                  Filter.True )
        | Pushdown -> Plan.Select (residual, fixed_points (fun _ -> Plan.Naive) am)
        | Pushdown_reduction ->
            (* Pruned keyword seeds are still single-node sets. *)
            Plan.Select (residual, fixed_points (fun _ -> Plan.Reduced_unchecked None) am)
        | Semi_naive -> Plan.Select (residual, fixed_points (fun _ -> Plan.Semi_naive) am))
  in
  let plan = if r.strict_leaf then Plan.Strict_leaf (q.keywords, plan) else plan in
  ({ strategy; plan; probe }, sets)

let compile ctx r = fst (compile_on (new_state ctx) r (Exec.Request.to_query r))

(* Strategy-aware cache attachment: once the concrete strategy is
   known, ask the admission model whether memoization pays for it.
   Unpruned strategies carry huge intermediate fragments whose O(n)
   probe hashing rivals the join itself (measured: naive lost 4x with
   the cache on even at a 19% hit rate), so under the default policy
   they run detached — bit-identical answers, zero cache overhead —
   while the pushdown family keeps its 3-4x memoization win.  The
   pushdown family probes the cache only for pairs the pre-join bound
   ({!Filter.may_join}) lets through: on the perfbench doc-query
   workload that is about 45 probes per read (hit rate 99.9%, no
   evictions) where it was about 1269, one per candidate pair. *)
let attach_cache cache strategy =
  match cache with
  | Some c
    when not
           (Join_cache.pays c
              ~pruned:
                (match strategy with
                | Pushdown | Pushdown_reduction | Semi_naive -> true
                | Brute_force | Naive_fixpoint | Set_reduction | Auto -> false)) ->
      None
  | _ -> cache

let evaluate ~clock ?recorder ctx (r : Exec.Request.t) =
  (* One deterministic fault site per evaluation: arming it proves the
     callers' containment (router → 500, corpus → per-doc error). *)
  Xfrag_fault.Fault.Failpoint.hit "eval.request";
  let q = Exec.Request.to_query r in
  let trace = r.Exec.Request.trace in
  let s =
    new_state ?cache:r.Exec.Request.cache ~trace ~deadline:r.Exec.Request.deadline
      ?recorder ctx
  in
  let t0 = clock () in
  Trace.with_span trace
    ~attrs:[ ("keywords", Json.String (String.concat " " q.keywords)) ]
    "query"
  @@ fun () ->
  if Trace.is_enabled trace && r.Exec.Request.id <> "" then
    Trace.add_attr trace "request_id" (Json.String r.Exec.Request.id);
  let compiled, sets = compile_on s r q in
  if Trace.is_enabled trace then
    Trace.add_attr trace "strategy" (Json.String (strategy_name compiled.strategy));
  let s = { s with cache = attach_cache s.cache compiled.strategy } in
  let t_scan = clock () in
  ignore
    (match compiled.plan with
    | Plan.Strict_leaf (_, x) -> run s x
    | plan -> run s plan);
  let t_eval = clock () in
  let answers = run s compiled.plan in
  let t_end = clock () in
  let phase_ns =
    [ ("scan", t_scan - t0); ("evaluate", t_eval - t_scan) ]
    @ if r.Exec.Request.strict_leaf then [ ("strict-leaf", t_end - t_eval) ] else []
  in
  if Trace.is_enabled trace then
    Trace.add_attr trace "answers" (Json.Int (Frag_set.cardinal answers));
  ( {
      answers;
      stats = s.stats;
      strategy_used = compiled.strategy;
      keyword_node_counts = List.map2 (fun k s -> (k, Frag_set.cardinal s)) q.keywords sets;
      elapsed_ns = t_end - t0;
      phase_ns;
    },
    compiled,
    !(s.records) )

let exec ?(clock = Clock.monotonic) ctx r =
  let outcome, _, _ = evaluate ~clock ctx r in
  outcome

let exec_recorded ?(clock = Clock.monotonic) ctx r =
  evaluate ~clock ~recorder:clock ctx r

let run ?(strategy = Auto) ?(strict_leaf_semantics = false) ?cache
    ?(trace = Trace.disabled) ?clock ?(deadline = Deadline.none) ctx
    (q : Query.t) =
  exec ?clock ctx
    {
      (Exec.Request.of_query q) with
      Exec.Request.strategy;
      strict_leaf = strict_leaf_semantics;
      cache;
      trace;
      deadline;
    }

let answers ?strategy ?strict_leaf_semantics ?cache ?deadline ctx q =
  (run ?strategy ?strict_leaf_semantics ?cache ?deadline ctx q).answers

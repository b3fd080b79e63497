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

(* Auto heuristics (§5): pushdown whenever the filter has a usable
   anti-monotonic part; otherwise choose set reduction when the reduction
   factor of the (small enough to probe) keyword sets clears a threshold,
   else the naive fixed point. *)
let rf_probe_limit = 48

let rf_threshold = 0.25

(* Returns the chosen strategy together with the probe's reduced sets,
   keyed by the {e physical} keyword-set values that were probed.  The
   probes are real work — they run the full O(n²)-join reduce — so they
   are charged to [stats] like any other operation, and when
   [Set_reduction] wins, its Theorem-1 fixed points reuse the reduced
   seeds instead of re-reducing them (the pre-probe code paid for every
   probe twice). *)
let choose_strategy ?stats ?cache ctx (q : Query.t) keyword_sets =
  let am, _residual = Filter.decompose q.filter in
  if am <> Filter.True then
    (* Theorem 3 applies.  Measured (bench E1/A1): delta iteration with
       pruning dominates every alternative — it performs the pruned
       convergence check of plain pushdown but re-joins only each round's
       discoveries.  Theorem 1's unchecked round count loses here: under
       pruning the fixed point converges earlier than |⊖| rounds, so
       skipping the check costs whole redundant rounds. *)
    (Semi_naive, [])
  else if List.for_all (fun s -> Frag_set.cardinal s <= rf_probe_limit) keyword_sets
  then begin
    let probes =
      List.map (fun s -> (s, Reduce.reduce ?stats ?cache ctx s)) keyword_sets
    in
    if
      List.exists
        (fun (s, r) -> Reduce.factor_of ~original:s ~reduced:r >= rf_threshold)
        probes
    then (Set_reduction, probes)
    else (Semi_naive, [])
  end
  else (Semi_naive, [])

let strict_leaf_filter ctx (q : Query.t) answers =
  Frag_set.filter
    (fun f ->
      let leaves = Fragment.leaves ctx f in
      List.for_all
        (fun k ->
          List.exists (fun n -> Inverted_index.node_contains ctx.Context.index n k) leaves)
        q.keywords)
    answers

let exec ?(clock = Clock.monotonic) ctx (r : Exec.Request.t) =
  (* One deterministic fault site per evaluation: arming it proves the
     callers' containment (router → 500, corpus → per-doc error). *)
  Xfrag_fault.Fault.Failpoint.hit "eval.request";
  let q = Exec.Request.to_query r in
  let strategy = r.Exec.Request.strategy in
  let strict_leaf_semantics = r.Exec.Request.strict_leaf in
  let cache = r.Exec.Request.cache in
  let trace = r.Exec.Request.trace in
  let deadline = r.Exec.Request.deadline in
  let stats = Op_stats.create () in
  let t0 = clock () in
  Trace.with_span trace
    ~attrs:[ ("keywords", Json.String (String.concat " " q.keywords)) ]
    "query"
  @@ fun () ->
  if Trace.is_enabled trace && r.Exec.Request.id <> "" then
    Trace.add_attr trace "request_id" (Json.String r.Exec.Request.id);
  let keyword_sets = List.map (Selection.keyword ~trace ctx) q.keywords in
  let keyword_node_counts =
    List.map2 (fun k s -> (k, Frag_set.cardinal s)) q.keywords keyword_sets
  in
  let strategy_used, probes =
    match strategy with
    | Auto ->
        Trace.with_span trace "choose-strategy" (fun () ->
            let s, probes = choose_strategy ~stats ?cache ctx q keyword_sets in
            Trace.add_attr trace "chosen" (Json.String (strategy_name s));
            (s, probes))
    | s -> (s, [])
  in
  if Trace.is_enabled trace then
    Trace.add_attr trace "strategy" (Json.String (strategy_name strategy_used));
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
  let cache =
    match cache with
    | Some c
      when not
             (Join_cache.pays c
                ~pruned:
                  (match strategy_used with
                  | Pushdown | Pushdown_reduction | Semi_naive -> true
                  | Brute_force | Naive_fixpoint | Set_reduction | Auto ->
                      false)) ->
        None
    | _ -> cache
  in
  let t_scan = clock () in
  let answers =
    if List.exists Frag_set.is_empty keyword_sets then (Frag_set.empty ())
    else
      match strategy_used with
      | Auto -> assert false
      | Brute_force ->
          Selection.select ~stats ~trace ctx q.filter
            (Powerset.many_literal ~stats ?cache ~trace ~deadline ctx
               keyword_sets)
      | Naive_fixpoint ->
          Selection.select ~stats ~trace ctx q.filter
            (Powerset.many_via_fixed_points ~stats ?cache ~trace ~deadline
               ~fixed_point:(fun ?stats ?trace ctx set ->
                 Fixed_point.naive ?stats ?cache ?trace ~deadline ctx set)
               ctx keyword_sets)
      | Set_reduction ->
          (* Keyword sets contain only single-node fragments, the setting
             in which Theorem 1's unchecked round count is valid.  The
             Auto probe already reduced each seed (same physical sets),
             so hand those results over instead of re-reducing. *)
          Selection.select ~stats ~trace ctx q.filter
            (Powerset.many_via_fixed_points ~stats ?cache ~trace ~deadline
               ~fixed_point:(fun ?stats ?trace ctx set ->
                 let reduced = List.assq_opt set probes in
                 Fixed_point.with_reduction_unchecked ?stats ?cache ?trace
                   ~deadline ?reduced ctx set)
               ctx keyword_sets)
      | (Pushdown | Pushdown_reduction | Semi_naive) as s ->
          let prune, residual = Filter.decompose q.filter in
          let fixed_point =
            match s with
            | Pushdown ->
                fun ?stats ?trace ctx set ->
                  Fixed_point.naive_filtered ?stats ?cache ?trace ~deadline ctx
                    ~prune set
            | Semi_naive ->
                fun ?stats ?trace ctx set ->
                  Fixed_point.semi_naive ?stats ?cache ?trace ~deadline ~prune
                    ctx set
            | _ ->
                (* Pruned keyword seeds are single-node sets, where the
                   unchecked Theorem 1 round count is valid. *)
                fun ?stats ?trace ctx set ->
                  Fixed_point.with_reduction_filtered_unchecked ?stats ?cache
                    ?trace ~deadline ctx ~prune set
          in
          let joined =
            match
              List.map (fun s -> fixed_point ~stats ~trace ctx s) keyword_sets
            with
            | [] -> assert false
            | fp :: fps ->
                List.fold_left
                  (Join.pairwise_filtered ~stats ?cache ~trace ~deadline ctx ~prune)
                  fp fps
          in
          Selection.select ~stats ~trace ctx residual joined
  in
  let t_eval = clock () in
  let answers =
    if strict_leaf_semantics then begin
      Deadline.check deadline;
      Trace.with_span trace "strict-leaf" (fun () -> strict_leaf_filter ctx q answers)
    end
    else answers
  in
  let t_end = clock () in
  let phase_ns =
    [ ("scan", t_scan - t0); ("evaluate", t_eval - t_scan) ]
    @ if strict_leaf_semantics then [ ("strict-leaf", t_end - t_eval) ] else []
  in
  if Trace.is_enabled trace then
    Trace.add_attr trace "answers" (Json.Int (Frag_set.cardinal answers));
  {
    answers;
    stats;
    strategy_used;
    keyword_node_counts;
    elapsed_ns = t_end - t0;
    phase_ns;
  }

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

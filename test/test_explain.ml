(* EXPLAIN ANALYZE tests: a full rendering snapshot of the paper's
   Table 1 query under the deterministic counter clock (every operator's
   exclusive window is exactly one clock step), plus the check that
   EXPLAIN measures what ran: its answers and summed per-node counters
   equal Eval.exec's for every strategy, strict-leaf setting, filter
   shape and cache attachment. *)

module Explain = Xfrag_core.Explain
module Clock = Xfrag_obs.Clock
module Context = Xfrag_core.Context
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Op_stats = Xfrag_core.Op_stats
module Join_cache = Xfrag_core.Join_cache
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let table1_request () =
  Exec.Request.of_query (Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords)

let analyze () =
  let ctx = Paper.figure1_context () in
  (ctx, Explain.analyze_request ~clock:(Clock.counter ()) ctx (table1_request ()))

let rec count_nodes (n : Explain.node) =
  List.fold_left (fun acc c -> acc + count_nodes c) 1 n.Explain.children

(* Non-zero counters summed over a report's probe and plan trees. *)
let summed_counters (r : Explain.report) =
  let tbl = Hashtbl.create 16 in
  let rec go (n : Explain.node) =
    List.iter
      (fun (k, d) ->
        Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      n.Explain.counters;
    List.iter go n.Explain.children
  in
  List.iter go (r.Explain.root :: r.Explain.probe);
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) tbl []
  |> List.sort compare

let nonzero stats =
  List.filter (fun (_, v) -> v <> 0) (Op_stats.to_assoc stats) |> List.sort compare

let test_answers_agree () =
  let ctx, report = analyze () in
  let expected = (Eval.exec ctx (table1_request ())).Eval.answers in
  Alcotest.(check bool) "same answers" true
    (Frag_set.equal expected report.Explain.answers);
  Alcotest.(check int) "root rows = answers"
    (Frag_set.cardinal expected)
    report.Explain.root.Explain.rows

let test_deterministic_timing () =
  let _, report = analyze () in
  let ops = count_nodes report.Explain.root in
  Alcotest.(check int) "six operators" 6 ops;
  (* each operator's exclusive window is one counter-clock step *)
  Alcotest.(check int) "total = ops * step" (ops * 1000) report.Explain.total_ns;
  let rec check (n : Explain.node) =
    Alcotest.(check int) (n.Explain.op ^ " self") 1000 n.Explain.self_ns;
    List.iter check n.Explain.children
  in
  check report.Explain.root

let test_counters_sum () =
  let ctx, report = analyze () in
  (* The per-operator deltas partition the query's totals: exactly the
     stats of `xfrag query --show-stats` on the same request
     (test/cli/query.expected). *)
  let outcome = Eval.exec ctx (table1_request ()) in
  Alcotest.(check (list (pair string int)))
    "summed deltas = Eval stats" (nonzero outcome.Eval.stats) (summed_counters report);
  Alcotest.(check (list (pair string int)))
    "query.expected's counters"
    [
      ("candidates", 30);
      ("duplicates", 9);
      ("fixpoint_rounds", 4);
      ("fragment_joins", 22);
      ("pruned", 8);
    ]
    (summed_counters report)

let expected_snapshot =
  String.concat "\n"
    [
      "EXPLAIN ANALYZE";
      "query: Q[size<=3]{optimization, xquery}";
      "strategy: semi-naive";
      "plan:  \xcf\x83_{true}((F(optimization)\xe2\x81\xba\xce\x94[size<=3] \xe2\x8b\x88[size<=3] F(xquery)\xe2\x81\xba\xce\x94[size<=3]))";
      "estimated cost: 5.3";
      "actual: total 6.0us, 4 answer fragment(s)";
      "";
      "\xcf\x83 true                                      rows=4      in=4         time=6.0us    self=1.0us   ";
      "  \xe2\x8b\x88 [prune size<=3]                        rows=4      in=4x3       time=5.0us    self=1.0us    fragment_joins=+9 candidates=+12 duplicates=+5 pruned=+3";
      "    fixed-point:semi-naive [prune size<=3]   rows=4      in=3         time=2.0us    self=1.0us    fragment_joins=+7 candidates=+12 duplicates=+2 pruned=+5 fixpoint_rounds=+2";
      "      scan optimization                      rows=3                   time=1.0us    self=1.0us   ";
      "    fixed-point:semi-naive [prune size<=3]   rows=3      in=2         time=2.0us    self=1.0us    fragment_joins=+6 candidates=+6 duplicates=+2 fixpoint_rounds=+2";
      "      scan xquery                            rows=2                   time=1.0us    self=1.0us   ";
      "";
    ]

let test_snapshot () =
  let _, report = analyze () in
  let out = Format.asprintf "%a" Explain.pp report in
  Alcotest.(check string) "snapshot golden" expected_snapshot out

(* The request knobs EXPLAIN used to ignore: an explicit strategy and
   Definition 8's strict-leaf σ. *)
let test_request_honoured () =
  let ctx = Paper.figure1_context () in
  let r =
    table1_request ()
    |> Exec.Request.with_strategy Exec.Naive_fixpoint
    |> Exec.Request.with_strict_leaf true
  in
  let report = Explain.analyze_request ctx r in
  let outcome = Eval.exec ctx r in
  Alcotest.(check string) "strategy" "naive" (Exec.strategy_name report.Explain.strategy);
  Alcotest.(check bool) "strict-leaf node on top" true
    (match report.Explain.plan with Xfrag_core.Plan.Strict_leaf _ -> true | _ -> false);
  Alcotest.(check bool) "strict answers" true
    (Frag_set.equal outcome.Eval.answers report.Explain.answers);
  Alcotest.(check bool) "strict-leaf drops answers" true
    (Frag_set.cardinal report.Explain.answers
    < Frag_set.cardinal (Eval.exec ctx (table1_request ())).Eval.answers)

(* EXPLAIN = Eval over random documents x {six strategies, Auto} x
   strict-leaf x {anti-monotone only, residual only, mixed} filters x
   {no cache, a small join cache}. *)
let explain_equals_eval_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"EXPLAIN equals Eval" ~count:150
       QCheck2.Gen.(
         pair (pair (1 -- 10_000) (4 -- 24))
           (quad (0 -- 6) bool (0 -- 2) bool))
       (fun ((seed, size), (strategy, strict, filter_kind, cached)) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 31) in
         let keywords =
           [
             Printf.sprintf "tok%d" (Prng.int prng 8);
             (if Prng.int prng 2 = 0 then Printf.sprintf "id%d" (Prng.int prng size)
              else Printf.sprintf "tok%d" (Prng.int prng 8));
           ]
         in
         let am = Filter.Size_at_most (2 + Prng.int prng 4) in
         let residual = Filter.Size_at_least (1 + Prng.int prng 3) in
         let filter =
           match filter_kind with
           | 0 -> am
           | 1 -> residual
           | _ -> Filter.And (am, residual)
         in
         let strategy = List.nth (Exec.Auto :: Exec.all_strategies) strategy in
         (* A fresh cache per run, so both start cold. *)
         let request () =
           Exec.Request.default
           |> Exec.Request.with_keywords keywords
           |> Exec.Request.with_filter filter
           |> Exec.Request.with_strategy strategy
           |> Exec.Request.with_strict_leaf strict
           |> Exec.Request.with_cache
                (if cached then Some (Join_cache.create ~capacity:16 ()) else None)
         in
         match Eval.exec ctx (request ()) with
         | exception Invalid_argument _ -> (
             (* brute force refuses oversized keyword sets: so must EXPLAIN *)
             match Explain.analyze_request ctx (request ()) with
             | exception Invalid_argument _ -> true
             | _ -> false)
         | outcome ->
             let report =
               Explain.analyze_request ~clock:(Clock.counter ()) ctx (request ())
             in
             let self_sum =
               let rec go (n : Explain.node) =
                 List.fold_left (fun acc c -> acc + go c) n.Explain.self_ns
                   n.Explain.children
               in
               List.fold_left (fun acc n -> acc + go n) 0
                 (report.Explain.root :: report.Explain.probe)
             in
             Frag_set.equal outcome.Eval.answers report.Explain.answers
             && outcome.Eval.strategy_used = report.Explain.strategy
             && nonzero outcome.Eval.stats = summed_counters report
             && self_sum = report.Explain.total_ns))

let () =
  Alcotest.run "explain"
    [
      ( "analyze",
        [
          Alcotest.test_case "answers agree with Eval" `Quick test_answers_agree;
          Alcotest.test_case "deterministic timing" `Quick test_deterministic_timing;
          Alcotest.test_case "counter deltas" `Quick test_counters_sum;
          Alcotest.test_case "rendering snapshot" `Quick test_snapshot;
          Alcotest.test_case "strategy and strict-leaf honoured" `Quick
            test_request_honoured;
          explain_equals_eval_prop;
        ] );
    ]

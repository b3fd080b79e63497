(* EXPLAIN ANALYZE tests: a full rendering snapshot of the paper's
   Table 1 query under the deterministic counter clock (every operator's
   exclusive window is exactly one clock step), plus structural checks
   that the annotated tree agrees with the ordinary evaluator. *)

module Explain = Xfrag_core.Explain
module Clock = Xfrag_obs.Clock
module Context = Xfrag_core.Context
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Paper = Xfrag_workload.Paper_doc

let table1_query () = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords

let analyze () =
  let ctx = Paper.figure1_context () in
  (ctx, Explain.analyze ~clock:(Clock.counter ()) ctx (table1_query ()))

let rec count_nodes (n : Explain.node) =
  List.fold_left (fun acc c -> acc + count_nodes c) 1 n.Explain.children

let test_answers_agree () =
  let ctx, report = analyze () in
  let expected = Eval.answers ctx (table1_query ()) in
  Alcotest.(check bool) "same answers" true
    (Frag_set.equal expected report.Explain.answers);
  Alcotest.(check int) "root rows = answers"
    (Frag_set.cardinal expected)
    report.Explain.root.Explain.rows

let test_deterministic_timing () =
  let _, report = analyze () in
  let ops = count_nodes report.Explain.root in
  Alcotest.(check int) "eight operators" 8 ops;
  (* each operator's exclusive window is one counter-clock step *)
  Alcotest.(check int) "total = ops * step" (ops * 1000) report.Explain.total_ns;
  let rec check (n : Explain.node) =
    Alcotest.(check int) (n.Explain.op ^ " self") 1000 n.Explain.self_ns;
    List.iter check n.Explain.children
  in
  check report.Explain.root

let test_counters_sum () =
  let _, report = analyze () in
  (* the per-operator deltas partition the query's total joins: the
     semi-naive CLI run of the same query reports joins=30 for the
     whole pipeline; the optimizer's plan here is the pushdown pipeline,
     so just check deltas are non-negative and joins appear somewhere *)
  let rec fold acc (n : Explain.node) =
    let acc =
      List.fold_left
        (fun acc (k, d) ->
          Alcotest.(check bool) (k ^ " delta >= 0") true (d >= 0);
          if k = "fragment_joins" then acc + d else acc)
        acc n.Explain.counters
    in
    List.fold_left fold acc n.Explain.children
  in
  let joins = fold 0 report.Explain.root in
  Alcotest.(check bool) "some joins recorded" true (joins > 0)

let expected_snapshot =
  String.concat "\n"
    [
      "EXPLAIN ANALYZE";
      "query: Q[size<=3]{optimization, xquery}";
      "plan:  \xcf\x83_{size<=3}((\xcf\x83_{size<=3}(F(optimization))\xe2\x81\xba[size<=3] \xe2\x8b\x88[size<=3] \xcf\x83_{size<=3}(F(xquery))\xe2\x81\xba[size<=3]))";
      "estimated cost: 10.0";
      "actual: total 8.0us, 4 answer fragment(s)";
      "";
      "\xcf\x83 size<=3                                   rows=4      in=4         time=8.0us    self=1.0us   ";
      "  \xe2\x8b\x88 [prune size<=3]                        rows=4      in=4x3       time=7.0us    self=1.0us    fragment_joins=+9 candidates=+12 duplicates=+5 pruned=+3";
      "    fixed-point [prune size<=3]              rows=4      in=3         time=3.0us    self=1.0us    fragment_joins=+12 candidates=+21 duplicates=+4 pruned=+9 fixpoint_rounds=+2";
      "      \xcf\x83 size<=3                             rows=3      in=3         time=2.0us    self=1.0us   ";
      "        scan optimization                    rows=3                   time=1.0us    self=1.0us   ";
      "    fixed-point [prune size<=3]              rows=3      in=2         time=3.0us    self=1.0us    fragment_joins=+10 candidates=+10 duplicates=+4 fixpoint_rounds=+2";
      "      \xcf\x83 size<=3                             rows=2      in=2         time=2.0us    self=1.0us   ";
      "        scan xquery                          rows=2                   time=1.0us    self=1.0us   ";
      "";
    ]

let test_snapshot () =
  let _, report = analyze () in
  let out = Format.asprintf "%a" Explain.pp report in
  Alcotest.(check string) "snapshot golden" expected_snapshot out

let () =
  Alcotest.run "explain"
    [
      ( "analyze",
        [
          Alcotest.test_case "answers agree with Eval" `Quick test_answers_agree;
          Alcotest.test_case "deterministic timing" `Quick test_deterministic_timing;
          Alcotest.test_case "counter deltas" `Quick test_counters_sum;
          Alcotest.test_case "rendering snapshot" `Quick test_snapshot;
        ] );
    ]

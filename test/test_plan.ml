(* Tests for plans (Figure 5), rewrite rules (§3) run on the one
   executor, the cost model, and the plans the compile step builds
   (§5's Auto rules included). *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Plan = Xfrag_core.Plan
module Rewrite = Xfrag_core.Rewrite
module Cost = Xfrag_core.Cost
module Exec = Xfrag_core.Exec
module Explain = Xfrag_core.Explain
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let ctx = lazy (Paper.figure1_context ())

let paper_query () = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords

(* --- initial plan --- *)

let test_initial_plan_shape () =
  let q = paper_query () in
  match Plan.initial q with
  | Plan.Select (Filter.Size_at_most 3, Plan.Power_join [ Plan.Scan_keyword k1; Plan.Scan_keyword k2 ]) ->
      Alcotest.(check string) "first keyword" "optimization" k1;
      Alcotest.(check string) "second keyword" "xquery" k2
  | p -> Alcotest.failf "unexpected initial plan %s" (Format.asprintf "%a" Plan.pp p)

let test_initial_plan_three_keywords () =
  let q = Query.make [ "a"; "b"; "c" ] in
  match Plan.initial q with
  | Plan.Select
      ( Filter.True,
        Plan.Power_join
          [ Plan.Scan_keyword "a"; Plan.Scan_keyword "b"; Plan.Scan_keyword "c" ] ) ->
      ()
  | p -> Alcotest.failf "unexpected plan %s" (Format.asprintf "%a" Plan.pp p)

(* --- plan evaluation matches Eval --- *)

let test_initial_plan_evaluates_to_answer () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  Alcotest.check set_testable "plan eval = strategy eval"
    (Eval.answers ~strategy:Eval.Brute_force c q)
    (Eval.execute c (Plan.initial q))

(* --- rewrite rules preserve semantics --- *)

let test_power_to_fixpoint_shape () =
  let q = paper_query () in
  match Rewrite.power_to_fixpoint (Plan.initial q) with
  | Plan.Select
      ( _,
        Plan.Join
          ( Filter.True,
            [ Plan.Fixed_point (Plan.Naive, Filter.True, _);
              Plan.Fixed_point (Plan.Naive, Filter.True, _) ] ) ) ->
      ()
  | p -> Alcotest.failf "unexpected shape %s" (Format.asprintf "%a" Plan.pp p)

let test_use_reduction_shape () =
  let q = paper_query () in
  let p = Rewrite.use_reduction (Rewrite.power_to_fixpoint (Plan.initial q)) in
  match p with
  | Plan.Select
      ( _,
        Plan.Join
          ( Filter.True,
            [ Plan.Fixed_point (Plan.Reduced, Filter.True, _);
              Plan.Fixed_point (Plan.Reduced, Filter.True, _) ] ) ) ->
      ()
  | p -> Alcotest.failf "unexpected shape %s" (Format.asprintf "%a" Plan.pp p)

let test_push_selection_shape () =
  (* Figure 5: the anti-monotonic selection moves below the join and the
     scans gain σ_Pa. *)
  let q = paper_query () in
  let p = Rewrite.push_selection (Rewrite.power_to_fixpoint (Plan.initial q)) in
  match p with
  | Plan.Select
      ( Filter.Size_at_most 3,
        Plan.Join
          ( Filter.Size_at_most 3,
            [ Plan.Fixed_point
                (Plan.Naive, Filter.Size_at_most 3,
                 Plan.Select (Filter.Size_at_most 3, Plan.Scan_keyword _));
              Plan.Fixed_point
                (Plan.Naive, Filter.Size_at_most 3,
                 Plan.Select (Filter.Size_at_most 3, Plan.Scan_keyword _)) ] ) ) ->
      ()
  | p -> Alcotest.failf "unexpected shape %s" (Format.asprintf "%a" Plan.pp p)

let test_push_selection_id_without_am_filter () =
  let q = Query.make ~filter:(Filter.Size_at_least 2) [ "xquery"; "optimization" ] in
  let base = Rewrite.power_to_fixpoint (Plan.initial q) in
  Alcotest.(check bool) "no change" true (base = Rewrite.push_selection base)

let test_mixed_filter_residual_on_top () =
  let filter = Filter.And (Filter.Size_at_most 3, Filter.Size_at_least 2) in
  let q = Query.make ~filter [ "xquery"; "optimization" ] in
  let p = Rewrite.push_selection (Rewrite.power_to_fixpoint (Plan.initial q)) in
  match p with
  | Plan.Select (Filter.Size_at_least 2, Plan.Select (Filter.Size_at_most 3, _)) -> ()
  | p -> Alcotest.failf "residual not on top: %s" (Format.asprintf "%a" Plan.pp p)

let rewrites_preserve_semantics_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"rewrites preserve answers" ~count:30
       QCheck2.Gen.(pair (1 -- 10_000) (4 -- 30))
       (fun (seed, size) ->
         let c = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 43) in
         let k1 = Printf.sprintf "id%d" (Prng.int prng size) in
         let k2 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let filter =
           Filter.And
             (Filter.Size_at_most (2 + Prng.int prng 4), Filter.Size_at_least 1)
         in
         let q = Query.make ~filter [ k1; k2 ] in
         let base = Plan.initial q in
         let reference = Eval.execute c (Rewrite.power_to_fixpoint base) in
         List.for_all
           (fun rewritten -> Frag_set.equal reference (Eval.execute c rewritten))
           [
             Rewrite.use_reduction (Rewrite.power_to_fixpoint base);
             Rewrite.push_selection (Rewrite.power_to_fixpoint base);
             Rewrite.optimize_fully base;
           ]))

let test_paper_example_all_rewrites () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let base = Plan.initial q in
  let reference = Eval.execute c base in
  List.iter
    (fun (name, p) ->
      Alcotest.check set_testable name reference (Eval.execute c p))
    [
      ("power_to_fixpoint", Rewrite.power_to_fixpoint base);
      ("use_reduction", Rewrite.use_reduction (Rewrite.power_to_fixpoint base));
      ("push_selection", Rewrite.push_selection (Rewrite.power_to_fixpoint base));
      ("optimize_fully", Rewrite.optimize_fully base);
    ]

(* --- printing --- *)

let test_pp_plan () =
  let q = paper_query () in
  let rendered = Format.asprintf "%a" Plan.pp (Plan.initial q) in
  Alcotest.(check bool) "mentions both keywords" true
    (let has s = Astring.String.is_infix ~affix:s rendered in
     has "optimization" && has "xquery")

let test_pp_tree_multiline () =
  let q = paper_query () in
  let rendered = Format.asprintf "%a" Plan.pp_tree (Rewrite.optimize_fully (Plan.initial q)) in
  Alcotest.(check bool) "multiple lines" true
    (List.length (String.split_on_char '\n' rendered) > 3)

let test_operator_count () =
  let q = paper_query () in
  Alcotest.(check int) "initial: select + power + 2 scans" 4
    (Plan.operator_count (Plan.initial q))

(* --- cost model and optimizer --- *)

let test_cost_monotone_in_postings () =
  let c = Lazy.force ctx in
  (* optimization occurs in 3 nodes, xquery in 2: scan cost reflects it. *)
  let cost_k k = Cost.cost c (Plan.Scan_keyword k) in
  Alcotest.(check bool) "3 postings > 2" true (cost_k "optimization" > cost_k "xquery")

let test_cost_prefers_pushdown () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let base = Rewrite.power_to_fixpoint (Plan.initial q) in
  let pushed = Rewrite.push_selection base in
  Alcotest.(check bool) "pushdown estimated cheaper" true
    (Cost.cost c pushed < Cost.cost c base)

let test_selectivity_bounds () =
  let filters =
    [
      Filter.True;
      Filter.Size_at_most 3;
      Filter.Not (Filter.Size_at_most 3);
      Filter.And (Filter.Size_at_most 3, Filter.Contains_keyword "x");
      Filter.Or (Filter.Size_at_most 3, Filter.Contains_keyword "x");
      Filter.Equal_depth ("a", "b");
    ]
  in
  List.iter
    (fun p ->
      let s = Cost.selectivity p in
      Alcotest.(check bool) (Filter.to_string p) true (s >= 0.0 && s <= 1.0))
    filters

(* Every strategy's compiled plan, and Auto's, executes to the answer. *)
let test_optimizer_chooses_valid_plan () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let expected = Eval.answers ~strategy:Eval.Brute_force c q in
  List.iter
    (fun strategy ->
      let compiled =
        Eval.compile c (Exec.Request.with_strategy strategy (Exec.Request.of_query q))
      in
      Alcotest.check set_testable (Eval.strategy_name strategy) expected
        (Eval.execute c compiled.Eval.plan))
    (Eval.Auto :: Eval.all_strategies);
  (* An anti-monotonic filter sends Auto to pruned semi-naive, unprobed. *)
  let auto = Eval.compile c (Exec.Request.of_query q) in
  Alcotest.(check string) "auto = semi-naive" "semi-naive"
    (Eval.strategy_name auto.Eval.strategy);
  Alcotest.(check int) "no probe" 0 (List.length auto.Eval.probe)

let test_optimizer_probes_rf () =
  let c = Lazy.force ctx in
  (* No anti-monotonic filter: Auto probes ⊖ of each keyword set.
     F(optimization) = {16,17,81} reduces to {17,81}: RF = 1/3 clears
     the threshold, so set reduction wins and consumes the probe. *)
  let auto = Eval.compile c (Exec.Request.of_query (Query.make Paper.query_keywords)) in
  Alcotest.(check string) "auto = set-reduction" "set-reduction"
    (Eval.strategy_name auto.Eval.strategy);
  match
    List.find_opt
      (function Plan.Reduce (Plan.Scan_keyword "optimization") -> true | _ -> false)
      auto.Eval.probe
  with
  | Some (Plan.Reduce scan as probe) ->
      let rf =
        Xfrag_core.Reduce.factor_of ~original:(Eval.execute c scan)
          ~reduced:(Eval.execute c probe)
      in
      Alcotest.(check bool) "RF ≈ 1/3" true (Float.abs (rf -. (1.0 /. 3.0)) < 1e-9);
      let rec consumes = function
        | Plan.Fixed_point (Plan.Reduced_unchecked (Some r), _, _) when r == probe -> true
        | p -> List.exists consumes (Plan.children p)
      in
      Alcotest.(check bool) "fixed point consumes the probe" true (consumes auto.Eval.plan)
  | _ -> Alcotest.fail "optimization RF not probed"

let test_explain_mentions_plans () =
  let c = Lazy.force ctx in
  let report =
    Explain.plans c (Exec.Request.of_query (Query.make Paper.query_keywords))
  in
  Alcotest.(check bool) "lists the strategies" true
    (List.for_all
       (fun s -> Astring.String.is_infix ~affix:(Eval.strategy_name s) report)
       Eval.all_strategies);
  Alcotest.(check bool) "marks auto's plan" true
    (Astring.String.is_infix ~affix:"* set-reduction" report);
  Alcotest.(check bool) "mentions RF" true
    (Astring.String.is_infix ~affix:"RF" report)

let () =
  Alcotest.run "plan"
    [
      ( "shape",
        [
          Alcotest.test_case "initial (2 keywords)" `Quick test_initial_plan_shape;
          Alcotest.test_case "initial (3 keywords)" `Quick test_initial_plan_three_keywords;
          Alcotest.test_case "power_to_fixpoint" `Quick test_power_to_fixpoint_shape;
          Alcotest.test_case "use_reduction" `Quick test_use_reduction_shape;
          Alcotest.test_case "push_selection (Fig 5)" `Quick test_push_selection_shape;
          Alcotest.test_case "pushdown id without AM filter" `Quick
            test_push_selection_id_without_am_filter;
          Alcotest.test_case "residual on top" `Quick test_mixed_filter_residual_on_top;
          Alcotest.test_case "operator count" `Quick test_operator_count;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "initial plan evaluates" `Quick test_initial_plan_evaluates_to_answer;
          Alcotest.test_case "all rewrites on paper example" `Quick test_paper_example_all_rewrites;
          rewrites_preserve_semantics_prop;
        ] );
      ( "printing",
        [
          Alcotest.test_case "pp" `Quick test_pp_plan;
          Alcotest.test_case "pp_tree" `Quick test_pp_tree_multiline;
        ] );
      ( "cost+optimizer",
        [
          Alcotest.test_case "cost monotone in postings" `Quick test_cost_monotone_in_postings;
          Alcotest.test_case "cost prefers pushdown" `Quick test_cost_prefers_pushdown;
          Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds;
          Alcotest.test_case "optimizer validity" `Quick test_optimizer_chooses_valid_plan;
          Alcotest.test_case "optimizer probes RF" `Quick test_optimizer_probes_rf;
          Alcotest.test_case "explain" `Quick test_explain_mentions_plans;
        ] );
    ]

(* Plans at work (§3, §5): initial plan, Theorem 2 / Theorem 1 /
   Theorem 3 rewrites, every strategy's compiled plan with its cost
   estimate and Auto's choice (reduction-factor probing included), and
   measured operation counts for each strategy.

     dune exec examples/optimizer_demo.exe *)

module Context = Xfrag_core.Context
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Plan = Xfrag_core.Plan
module Rewrite = Xfrag_core.Rewrite
module Exec = Xfrag_core.Exec
module Explain = Xfrag_core.Explain
module Docgen = Xfrag_workload.Docgen

let rule () = Format.printf "%s@." (String.make 72 '-')

let show_query ctx q =
  Format.printf "query: %a@." Query.pp q;
  rule ();
  let initial = Plan.initial q in
  Format.printf "initial plan:        %a@." Plan.pp initial;
  let base = Rewrite.power_to_fixpoint initial in
  Format.printf "Theorem 2 rewrite:   %a@." Plan.pp base;
  Format.printf "Theorem 1 rewrite:   %a@." Plan.pp (Rewrite.use_reduction base);
  Format.printf "Theorem 3 rewrite:   %a@." Plan.pp (Rewrite.push_selection base);
  rule ();
  print_string (Explain.plans ctx (Exec.Request.of_query q));
  rule ();
  Format.printf "measured operation counts per strategy:@.";
  List.iter
    (fun strategy ->
      match Eval.run ~strategy ctx q with
      | outcome ->
          Format.printf "  %-14s answers=%-4d %a@."
            (Eval.strategy_name strategy)
            (Xfrag_core.Frag_set.cardinal outcome.Eval.answers)
            Xfrag_core.Op_stats.pp outcome.Eval.stats
      | exception Invalid_argument msg ->
          Format.printf "  %-14s (skipped: %s)@." (Eval.strategy_name strategy) msg)
    Eval.all_strategies;
  rule ()

let () =
  (* A document where the two query keywords have mid-size posting
     lists, so every strategy has real work to do. *)
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 11; sections = 5 }
      ~plant:[ ("saffron", 6); ("paella", 5) ]
  in
  let ctx = Context.create tree in
  Format.printf "document: %d nodes@.@." (Context.size ctx);

  (* Case 1: anti-monotonic filter — pushdown is available and wins. *)
  show_query ctx
    (Query.make
       ~filter:(Filter.And (Filter.Size_at_most 4, Filter.Height_at_most 2))
       [ "saffron"; "paella" ]);

  (* Case 2: non-anti-monotonic filter only — nothing can be pushed;
     Auto probes the reduction factors instead. *)
  show_query ctx
    (Query.make ~filter:(Filter.Size_at_least 2) [ "saffron"; "paella" ]);

  (* Case 3: mixed conjunction — the anti-monotonic part is pushed, the
     residual is applied on top. *)
  show_query ctx
    (Query.make
       ~filter:(Filter.And (Filter.Size_at_most 5, Filter.Equal_depth ("saffron", "paella")))
       [ "saffron"; "paella" ])

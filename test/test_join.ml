(* Tests for fragment join (Definition 4) and pairwise fragment join
   (Definition 5), including the paper's Figure 3 examples and the
   algebraic laws, both on fixed examples and as qcheck properties. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Filter = Xfrag_core.Filter
module Op_stats = Xfrag_core.Op_stats
module Join_cache = Xfrag_core.Join_cache
module Selection = Xfrag_core.Selection
module Eval = Xfrag_core.Eval
module Query = Xfrag_core.Query
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let fragment_testable =
  Alcotest.testable Fragment.pp Fragment.equal

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let fig3 = lazy (Paper.figure3_context ())

let frag ctx ns = Fragment.of_nodes ctx ns

(* --- Figure 3(b): the paper's worked join example --- *)

let test_figure3_join () =
  let ctx = Lazy.force fig3 in
  let f1 = frag ctx [ 4; 5 ] and f2 = frag ctx [ 7; 9 ] in
  Alcotest.check fragment_testable "⟨n4,n5⟩ ⋈ ⟨n7,n9⟩"
    (frag ctx [ 3; 4; 5; 6; 7; 9 ])
    (Join.fragment ctx f1 f2)

let test_join_single_nodes () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "siblings join through parent"
    (frag ctx [ 7; 8; 9 ])
    (Join.fragment ctx (Fragment.singleton 8) (Fragment.singleton 9));
  Alcotest.check fragment_testable "cousins join through root"
    (frag ctx [ 0; 1; 2; 3; 4; 5 ])
    (Join.fragment ctx (frag ctx [ 1; 2 ]) (frag ctx [ 4; 5 ]))

let test_join_ancestor_descendant () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "ancestor/descendant"
    (frag ctx [ 3; 6; 7 ])
    (Join.fragment ctx (Fragment.singleton 3) (Fragment.singleton 7))

let test_join_overlapping () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "overlapping fragments"
    (frag ctx [ 3; 4; 5; 6 ])
    (Join.fragment ctx (frag ctx [ 3; 4; 5 ]) (frag ctx [ 3; 6 ]))

let test_fragment_many () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "three-way join"
    (frag ctx [ 0; 1; 2; 3; 6; 7; 9 ])
    (Join.fragment_many ctx
       [ Fragment.singleton 2; Fragment.singleton 9; Fragment.singleton 6 ]);
  Alcotest.check_raises "empty list" (Invalid_argument "Join.fragment_many: empty list")
    (fun () -> ignore (Join.fragment_many ctx []))

(* --- Figure 3(c): pairwise fragment join --- *)

let test_figure3_pairwise () =
  let ctx = Lazy.force fig3 in
  let f11 = frag ctx [ 4; 5 ] and f12 = Fragment.singleton 2 in
  let f21 = frag ctx [ 7; 9 ] and f22 = Fragment.singleton 8 in
  let s1 = Frag_set.of_list [ f11; f12 ] and s2 = Frag_set.of_list [ f21; f22 ] in
  let expected =
    Frag_set.of_list
      [
        Join.fragment ctx f11 f21;
        Join.fragment ctx f11 f22;
        Join.fragment ctx f12 f21;
        Join.fragment ctx f12 f22;
      ]
  in
  Alcotest.check set_testable "pairwise = all pairs" expected (Join.pairwise ctx s1 s2)

let test_pairwise_with_empty () =
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 2 ] in
  Alcotest.(check int) "empty left" 0
    (Frag_set.cardinal (Join.pairwise ctx (Frag_set.empty ()) s));
  Alcotest.(check int) "empty right" 0
    (Frag_set.cardinal (Join.pairwise ctx s (Frag_set.empty ())))

let test_pairwise_dedups () =
  let ctx = Lazy.force fig3 in
  (* n8 ⋈ n9 = n9 ⋈ n8 = ⟨7,8,9⟩; both pairs collapse to one output. *)
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  let result = Join.pairwise ctx s s in
  Alcotest.(check int) "three distinct outputs" 3 (Frag_set.cardinal result)
  (* ⟨8⟩, ⟨9⟩ (self-joins) and ⟨7,8,9⟩ *)

let test_pairwise_filtered_prunes () =
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 2; Fragment.singleton 8 ] in
  let stats = Op_stats.create () in
  let result =
    Join.pairwise_filtered ~stats ctx ~prune:(Filter.Size_at_most 2) s s
  in
  (* Self-joins survive (size 1); the cross join n2 ⋈ n8 spans the whole
     root path (size 6) and is pruned. *)
  Alcotest.(check int) "kept" 2 (Frag_set.cardinal result);
  Alcotest.(check bool) "pruned counted" true (stats.Op_stats.pruned >= 1)

let test_stats_counting () =
  let ctx = Lazy.force fig3 in
  let stats = Op_stats.create () in
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  ignore (Join.pairwise ~stats ctx s s);
  Alcotest.(check int) "4 joins" 4 stats.Op_stats.fragment_joins;
  Alcotest.(check int) "4 candidates" 4 stats.Op_stats.candidates;
  Alcotest.(check int) "1 duplicate" 1 stats.Op_stats.duplicates

(* --- the pre-join bound: pairs that cannot pass are never joined --- *)

(* Every keyword node sits four levels under its own top-level section,
   so any two of them are joined through the document root: the
   smallest such join has 9 nodes, far above β = 3. *)
let far_apart_doc =
  let section word = Printf.sprintf "<s><a><b><p>%s</p></b></a></s>" word in
  "<doc>"
  ^ String.concat "" (List.map section [ "apple"; "grape"; "apple"; "grape"; "apple" ])
  ^ "</doc>"

let test_bound_skips_far_pairs () =
  let ctx = Context.of_xml_string far_apart_doc in
  let f1 = Selection.keyword ctx "apple" and f2 = Selection.keyword ctx "grape" in
  let n1 = Frag_set.cardinal f1 and n2 = Frag_set.cardinal f2 in
  Alcotest.(check (pair int int)) "keyword sets" (3, 2) (n1, n2);
  let cache = Join_cache.create ~admission:Join_cache.Admission.Admit_all () in
  let stats = Op_stats.create () in
  let out =
    Join.pairwise_filtered ~stats ~cache ctx ~prune:(Filter.Size_at_most 3) f1 f2
  in
  Alcotest.(check int) "no answers" 0 (Frag_set.cardinal out);
  Alcotest.(check int) "candidates = |F1|·|F2|" (n1 * n2) stats.Op_stats.candidates;
  Alcotest.(check int) "every candidate pruned" (n1 * n2) stats.Op_stats.pruned;
  Alcotest.(check int) "no join materialized" 0 stats.Op_stats.fragment_joins;
  Alcotest.(check (pair int int)) "cache never probed" (0, 0)
    (Join_cache.hits cache, Join_cache.misses cache);
  Alcotest.(check (pair int int)) "no cache counters" (0, 0)
    (stats.Op_stats.cache_hits, stats.Op_stats.cache_misses);
  (* The whole size<=3 query: each keyword fixed point materializes only
     its self-joins (f ⋈ f = f), and the final fold none. *)
  let q = Query.make ~filter:(Filter.Size_at_most 3) [ "apple"; "grape" ] in
  List.iter
    (fun strategy ->
      let o = Eval.run ~strategy ctx q in
      let name = Eval.strategy_name strategy in
      Alcotest.(check int) (name ^ ": no answers") 0 (Frag_set.cardinal o.Eval.answers);
      Alcotest.(check int) (name ^ ": candidates")
        ((n1 * n1) + (n2 * n2) + (n1 * n2))
        o.Eval.stats.Op_stats.candidates;
      Alcotest.(check int) (name ^ ": joins = self-joins") (n1 + n2)
        o.Eval.stats.Op_stats.fragment_joins)
    [ Eval.Pushdown; Eval.Semi_naive ]

(* --- algebraic laws (Definition 4) as qcheck properties --- *)

let law name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:150 QCheck2.Gen.(pair (1 -- 10_000) (2 -- 60)) f)

let with_random_fragments (seed, size) k =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 31) in
  let f1 = Random_tree.fragment ctx prng in
  let f2 = Random_tree.fragment ctx prng in
  let f3 = Random_tree.fragment ctx prng in
  k ctx f1 f2 f3

let idempotency =
  law "idempotency: f ⋈ f = f" (fun input ->
      with_random_fragments input (fun ctx f1 _ _ ->
          Fragment.equal (Join.fragment ctx f1 f1) f1))

let commutativity =
  law "commutativity: f1 ⋈ f2 = f2 ⋈ f1" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          Fragment.equal (Join.fragment ctx f1 f2) (Join.fragment ctx f2 f1)))

let associativity =
  law "associativity: (f1 ⋈ f2) ⋈ f3 = f1 ⋈ (f2 ⋈ f3)" (fun input ->
      with_random_fragments input (fun ctx f1 f2 f3 ->
          Fragment.equal
            (Join.fragment ctx (Join.fragment ctx f1 f2) f3)
            (Join.fragment ctx f1 (Join.fragment ctx f2 f3))))

let absorption =
  law "absorption: f2 ⊆ f1 ⟹ f1 ⋈ f2 = f1" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let joined = Join.fragment ctx f1 f2 in
          (* f2 ⊆ joined always; then joined ⋈ f2 = joined is absorption. *)
          Fragment.equal (Join.fragment ctx joined f2) joined))

let join_contains_inputs =
  law "lemma 1: f ⊆ f ⋈ f'" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let j = Join.fragment ctx f1 f2 in
          Fragment.subfragment f1 j && Fragment.subfragment f2 j))

let join_is_minimal =
  law "minimality: no proper connected subset contains both inputs" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let j = Join.fragment ctx f1 f2 in
          (* Removing any single non-input node from j either disconnects
             it or drops an input: j has no extraneous nodes. *)
          let inputs =
            Xfrag_util.Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2)
          in
          Xfrag_util.Int_sorted.for_all
            (fun n ->
              Xfrag_util.Int_sorted.mem n inputs
              ||
              let without = Xfrag_util.Int_sorted.remove n (Fragment.nodes j) in
              not (Fragment.is_connected ctx without))
            (Fragment.nodes j)))

(* --- pairwise laws (Definition 5) --- *)

let with_random_sets (seed, size) k =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 17) in
  let s1 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
  let s2 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
  let s3 = Random_tree.fragment_set ctx prng ~max_fragments:3 in
  k ctx s1 s2 s3

let pw_law name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:80 QCheck2.Gen.(pair (1 -- 10_000) (2 -- 40)) f)

let pairwise_commutativity =
  pw_law "pairwise commutativity" (fun input ->
      with_random_sets input (fun ctx s1 s2 _ ->
          Frag_set.equal (Join.pairwise ctx s1 s2) (Join.pairwise ctx s2 s1)))

let pairwise_associativity =
  pw_law "pairwise associativity" (fun input ->
      with_random_sets input (fun ctx s1 s2 s3 ->
          Frag_set.equal
            (Join.pairwise ctx (Join.pairwise ctx s1 s2) s3)
            (Join.pairwise ctx s1 (Join.pairwise ctx s2 s3))))

let pairwise_monotonicity =
  pw_law "pairwise monotonicity: F ⊆ F ⋈ F" (fun input ->
      with_random_sets input (fun ctx s1 _ _ ->
          Frag_set.subset s1 (Join.pairwise ctx s1 s1)))

let pairwise_distributes_over_union =
  pw_law "distributive law over ∪" (fun input ->
      with_random_sets input (fun ctx s1 s2 s3 ->
          Frag_set.equal
            (Join.pairwise ctx s1 (Frag_set.union s2 s3))
            (Frag_set.union (Join.pairwise ctx s1 s2) (Join.pairwise ctx s1 s3))))

let test_parallel_equals_sequential () =
  let ctx = Random_tree.context ~seed:404 ~size:60 in
  let prng = Prng.create 404 in
  let s1 =
    Frag_set.of_list (List.init 24 (fun _ -> Random_tree.fragment ctx prng))
  in
  let s2 =
    Frag_set.of_list (List.init 10 (fun _ -> Random_tree.fragment ctx prng))
  in
  let sequential = Join.pairwise ctx s1 s2 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains" domains)
        true
        (Frag_set.equal sequential (Join.pairwise_parallel ~domains ctx s1 s2)))
    [ 1; 2; 4 ];
  (* Filtered variant, plus summed stats. *)
  let prune = Filter.Size_at_most 5 in
  let stats = Op_stats.create () in
  let par = Join.pairwise_parallel ~stats ~domains:4 ~prune ctx s1 s2 in
  Alcotest.(check bool) "filtered parallel = filtered sequential" true
    (Frag_set.equal (Join.pairwise_filtered ctx ~prune s1 s2) par);
  Alcotest.(check int) "summed candidates"
    (Frag_set.cardinal s1 * Frag_set.cardinal s2)
    stats.Op_stats.candidates

let test_parallel_stats_match_serial () =
  (* Regression: parallel workers used to drop Builder.add's result (no
     per-domain duplicate counting) and cross-domain collapses were never
     charged, so EXPLAIN ANALYZE reported different candidates/duplicates
     depending on the domain count. *)
  let ctx = Random_tree.context ~seed:505 ~size:50 in
  let prng = Prng.create 505 in
  let s1 =
    Frag_set.of_list (List.init 20 (fun _ -> Random_tree.fragment ctx prng))
  in
  let s2 =
    Frag_set.of_list (List.init 12 (fun _ -> Random_tree.fragment ctx prng))
  in
  let serial = Op_stats.create () in
  let seq = Join.pairwise ~stats:serial ctx s1 s2 in
  Alcotest.(check bool) "workload produces duplicates" true
    (serial.Op_stats.duplicates > 0);
  List.iter
    (fun domains ->
      let stats = Op_stats.create () in
      let par = Join.pairwise_parallel ~stats ~domains ctx s1 s2 in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: same set" domains)
        true (Frag_set.equal seq par);
      Alcotest.(check int)
        (Printf.sprintf "%d domains: candidates" domains)
        serial.Op_stats.candidates stats.Op_stats.candidates;
      Alcotest.(check int)
        (Printf.sprintf "%d domains: duplicates" domains)
        serial.Op_stats.duplicates stats.Op_stats.duplicates)
    [ 1; 2; 4; 8 ];
  (* Filtered variant: pruned and duplicates must match too. *)
  let prune = Filter.Size_at_most 6 in
  let serial_f = Op_stats.create () in
  ignore (Join.pairwise_filtered ~stats:serial_f ctx ~prune s1 s2);
  let par_f = Op_stats.create () in
  ignore (Join.pairwise_parallel ~stats:par_f ~domains:4 ~prune ctx s1 s2);
  Alcotest.(check int) "filtered: pruned" serial_f.Op_stats.pruned
    par_f.Op_stats.pruned;
  Alcotest.(check int) "filtered: duplicates" serial_f.Op_stats.duplicates
    par_f.Op_stats.duplicates

let pairwise_not_idempotent_witness () =
  (* The paper notes pairwise join is NOT idempotent; exhibit the
     counterexample: joining two disjoint single nodes creates a new
     fragment, so F ⋈ F ≠ F. *)
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  Alcotest.(check bool) "F ⋈ F ≠ F" false (Frag_set.equal (Join.pairwise ctx s s) s)

let () =
  Alcotest.run "join"
    [
      ( "figure3",
        [
          Alcotest.test_case "fragment join (Fig 3b)" `Quick test_figure3_join;
          Alcotest.test_case "single-node joins" `Quick test_join_single_nodes;
          Alcotest.test_case "ancestor/descendant" `Quick test_join_ancestor_descendant;
          Alcotest.test_case "overlapping" `Quick test_join_overlapping;
          Alcotest.test_case "fragment_many" `Quick test_fragment_many;
          Alcotest.test_case "pairwise (Fig 3c)" `Quick test_figure3_pairwise;
          Alcotest.test_case "pairwise with empty" `Quick test_pairwise_with_empty;
          Alcotest.test_case "pairwise dedups" `Quick test_pairwise_dedups;
          Alcotest.test_case "pairwise_filtered prunes" `Quick test_pairwise_filtered_prunes;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "bound skips far pairs" `Quick test_bound_skips_far_pairs;
          Alcotest.test_case "pairwise not idempotent" `Quick pairwise_not_idempotent_witness;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_equals_sequential;
          Alcotest.test_case "parallel stats = serial stats" `Quick
            test_parallel_stats_match_serial;
        ] );
      ( "laws",
        [
          idempotency;
          commutativity;
          associativity;
          absorption;
          join_contains_inputs;
          join_is_minimal;
        ] );
      ( "pairwise-laws",
        [
          pairwise_commutativity;
          pairwise_associativity;
          pairwise_monotonicity;
          pairwise_distributes_over_union;
        ] );
    ]

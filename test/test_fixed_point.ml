(* Tests for fixed points (Definition 9) and Theorem 1: the reduced-set
   cardinality bounds the number of pairwise-join rounds. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Fixed_point = Xfrag_core.Fixed_point
module Filter = Xfrag_core.Filter
module Reduce = Xfrag_core.Reduce
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let test_fixed_point_of_singleton () =
  let ctx = Paper.figure3_context () in
  let s = Frag_set.of_list [ Fragment.singleton 4 ] in
  Alcotest.check set_testable "fixed point of a singleton is itself" s
    (Fixed_point.naive ctx s)

let test_paper_f1_fixed_point () =
  (* §4.2: F1⁺ = {f17, f18, f17 ⋈ f18}. *)
  let ctx = Paper.figure1_context () in
  let f17 = Fragment.singleton 17 and f18 = Fragment.singleton 18 in
  let s = Frag_set.of_list [ f17; f18 ] in
  let expected = Frag_set.of_list [ f17; f18; Join.fragment ctx f17 f18 ] in
  Alcotest.check set_testable "F1+" expected (Fixed_point.naive ctx s)

let test_paper_f2_fixed_point () =
  (* §4.2: F2⁺ = {f16, f17, f81, f16⋈f17, f16⋈f81, f17⋈f81} — six
     fragments (f16 ⋈ f17 ⋈ f81 coincides with f17 ⋈ f81 because n16 is
     on the n17–n81 path). *)
  let ctx = Paper.figure1_context () in
  let f16 = Fragment.singleton 16
  and f17 = Fragment.singleton 17
  and f81 = Fragment.singleton 81 in
  let s = Frag_set.of_list [ f16; f17; f81 ] in
  let expected =
    Frag_set.of_list
      [
        f16; f17; f81;
        Join.fragment ctx f16 f17;
        Join.fragment ctx f16 f81;
        Join.fragment ctx f17 f81;
      ]
  in
  Alcotest.check set_testable "F2+" expected (Fixed_point.naive ctx s);
  Alcotest.(check int) "six fragments" 6 (Frag_set.cardinal (Fixed_point.naive ctx s))

let test_iterate () =
  let ctx = Paper.figure1_context () in
  let s =
    Frag_set.of_list [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  Alcotest.check set_testable "⋈₁(F) = F" s (Fixed_point.iterate ctx 1 s);
  Alcotest.check set_testable "⋈₂(F) = F ⋈ F" (Join.pairwise ctx s s)
    (Fixed_point.iterate ctx 2 s);
  Alcotest.check_raises "n = 0" (Invalid_argument "Fixed_point.iterate: n must be at least 1")
    (fun () -> ignore (Fixed_point.iterate ctx 0 s))

let test_naive_equals_reduction () =
  let ctx = Paper.figure1_context () in
  let s =
    Frag_set.of_list [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  Alcotest.check set_testable "same fixed point" (Fixed_point.naive ctx s)
    (Fixed_point.with_reduction ctx s)

let test_empty_set () =
  let ctx = Paper.figure3_context () in
  Alcotest.(check int) "naive" 0 (Frag_set.cardinal (Fixed_point.naive ctx (Frag_set.empty ())));
  Alcotest.(check int) "reduced" 0
    (Frag_set.cardinal (Fixed_point.with_reduction ctx (Frag_set.empty ())))

let test_filtered_fixed_point_prunes () =
  let ctx = Paper.figure1_context () in
  let s =
    Frag_set.of_list [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  let prune = Filter.Size_at_most 3 in
  let pruned = Fixed_point.naive ctx ~prune s in
  let full = Fixed_point.naive ctx s in
  (* Every kept fragment appears in the unfiltered fixed point and
     satisfies the predicate; every surviving fragment of the full fixed
     point appears in the pruned one (Theorem 3 soundness). *)
  Alcotest.(check bool) "pruned ⊆ full" true (Frag_set.subset pruned full);
  Alcotest.check set_testable "σ(F⁺) = pruned fixed point"
    (Frag_set.filter (Filter.evaluate ctx prune) full) pruned

let test_round_counting () =
  let ctx = Paper.figure1_context () in
  let s =
    Frag_set.of_list [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  let stats_naive = Op_stats.create () in
  ignore (Fixed_point.naive ~stats:stats_naive ctx s);
  let stats_red = Op_stats.create () in
  ignore (Fixed_point.with_reduction_unchecked ~stats:stats_red ctx s);
  (* Theorem 1: exactly |⊖(F)| − 1 = 1 unchecked round; the naive
     variant needs an extra convergence-check round. *)
  let k = Frag_set.cardinal (Reduce.reduce ctx s) in
  Alcotest.(check int) "k = |⊖(F)| = 2" 2 k;
  Alcotest.(check int) "unchecked rounds = k-1" (k - 1) stats_red.Op_stats.fixpoint_rounds;
  Alcotest.(check bool) "naive does more rounds" true
    (stats_naive.Op_stats.fixpoint_rounds > stats_red.Op_stats.fixpoint_rounds)

(* --- the Theorem 1 erratum (reproduction finding) --- *)

(* Root n0 with children n1..n4 (n5 under n4).  The set
   F = {⟨0,4⟩, ⟨0,2,3⟩, ⟨0,1,2,3,4⟩} has ⊖(F) = {⟨0,1,2,3,4⟩} (both
   smaller fragments are subfragments of the pairwise join of the other
   two), so Theorem 1 predicts 0 rounds — yet ⟨0,4⟩ ⋈ ⟨0,2,3⟩ =
   ⟨0,2,3,4⟩ is new.  The theorem is false for general fragment sets. *)
let erratum_ctx () =
  let spec id parent =
    { Xfrag_doctree.Doctree.spec_id = id; spec_parent = parent; spec_label = "n";
      spec_text = "" }
  in
  Xfrag_core.Context.create
    (Xfrag_doctree.Doctree.of_specs
       [ spec 0 (-1); spec 1 0; spec 2 0; spec 3 0; spec 4 0; spec 5 4 ])

let erratum_set ctx =
  Frag_set.of_list
    [
      Fragment.of_nodes ctx [ 0; 4 ];
      Fragment.of_nodes ctx [ 0; 2; 3 ];
      Fragment.of_nodes ctx [ 0; 1; 2; 3; 4 ];
    ]

let test_theorem1_erratum () =
  let ctx = erratum_ctx () in
  let s = erratum_set ctx in
  Alcotest.(check int) "k = 1" 1 (Frag_set.cardinal (Reduce.reduce ctx s));
  let unchecked = Fixed_point.with_reduction_unchecked ctx s in
  let naive = Fixed_point.naive ctx s in
  (* The paper's recipe under-computes here… *)
  Alcotest.(check bool) "paper recipe misses a fragment" false
    (Frag_set.equal unchecked naive);
  Alcotest.(check bool) "⟨0,2,3,4⟩ missing" true
    (Frag_set.mem (Fragment.of_nodes ctx [ 0; 2; 3; 4 ]) naive
    && not (Frag_set.mem (Fragment.of_nodes ctx [ 0; 2; 3; 4 ]) unchecked));
  (* …while the confirming variant stays correct. *)
  Alcotest.(check bool) "sound variant agrees with naive" true
    (Frag_set.equal (Fixed_point.with_reduction ctx s) naive)

(* Mutual subsumption can empty ⊖(F) entirely (every member is a
   subfragment of a join of two others).  Regression: this used to send
   the reduced fixed point into an unbounded loop. *)
let test_reduce_can_be_empty () =
  let ctx = erratum_ctx () in
  let s =
    Frag_set.of_list
      [
        Fragment.of_nodes ctx [ 0; 2; 3 ];
        Fragment.of_nodes ctx [ 0; 1; 2; 4 ];
        Fragment.of_nodes ctx [ 0; 2; 3; 4 ];
        Fragment.of_nodes ctx [ 0; 1; 2; 3; 4 ];
      ]
  in
  Alcotest.(check int) "⊖(F) is empty" 0
    (Frag_set.cardinal (Reduce.reduce ctx s));
  (* Terminates and still agrees with the naive fixed point. *)
  Alcotest.(check bool) "sound" true
    (Frag_set.equal (Fixed_point.with_reduction ctx s) (Fixed_point.naive ctx s))

(* --- Theorem 1 as a property --- *)

let gen = QCheck2.Gen.(pair (1 -- 10_000) (2 -- 30))

let random_set (seed, size) =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 7) in
  (ctx, Random_tree.fragment_set ctx prng ~max_fragments:5)

(* Theorem 1 restricted to its valid setting: single-node seeds (the
   keyword-selected node sets of §2.3). *)
let random_singleton_set (seed, size) =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 7) in
  let count = 1 + Prng.int prng 6 in
  let nodes = List.init count (fun _ -> Prng.int prng size) in
  (ctx, Frag_set.of_list (List.map Fragment.singleton nodes))

let theorem1_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"Theorem 1 on single-node seeds: ⋈ₙ(F) = ⋈ₖ(F), k = |⊖(F)|" ~count:100 gen
       (fun input ->
         let ctx, s = random_singleton_set input in
         let n = Frag_set.cardinal s in
         let k = Frag_set.cardinal (Xfrag_core.Reduce.reduce ctx s) in
         k <= n
         && Frag_set.equal (Fixed_point.iterate ctx (max 1 n) s)
              (Fixed_point.iterate ctx (max 1 k) s)))

let theorem1_unchecked_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"unchecked reduction correct on single-node seeds"
       ~count:100 gen
       (fun input ->
         let ctx, s = random_singleton_set input in
         Frag_set.equal (Fixed_point.naive ctx s)
           (Fixed_point.with_reduction_unchecked ctx s)))

let semi_naive_equals_naive_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"semi-naive = naive (general sets)" ~count:80 gen
       (fun input ->
         let ctx, s = random_set input in
         Frag_set.equal (Fixed_point.naive ctx s) (Fixed_point.semi_naive ctx s)))

let semi_naive_filtered_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"semi-naive with pruning = filtered naive" ~count:80 gen
       (fun input ->
         let ctx, s = random_set input in
         let prune = Filter.Size_at_most 4 in
         Frag_set.equal
           (Fixed_point.naive ctx ~prune s)
           (Fixed_point.semi_naive ~prune ctx s)))

let semi_naive_fewer_joins_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"semi-naive performs no more joins than naive" ~count:80
       gen
       (fun input ->
         let ctx, s = random_singleton_set input in
         let stats_naive = Op_stats.create () in
         ignore (Fixed_point.naive ~stats:stats_naive ctx s);
         let stats_semi = Op_stats.create () in
         ignore (Fixed_point.semi_naive ~stats:stats_semi ctx s);
         stats_semi.Op_stats.fragment_joins <= stats_naive.Op_stats.fragment_joins))

let naive_equals_reduction_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"naive and reduced fixed points agree" ~count:60 gen
       (fun input ->
         let ctx, s = random_set input in
         Frag_set.equal (Fixed_point.naive ctx s) (Fixed_point.with_reduction ctx s)))

let fixed_point_closure_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"F⁺ is closed under join" ~count:40 gen
       (fun input ->
         let ctx, s = random_set input in
         let fp = Fixed_point.naive ctx s in
         Frag_set.equal fp (Join.pairwise ctx fp fp)))

let fixed_point_contains_seed_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"F ⊆ F⁺" ~count:60 gen (fun input ->
         let ctx, s = random_set input in
         Frag_set.subset s (Fixed_point.naive ctx s)))

let filtered_soundness_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"σ(F⁺) = filtered fixed point (size filter)" ~count:60 gen
       (fun input ->
         let ctx, s = random_set input in
         let prune = Filter.Size_at_most 4 in
         Frag_set.equal
           (Frag_set.filter (Filter.evaluate ctx prune) (Fixed_point.naive ctx s))
           (Fixed_point.naive ctx ~prune s)
         && Frag_set.equal
              (Frag_set.filter (Filter.evaluate ctx prune) (Fixed_point.naive ctx s))
              (Fixed_point.with_reduction ctx ~prune s)))

let () =
  Alcotest.run "fixed_point"
    [
      ( "unit",
        [
          Alcotest.test_case "singleton" `Quick test_fixed_point_of_singleton;
          Alcotest.test_case "paper F1+" `Quick test_paper_f1_fixed_point;
          Alcotest.test_case "paper F2+" `Quick test_paper_f2_fixed_point;
          Alcotest.test_case "iterate" `Quick test_iterate;
          Alcotest.test_case "naive = reduction" `Quick test_naive_equals_reduction;
          Alcotest.test_case "empty set" `Quick test_empty_set;
          Alcotest.test_case "filtered fixed point" `Quick test_filtered_fixed_point_prunes;
          Alcotest.test_case "round counting" `Quick test_round_counting;
          Alcotest.test_case "Theorem 1 erratum (general sets)" `Quick test_theorem1_erratum;
          Alcotest.test_case "empty reduced set terminates" `Quick test_reduce_can_be_empty;
        ] );
      ( "properties",
        [
          theorem1_prop;
          theorem1_unchecked_prop;
          semi_naive_equals_naive_prop;
          semi_naive_filtered_prop;
          semi_naive_fewer_joins_prop;
          naive_equals_reduction_prop;
          fixed_point_closure_prop;
          fixed_point_contains_seed_prop;
          filtered_soundness_prop;
        ] );
    ]

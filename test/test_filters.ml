(* Tests for filters (Definitions 3 and 11, §3.3–3.4): evaluation,
   anti-monotonicity classification and its semantic soundness,
   decomposition, parsing, and the paper's Figure 6/7 examples. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Filter = Xfrag_core.Filter
module Frag_set = Xfrag_core.Frag_set
module Selection = Xfrag_core.Selection
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng
module Doctree = Xfrag_doctree.Doctree
module Lca = Xfrag_doctree.Lca
module Join = Xfrag_core.Join

let ctx = lazy (Paper.figure1_context ())

let frag ns = Fragment.of_nodes (Lazy.force ctx) ns

let ev p f = Filter.evaluate (Lazy.force ctx) p f

(* --- evaluation --- *)

let test_true_filter () =
  Alcotest.(check bool) "always true" true (ev Filter.True (frag [ 17 ]))

let test_size_filters () =
  let f3 = frag [ 16; 17; 18 ] in
  Alcotest.(check bool) "size<=3 holds" true (ev (Filter.Size_at_most 3) f3);
  Alcotest.(check bool) "size<=2 fails" false (ev (Filter.Size_at_most 2) f3);
  Alcotest.(check bool) "size>=3 holds" true (ev (Filter.Size_at_least 3) f3);
  Alcotest.(check bool) "size>=4 fails" false (ev (Filter.Size_at_least 4) f3)

let test_height_filter () =
  Alcotest.(check bool) "height<=1" true (ev (Filter.Height_at_most 1) (frag [ 16; 17; 18 ]));
  Alcotest.(check bool) "height<=0 fails" false
    (ev (Filter.Height_at_most 0) (frag [ 16; 17 ]));
  Alcotest.(check bool) "chain height 3" true
    (ev (Filter.Height_at_most 3) (frag [ 0; 1; 14; 16 ]));
  Alcotest.(check bool) "chain height 2 fails" false
    (ev (Filter.Height_at_most 2) (frag [ 0; 1; 14; 16 ]))

let test_span_filter () =
  Alcotest.(check bool) "span<=2" true (ev (Filter.Span_at_most 2) (frag [ 16; 17; 18 ]));
  Alcotest.(check bool) "span<=1 fails" false
    (ev (Filter.Span_at_most 1) (frag [ 16; 17; 18 ]))

let test_diameter_filter () =
  (* ⟨n16,n17,n18⟩: the two leaves n17, n18 are 2 edges apart. *)
  let f = frag [ 16; 17; 18 ] in
  Alcotest.(check bool) "diameter<=2" true (ev (Filter.Diameter_at_most 2) f);
  Alcotest.(check bool) "diameter<=1 fails" false (ev (Filter.Diameter_at_most 1) f);
  Alcotest.(check bool) "singleton diameter 0" true
    (ev (Filter.Diameter_at_most 0) (frag [ 17 ]));
  (* Chain n0..n16 has diameter 3. *)
  Alcotest.(check bool) "chain diameter 3" true
    (ev (Filter.Diameter_at_most 3) (frag [ 0; 1; 14; 16 ]));
  Alcotest.(check bool) "chain diameter 2 fails" false
    (ev (Filter.Diameter_at_most 2) (frag [ 0; 1; 14; 16 ]))

let test_width_filter () =
  (* ⟨n16,n17,n18⟩: n17 and n18 are adjacent leaves → width 1. *)
  Alcotest.(check bool) "width<=1" true (ev (Filter.Width_at_most 1) (frag [ 16; 17; 18 ]));
  Alcotest.(check bool) "width<=0 fails" false
    (ev (Filter.Width_at_most 0) (frag [ 16; 17; 18 ]));
  Alcotest.(check bool) "single leaf width 0" true
    (ev (Filter.Width_at_most 0) (frag [ 17 ]));
  (* A fragment spanning the whole document (n0 covers all leaves) has
     maximal width. *)
  let c = Lazy.force ctx in
  let total_leaves = Xfrag_doctree.Doctree.leaf_count c.Xfrag_core.Context.tree in
  Alcotest.(check bool) "whole-document member" false
    (ev (Filter.Width_at_most (total_leaves - 2)) (frag [ 0; 1 ]));
  Alcotest.(check int) "width value" (total_leaves - 1)
    (Xfrag_core.Fragment.width c (frag [ 0; 1 ]))

let test_depth_under () =
  Alcotest.(check bool) "all within depth 3" true
    (ev (Filter.Depth_under 3) (frag [ 14; 15 ]));
  Alcotest.(check bool) "n17 is at depth 4" false
    (ev (Filter.Depth_under 3) (frag [ 16; 17 ]))

let test_labels_among () =
  Alcotest.(check bool) "par+subsubsection" true
    (ev (Filter.Labels_among [ "par"; "subsubsection" ]) (frag [ 16; 17; 18 ]));
  Alcotest.(check bool) "par only fails" false
    (ev (Filter.Labels_among [ "par" ]) (frag [ 16; 17 ]))

let test_contains_keyword_filter () =
  Alcotest.(check bool) "has xquery" true
    (ev (Filter.Contains_keyword "xquery") (frag [ 16; 17 ]));
  Alcotest.(check bool) "no xquery" false
    (ev (Filter.Contains_keyword "xquery") (frag [ 16 ]))

let test_root_label () =
  Alcotest.(check bool) "root is subsubsection" true
    (ev (Filter.Root_label_is "subsubsection") (frag [ 16; 17 ]));
  Alcotest.(check bool) "root is not par" false
    (ev (Filter.Root_label_is "par") (frag [ 16; 17 ]))

let test_connectives () =
  let f = frag [ 16; 17; 18 ] in
  Alcotest.(check bool) "and" true
    (ev (Filter.And (Filter.Size_at_most 3, Filter.Height_at_most 1)) f);
  Alcotest.(check bool) "and fails" false
    (ev (Filter.And (Filter.Size_at_most 2, Filter.Height_at_most 1)) f);
  Alcotest.(check bool) "or" true
    (ev (Filter.Or (Filter.Size_at_most 2, Filter.Height_at_most 1)) f);
  Alcotest.(check bool) "not" false (ev (Filter.Not (Filter.Size_at_most 3)) f)

(* --- Figure 7: the equal-depth filter --- *)

let test_equal_depth_figure7 () =
  (* f = ⟨n14, n15, n16, n17⟩: 'optimization' occurs at n16 (depth 2
     from root n14) and n17 (depth 3); 'xquery' at n17/n18.  Build the
     paper's flavour of counterexample: a fragment satisfying the filter
     whose subfragment does not. *)
  let p = Filter.Equal_depth ("xquery", "optimization") in
  (* f = ⟨n17⟩: both keywords in n17 at depth 0 → satisfied. *)
  Alcotest.(check bool) "single node satisfies" true (ev p (frag [ 17 ]));
  (* f = ⟨n16, n18⟩: optimization at n16 (depth 0), xquery at n18
     (depth 1) → fails. *)
  Alcotest.(check bool) "uneven depths fail" false (ev p (frag [ 16; 18 ]));
  (* f = ⟨n16, n17, n18⟩: optimization at n16 (0) and n17 (1) → uneven
     within one keyword → fails. *)
  Alcotest.(check bool) "mixed depths fail" false (ev p (frag [ 16; 17; 18 ]));
  (* missing keyword → fails *)
  Alcotest.(check bool) "missing keyword" false (ev p (frag [ 18 ]))

let test_equal_depth_not_anti_monotonic_witness () =
  let p = Filter.Equal_depth ("xquery", "optimization") in
  Alcotest.(check bool) "classified non-anti-monotonic" false (Filter.is_anti_monotonic p)

let test_equal_depth_violation_custom_doc () =
  (* Purpose-built document where a passing fragment has a failing
     subfragment, proving Equal_depth is not anti-monotonic:
         0 root
         ├─ 1 "k1 here"          (depth 1)
         └─ 2 "k2 here"          (depth 1)
     f = ⟨0,1,2⟩: k1 at depth 1, k2 at depth 1 → passes.
     f' = ⟨0,1⟩ ⊆ f: k2 absent → fails. *)
  let spec id parent text =
    { Doctree.spec_id = id; spec_parent = parent; spec_label = "n"; spec_text = text }
  in
  let ctx =
    Context.create
      (Doctree.of_specs [ spec 0 (-1) ""; spec 1 0 "k1 here"; spec 2 0 "k2 here" ])
  in
  let p = Filter.Equal_depth ("k1", "k2") in
  let f = Fragment.of_nodes ctx [ 0; 1; 2 ] in
  let f' = Fragment.of_nodes ctx [ 0; 1 ] in
  Alcotest.(check bool) "super passes" true (Filter.evaluate ctx p f);
  Alcotest.(check bool) "sub fails" false (Filter.evaluate ctx p f');
  Alcotest.(check bool) "hence not anti-monotonic" false (Filter.is_anti_monotonic p)

(* --- classification --- *)

let test_classification () =
  let am =
    [
      Filter.True;
      Filter.Size_at_most 3;
      Filter.Height_at_most 2;
      Filter.Span_at_most 5;
      Filter.Diameter_at_most 3;
      Filter.Width_at_most 2;
      Filter.Depth_under 4;
      Filter.Labels_among [ "par" ];
      Filter.And (Filter.Size_at_most 3, Filter.Height_at_most 2);
      Filter.Or (Filter.Size_at_most 3, Filter.Span_at_most 1);
    ]
  in
  let not_am =
    [
      Filter.Size_at_least 2;
      Filter.Contains_keyword "x";
      Filter.Root_label_is "par";
      Filter.Equal_depth ("a", "b");
      Filter.Not (Filter.Size_at_most 3);
      Filter.And (Filter.Size_at_most 3, Filter.Size_at_least 2);
      Filter.Or (Filter.Size_at_most 3, Filter.Size_at_least 2);
    ]
  in
  List.iter
    (fun p -> Alcotest.(check bool) (Filter.to_string p) true (Filter.is_anti_monotonic p))
    am;
  List.iter
    (fun p -> Alcotest.(check bool) (Filter.to_string p) false (Filter.is_anti_monotonic p))
    not_am

(* Semantic soundness: a syntactically anti-monotonic filter really is
   anti-monotonic on random fragments — for every fragment passing the
   filter, all connected subfragments pass too. *)
let connected_subfragments ctx f =
  (* All subfragments obtained by repeatedly dropping a fragment leaf. *)
  let rec collect acc frontier =
    match frontier with
    | [] -> acc
    | f :: rest ->
        let subs =
          Fragment.leaves ctx f
          |> List.filter (fun _ -> Fragment.size f > 1)
          |> List.map (fun leaf ->
                 Fragment.of_sorted ctx
                   (Xfrag_util.Int_sorted.remove leaf (Fragment.nodes f)))
        in
        let fresh = List.filter (fun s -> not (List.exists (Fragment.equal s) acc)) subs in
        collect (fresh @ acc) (fresh @ rest)
  in
  collect [] [ f ]

let am_soundness_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"syntactic AM implies semantic AM" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 25))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 3) in
         let f = Random_tree.fragment ctx prng in
         let filters =
           [
             Filter.Size_at_most 3;
             Filter.Height_at_most 1;
             Filter.Span_at_most 4;
             Filter.Diameter_at_most 2;
             Filter.Width_at_most 3;
             Filter.Depth_under 3;
             Filter.And (Filter.Size_at_most 4, Filter.Span_at_most 6);
             Filter.Or (Filter.Size_at_most 2, Filter.Height_at_most 1);
           ]
         in
         List.for_all
           (fun p ->
             (not (Filter.evaluate ctx p f))
             || List.for_all
                  (fun sub -> Filter.evaluate ctx p sub)
                  (connected_subfragments ctx f))
           filters))

(* --- pre-join bound (Filter.may_join) --- *)

(* A connected fragment rooted at [root]: grow only downwards, so the
   root stays the root. *)
let grow_from ctx prng root =
  let tree = ctx.Context.tree in
  let members = ref [ root ] in
  for _ = 1 to Prng.int prng 6 do
    let frontier =
      List.concat_map
        (fun n ->
          List.filter (fun c -> not (List.mem c !members)) (Doctree.children tree n))
        !members
    in
    if frontier <> [] then members := Prng.choose prng (Array.of_list frontier) :: !members
  done;
  Fragment.of_nodes ctx !members

let rec random_descendant ctx prng n =
  match Doctree.children ctx.Context.tree n with
  | [] -> n
  | kids ->
      if Prng.int prng 4 = 0 then n
      else random_descendant ctx prng (Prng.choose prng (Array.of_list kids))

let is_ancestor ctx a b = Lca.lca ctx.Context.lca a b = a

(* Operand pairs of every shape the bound distinguishes: equal roots,
   one root an ancestor of the other (both orders), disjoint subtrees
   (when the tree has any), and two unconstrained random fragments. *)
let join_operands ctx prng =
  let n = Doctree.size ctx.Context.tree in
  let node () = Prng.int prng n in
  let same =
    let r = node () in
    (grow_from ctx prng r, grow_from ctx prng r)
  in
  let ancestor =
    let r1 = node () in
    let r2 = random_descendant ctx prng r1 in
    (grow_from ctx prng r1, grow_from ctx prng r2)
  in
  let disjoint =
    List.init 8 (fun _ -> (node (), node ()))
    |> List.find_opt (fun (a, b) -> not (is_ancestor ctx a b || is_ancestor ctx b a))
    |> Option.map (fun (a, b) -> (grow_from ctx prng a, grow_from ctx prng b))
  in
  let random = (Random_tree.fragment ctx prng, Random_tree.fragment ctx prng) in
  [ same; ancestor; (snd ancestor, fst ancestor); random ] @ Option.to_list disjoint

(* Random filter trees over the bounded terms, terms that always answer
   "may pass" (anti-monotone or not), and the connectives. *)
let rec random_filter prng depth =
  let leaf () =
    match Prng.int prng 9 with
    | 0 -> Filter.Size_at_most (Prng.int prng 12)
    | 1 -> Filter.Span_at_most (Prng.int prng 16)
    | 2 -> Filter.Height_at_most (Prng.int prng 5)
    | 3 -> Filter.True
    | 4 -> Filter.Depth_under (Prng.int prng 6)
    | 5 -> Filter.Diameter_at_most (Prng.int prng 6)
    | 6 -> Filter.Size_at_least (Prng.int prng 6)
    | 7 -> Filter.Width_at_most (Prng.int prng 4)
    | _ -> Filter.Not (Filter.Size_at_most (Prng.int prng 8))
  in
  if depth = 0 || Prng.int prng 3 = 0 then leaf ()
  else
    let p1 = random_filter prng (depth - 1) and p2 = random_filter prng (depth - 1) in
    if Prng.bool prng then Filter.And (p1, p2) else Filter.Or (p1, p2)

let may_join_sound_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"may_join rejects only joins that fail" ~count:300
       QCheck2.Gen.(pair (1 -- 10_000) (1 -- 40))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 7) in
         List.for_all
           (fun (f1, f2) ->
             let joined = Join.fragment ctx f1 f2 in
             List.for_all
               (fun _ ->
                 let p = random_filter prng 3 in
                 Filter.may_join ctx p f1 f2 || not (Filter.evaluate ctx p joined))
               (List.init 12 Fun.id))
           (join_operands ctx prng)))

(* Where the bound is exact, [may_join] must flip exactly at the real
   value: the disjoint-subtree size and the span in every case. *)
let may_join_exact_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"may_join is exact for disjoint size and span" ~count:300
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 40))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 11) in
         let flips_at p_of v f1 f2 =
           Filter.may_join ctx (p_of v) f1 f2
           && not (Filter.may_join ctx (p_of (v - 1)) f1 f2)
         in
         List.for_all
           (fun (f1, f2) ->
             let joined = Join.fragment ctx f1 f2 in
             let r1 = Fragment.root f1 and r2 = Fragment.root f2 in
             let disjoint = not (is_ancestor ctx r1 r2 || is_ancestor ctx r2 r1) in
             let depth = Doctree.depth ctx.Context.tree in
             let span_formula =
               let last f = Xfrag_util.Int_sorted.max_elt (Fragment.nodes f) in
               max (last f1) (last f2) - Lca.lca ctx.Context.lca r1 r2
             in
             let size_ok =
               (not disjoint)
               || Fragment.size f1 + Fragment.size f2 + depth r1 + depth r2
                  - (2 * depth (Lca.lca ctx.Context.lca r1 r2))
                  - 1
                  = Fragment.size joined
                  && flips_at (fun b -> Filter.Size_at_most b) (Fragment.size joined) f1 f2
             in
             size_ok
             && span_formula = Fragment.span joined
             && flips_at (fun w -> Filter.Span_at_most w) (Fragment.span joined) f1 f2)
           (join_operands ctx prng)))

(* --- decomposition --- *)

let test_decompose () =
  let p =
    Filter.And
      (Filter.Size_at_most 3, Filter.And (Filter.Contains_keyword "x", Filter.Height_at_most 2))
  in
  let am, residual = Filter.decompose p in
  Alcotest.(check bool) "am part anti-monotonic" true (Filter.is_anti_monotonic am);
  Alcotest.(check string) "am part" "(size<=3 \xE2\x88\xA7 height<=2)" (Filter.to_string am);
  Alcotest.(check string) "residual" "keyword=x" (Filter.to_string residual)

let test_decompose_all_am () =
  let am, residual = Filter.decompose (Filter.Size_at_most 3) in
  Alcotest.(check string) "am" "size<=3" (Filter.to_string am);
  Alcotest.(check bool) "residual true" true (residual = Filter.True)

let test_decompose_none_am () =
  let am, residual = Filter.decompose (Filter.Size_at_least 3) in
  Alcotest.(check bool) "am true" true (am = Filter.True);
  Alcotest.(check string) "residual" "size>=3" (Filter.to_string residual)

let decompose_equiv_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"decompose preserves semantics" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 25))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 5) in
         let f = Random_tree.fragment ctx prng in
         let p =
           Filter.And
             ( Filter.Size_at_most (1 + Prng.int prng 5),
               Filter.And
                 (Filter.Size_at_least (1 + Prng.int prng 3),
                  Filter.Height_at_most (Prng.int prng 4)) )
         in
         let am, residual = Filter.decompose p in
         Filter.evaluate ctx p f
         = (Filter.evaluate ctx am f && Filter.evaluate ctx residual f)))

(* --- selection --- *)

let test_selection () =
  let c = Lazy.force ctx in
  let s = Frag_set.of_list [ frag [ 17 ]; frag [ 16; 17; 18 ]; frag [ 0; 1; 14; 16 ] ] in
  let selected = Selection.select c (Filter.Size_at_most 3) s in
  Alcotest.(check int) "two survive" 2 (Frag_set.cardinal selected)

let test_selection_keyword () =
  let c = Lazy.force ctx in
  let s = Selection.keyword c "optimization" in
  Alcotest.(check int) "F2 = three nodes" 3 (Frag_set.cardinal s);
  Alcotest.(check bool) "all singletons" true
    (Frag_set.for_all (fun f -> Fragment.size f = 1) s)

(* --- parsing / printing --- *)

let test_of_string_terms () =
  let ok s expected =
    match Filter.of_string s with
    | Ok p -> Alcotest.(check string) s expected (Filter.to_string p)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "size<=3" "size<=3";
  ok "size>=2" "size>=2";
  ok "height<=1" "height<=1";
  ok "span<=9" "span<=9";
  ok "diameter<=3" "diameter<=3";
  ok "width<=4" "width<=4";
  ok "depth<=4" "depth<=4";
  ok "rootlabel=par" "rootlabel=par";
  ok "labels=a|b" "labels=a|b";
  ok "keyword=xml" "keyword=xml";
  ok "eqdepth=a/b" "eqdepth=a/b";
  ok "true" "true";
  ok "" "true";
  ok "size<=3,height<=2" "(size<=3 \xE2\x88\xA7 height<=2)";
  ok "not:size<=3" "not:(size<=3)"

let test_of_string_errors () =
  let err s =
    match Filter.of_string s with
    | Ok p -> Alcotest.failf "%s: expected error, got %s" s (Filter.to_string p)
    | Error _ -> ()
  in
  err "size<=x";
  err "bogus";
  err "eqdepth=only_one";
  err "size<=3,junk"

let () =
  Alcotest.run "filters"
    [
      ( "evaluation",
        [
          Alcotest.test_case "true" `Quick test_true_filter;
          Alcotest.test_case "size" `Quick test_size_filters;
          Alcotest.test_case "height" `Quick test_height_filter;
          Alcotest.test_case "span" `Quick test_span_filter;
          Alcotest.test_case "diameter" `Quick test_diameter_filter;
          Alcotest.test_case "width" `Quick test_width_filter;
          Alcotest.test_case "depth" `Quick test_depth_under;
          Alcotest.test_case "labels" `Quick test_labels_among;
          Alcotest.test_case "keyword" `Quick test_contains_keyword_filter;
          Alcotest.test_case "root label" `Quick test_root_label;
          Alcotest.test_case "connectives" `Quick test_connectives;
        ] );
      ( "figure7",
        [
          Alcotest.test_case "equal-depth semantics" `Quick test_equal_depth_figure7;
          Alcotest.test_case "classified non-AM" `Quick test_equal_depth_not_anti_monotonic_witness;
          Alcotest.test_case "violation witness" `Quick test_equal_depth_violation_custom_doc;
        ] );
      ( "classification",
        [ Alcotest.test_case "table" `Quick test_classification; am_soundness_prop ] );
      ("pre-join bound", [ may_join_sound_prop; may_join_exact_prop ]);
      ( "decomposition",
        [
          Alcotest.test_case "mixed" `Quick test_decompose;
          Alcotest.test_case "all AM" `Quick test_decompose_all_am;
          Alcotest.test_case "none AM" `Quick test_decompose_none_am;
          decompose_equiv_prop;
        ] );
      ( "selection",
        [
          Alcotest.test_case "filter set" `Quick test_selection;
          Alcotest.test_case "keyword selection" `Quick test_selection_keyword;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "terms" `Quick test_of_string_terms;
          Alcotest.test_case "errors" `Quick test_of_string_errors;
        ] );
    ]

module Inverted_index = Xfrag_doctree.Inverted_index

type estimate = { cost : float; cardinality : float }

let set_growth_cap = 1.0e6

let cap x = Float.min x set_growth_cap

let rec selectivity = function
  | Filter.True -> 1.0
  | Filter.Size_at_most b -> Float.min 1.0 (0.1 *. float_of_int b)
  | Filter.Size_at_least _ -> 0.5
  | Filter.Height_at_most h -> Float.min 1.0 (0.2 *. float_of_int (h + 1))
  | Filter.Span_at_most w -> Float.min 1.0 (0.05 *. float_of_int (w + 1))
  | Filter.Diameter_at_most d -> Float.min 1.0 (0.15 *. float_of_int (d + 1))
  | Filter.Width_at_most w -> Float.min 1.0 (0.08 *. float_of_int (w + 1))
  | Filter.Depth_under _ -> 0.8
  | Filter.Labels_among ls -> Float.min 1.0 (0.1 *. float_of_int (List.length ls))
  | Filter.Contains_keyword _ -> 0.3
  | Filter.Root_label_is _ -> 0.2
  | Filter.Equal_depth _ -> 0.1
  | Filter.Not p -> 1.0 -. selectivity p
  | Filter.And (p, q) -> selectivity p *. selectivity q
  | Filter.Or (p, q) ->
      let a = selectivity p and b = selectivity q in
      a +. b -. (a *. b)

let rec estimate (ctx : Context.t) plan =
  match plan with
  | Plan.Scan_keyword k ->
      let n = float_of_int (Inverted_index.node_count ctx.index k) in
      { cost = n; cardinality = n }
  | Plan.Select (p, x) ->
      let e = estimate ctx x in
      { cost = e.cost +. e.cardinality; cardinality = e.cardinality *. selectivity p }
  | Plan.Strict_leaf (_, x) ->
      let e = estimate ctx x in
      { e with cost = e.cost +. e.cardinality }
  | Plan.Join (p, x :: xs) ->
      List.fold_left
        (fun ea x ->
          let eb = estimate ctx x in
          let produced = ea.cardinality *. eb.cardinality in
          {
            cost = ea.cost +. eb.cost +. produced;
            cardinality = cap (produced *. selectivity p);
          })
        (estimate ctx x) xs
  | Plan.Join (_, []) | Plan.Power_join [] -> { cost = 0.0; cardinality = 0.0 }
  | Plan.Power_join (x :: xs) ->
      (* Literal powerset join: exponential in the operand sizes. *)
      let subsets x = Float.min set_growth_cap (Float.pow 2.0 (Float.min x 40.0)) in
      List.fold_left
        (fun ea x ->
          let eb = estimate ctx x in
          let produced = cap (subsets ea.cardinality *. subsets eb.cardinality) in
          { cost = ea.cost +. eb.cost +. produced; cardinality = produced })
        (estimate ctx x) xs
  | Plan.Reduce x ->
      (* The |F|² pairwise joins every ⊖ performs. *)
      let e = estimate ctx x in
      { e with cost = e.cost +. (e.cardinality *. e.cardinality) }
  | Plan.Fixed_point (algo, Filter.True, x) ->
      let e = estimate ctx x in
      let out = cap (e.cardinality *. e.cardinality) in
      let round = out *. e.cardinality /. 4.0 in
      let work =
        match algo with
        | Plan.Naive -> e.cardinality *. round
        | Plan.Semi_naive ->
            (* Each discovered fragment is joined against the seed once. *)
            out *. e.cardinality
        | Plan.Reduced | Plan.Reduced_unchecked _ ->
            (* Reduction typically halves the round count; the ⊖ probe
               is paid here unless a Reduce node already computed it. *)
            let probe =
              match algo with
              | Plan.Reduced_unchecked (Some _) -> 0.0
              | _ -> e.cardinality *. e.cardinality
            in
            probe +. (Float.max 1.0 (e.cardinality /. 2.0) *. round)
      in
      { cost = e.cost +. work; cardinality = out }
  | Plan.Fixed_point (_, p, x) ->
      let e = estimate ctx x in
      let seed = e.cardinality *. selectivity p in
      let out = cap (seed *. seed *. selectivity p) in
      { cost = e.cost +. (seed *. out); cardinality = out }

let cost ctx plan = (estimate ctx plan).cost

module Clock = Xfrag_obs.Clock

type node = {
  op : string;
  rows : int;
  in_rows : int list;
  self_ns : int;
  counters : (string * int) list;
  children : node list;
}

type report = {
  query : Query.t;
  plan : Plan.t;
  estimated_cost : float;
  root : node;
  answers : Frag_set.t;
  total_ns : int;
}

let rec total_ns n =
  List.fold_left (fun acc c -> acc + total_ns c) n.self_ns n.children

let filter_str p = Format.asprintf "%a" Filter.pp p

let op_label = function
  | Plan.Scan_keyword k -> Printf.sprintf "scan %s" k
  | Plan.Select (p, _) -> Printf.sprintf "\xCF\x83 %s" (filter_str p)
  | Plan.Pair_join _ -> "\xE2\x8B\x88"
  | Plan.Pair_join_filtered (p, _, _) ->
      Printf.sprintf "\xE2\x8B\x88 [prune %s]" (filter_str p)
  | Plan.Power_join _ -> "\xE2\x8B\x88*"
  | Plan.Fixed_point _ -> "fixed-point"
  | Plan.Fixed_point_reduced _ -> "fixed-point [rounds=|\xE2\x8A\x96|]"
  | Plan.Fixed_point_filtered (p, _) ->
      Printf.sprintf "fixed-point [prune %s]" (filter_str p)

(* [to_assoc] key order is stable, so positional subtraction is safe. *)
let counter_delta before after =
  List.map2 (fun (_, a) (k, b) -> (k, b - a)) before after
  |> List.filter (fun (_, d) -> d <> 0)

let analyze_query ?(clock = Clock.monotonic) ?cache ?deadline ctx (q : Query.t) =
  let choice = Optimizer.optimize ctx q in
  let stats = Op_stats.create () in
  (* Post-order: children are fully evaluated (and timed) first, so the
     window around the operator's own application measures it
     exclusively. *)
  let rec go plan =
    let children =
      match plan with
      | Plan.Scan_keyword _ -> []
      | Plan.Select (_, x)
      | Plan.Fixed_point x
      | Plan.Fixed_point_reduced x
      | Plan.Fixed_point_filtered (_, x) ->
          [ go x ]
      | Plan.Pair_join (a, b)
      | Plan.Pair_join_filtered (_, a, b)
      | Plan.Power_join (a, b) ->
          [ go a; go b ]
    in
    let child_sets = List.map fst children in
    let apply () =
      match (plan, child_sets) with
      | Plan.Scan_keyword k, [] -> Selection.keyword ctx k
      | Plan.Select (p, _), [ s ] -> Selection.select ~stats ctx p s
      | Plan.Pair_join _, [ a; b ] -> Join.pairwise ~stats ?cache ?deadline ctx a b
      | Plan.Pair_join_filtered (p, _, _), [ a; b ] ->
          Join.pairwise_filtered ~stats ?cache ?deadline ctx
            ~prune:p a b
      | Plan.Power_join _, [ a; b ] ->
          Powerset.via_fixed_points ~stats ?cache ?deadline ctx a b
      | Plan.Fixed_point _, [ s ] -> Fixed_point.naive ~stats ?cache ?deadline ctx s
      | Plan.Fixed_point_reduced _, [ s ] ->
          Fixed_point.with_reduction ~stats ?cache ?deadline ctx s
      | Plan.Fixed_point_filtered (p, _), [ s ] ->
          Fixed_point.naive_filtered ~stats ?cache ?deadline ctx
            ~prune:p s
      | _ -> assert false
    in
    let before = Op_stats.to_assoc stats in
    let t0 = clock () in
    let out = apply () in
    let t1 = clock () in
    let node =
      {
        op = op_label plan;
        rows = Frag_set.cardinal out;
        in_rows = List.map Frag_set.cardinal child_sets;
        self_ns = t1 - t0;
        counters = counter_delta before (Op_stats.to_assoc stats);
        children = List.map snd children;
      }
    in
    (out, node)
  in
  let answers, root = go choice.Optimizer.plan in
  {
    query = q;
    plan = choice.Optimizer.plan;
    estimated_cost = choice.Optimizer.estimated_cost;
    root;
    answers;
    total_ns = total_ns root;
  }

let analyze_request ?clock ctx (r : Exec.Request.t) =
  let q = Exec.Request.to_query r in
  let deadline = r.Exec.Request.deadline in
  (* Mirror Eval's strategy-aware attachment: the optimizer picks a
     pruned (filtered) plan exactly when the filter has a usable
     anti-monotone part, so gate the cache on the same predicate. *)
  let cache =
    match r.Exec.Request.cache with
    | Some c ->
        let am, _ = Filter.decompose q.Query.filter in
        if Join_cache.pays c ~pruned:(am <> Filter.True) then Some c else None
    | None -> None
  in
  analyze_query ?clock ?cache ~deadline ctx q

let analyze ?clock ?cache ?deadline ctx q = analyze_query ?clock ?cache ?deadline ctx q

let pp_node ppf root =
  let rec go indent n =
    let head = indent ^ n.op in
    Format.fprintf ppf "%-*s rows=%-6d" (max (String.length head + 1) 44) head n.rows;
    (match n.in_rows with
    | [] -> Format.fprintf ppf " %-12s" ""
    | cards ->
        Format.fprintf ppf " in=%-9s"
          (String.concat "x" (List.map string_of_int cards)));
    Format.fprintf ppf " time=%-8s self=%-8s"
      (Clock.ns_to_string (total_ns n))
      (Clock.ns_to_string n.self_ns);
    List.iter (fun (k, d) -> Format.fprintf ppf " %s=+%d" k d) n.counters;
    Format.fprintf ppf "@,";
    List.iter (go (indent ^ "  ")) n.children
  in
  Format.fprintf ppf "@[<v>";
  go "" root;
  Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf "@[<v>EXPLAIN ANALYZE@,";
  Format.fprintf ppf "query: %a@," Query.pp r.query;
  Format.fprintf ppf "plan:  %a@," Plan.pp r.plan;
  Format.fprintf ppf "estimated cost: %.1f@," r.estimated_cost;
  Format.fprintf ppf "actual: total %s, %d answer fragment(s)@,@,"
    (Clock.ns_to_string r.total_ns)
    (Frag_set.cardinal r.answers);
  pp_node ppf r.root;
  Format.fprintf ppf "@]"

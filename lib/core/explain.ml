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
  strategy : Exec.strategy;
  plan : Plan.t;
  estimated_cost : float;
  probe : node list;
  root : node;
  answers : Frag_set.t;
  total_ns : int;
}

let rec total_ns n =
  List.fold_left (fun acc c -> acc + total_ns c) n.self_ns n.children

(* Walk the compiled plan, attaching each node's record.  A physical
   node met again (a scan the Auto probe shares with a fixed point) is
   shown as a reference carrying no time or counters, so sums over the
   rendered trees equal the evaluation's totals. *)
let annotate records =
  let seen = ref [] in
  let rec build plan =
    let (r : Eval.record) = List.assq plan records in
    if List.memq plan !seen then
      {
        op = Plan.label plan ^ " (shared, above)";
        rows = r.rows;
        in_rows = [];
        self_ns = 0;
        counters = [];
        children = [];
      }
    else begin
      seen := plan :: !seen;
      {
        op = Plan.label plan;
        rows = r.rows;
        in_rows = r.in_rows;
        self_ns = r.self_ns;
        counters = r.counters;
        children = List.map build (Plan.children plan);
      }
    end
  in
  build

let analyze_request ?clock ctx (r : Exec.Request.t) =
  let outcome, (c : Eval.compiled), records = Eval.exec_recorded ?clock ctx r in
  let build = annotate records in
  (* Probe first: it ran before the plan. *)
  let probe = List.map build c.probe in
  let root = build c.plan in
  {
    query = Exec.Request.to_query r;
    strategy = c.strategy;
    plan = c.plan;
    estimated_cost = Cost.cost ctx c.plan;
    probe;
    root;
    answers = outcome.Eval.answers;
    total_ns = List.fold_left (fun acc n -> acc + total_ns n) (total_ns root) probe;
  }

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
  Format.fprintf ppf "strategy: %s@," (Exec.strategy_name r.strategy);
  Format.fprintf ppf "plan:  %a@," Plan.pp r.plan;
  Format.fprintf ppf "estimated cost: %.1f@," r.estimated_cost;
  Format.fprintf ppf "actual: total %s, %d answer fragment(s)@,@,"
    (Clock.ns_to_string r.total_ns)
    (Frag_set.cardinal r.answers);
  if r.probe <> [] then begin
    Format.fprintf ppf "auto probe:@,";
    List.iter (pp_node ppf) r.probe;
    Format.fprintf ppf "plan tree:@,"
  end;
  pp_node ppf r.root;
  Format.fprintf ppf "@]"

let plans ctx (r : Exec.Request.t) =
  let q = Exec.Request.to_query r in
  let auto = Eval.compile ctx (Exec.Request.with_strategy Exec.Auto r) in
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>query: %a@," Query.pp q;
  Format.fprintf ppf "initial plan: %a@," Plan.pp (Plan.initial q);
  (match auto.probe with
  | [] -> Format.fprintf ppf "auto probe: not run@,"
  | probe ->
      Format.fprintf ppf "auto probe (reduction factors):@,";
      List.iter
        (fun node ->
          match node with
          | Plan.Reduce (Plan.Scan_keyword k as scan) ->
              Format.fprintf ppf "  %-20s RF = %.2f@," k
                (Reduce.factor_of ~original:(Eval.execute ctx scan)
                   ~reduced:(Eval.execute ctx node))
          | _ -> ())
        probe);
  Format.fprintf ppf "compiled plan per strategy (* = auto's):@,";
  List.iter
    (fun s ->
      let c = Eval.compile ctx (Exec.Request.with_strategy s r) in
      Format.fprintf ppf "%s %-18s cost %12.1f  %a@,"
        (if s = auto.strategy then "*" else " ")
        (Exec.strategy_name s) (Cost.cost ctx c.plan) Plan.pp c.plan)
    Exec.all_strategies;
  Format.fprintf ppf "auto's evaluation tree:@,%a@]@." Plan.pp_tree auto.plan;
  Buffer.contents buf

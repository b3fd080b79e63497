module Int_sorted = Xfrag_util.Int_sorted
module Lca = Xfrag_doctree.Lca
module Trace = Xfrag_obs.Trace
module Json = Xfrag_obs.Json

let bump stats f = match stats with None -> () | Some s -> f s

let compute_fragment ?stats (ctx : Context.t) f1 f2 =
  (* Disarmed cost is one atomic load; armed, this site can abort or
     slow any join deep inside a fixed point — the engine above must
     contain it at the document boundary. *)
  Xfrag_fault.Fault.Failpoint.hit "eval.join";
  bump stats (fun s -> s.Op_stats.fragment_joins <- s.Op_stats.fragment_joins + 1);
  let r1 = Fragment.root f1 and r2 = Fragment.root f2 in
  if r1 = r2 then
    Fragment.of_sorted_unchecked (Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2))
  else begin
    let path = Lca.path ctx.lca r1 r2 in
    Fragment.of_sorted_unchecked
      (Int_sorted.union
         (Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2))
         (Int_sorted.of_list path))
  end

let fragment ?stats ?cache ctx f1 f2 =
  match cache with
  | None -> compute_fragment ?stats ctx f1 f2
  | Some cache ->
      Join_cache.find_or_join cache ?stats ctx f1 f2 ~join:(fun () ->
          compute_fragment ?stats ctx f1 f2)

let fragment_many ?stats ?cache ctx = function
  | [] -> invalid_arg "Join.fragment_many: empty list"
  | f :: rest -> List.fold_left (fragment ?stats ?cache ctx) f rest

(* Upper bound on builder pre-allocation.  The true output cardinality of
   a pairwise join is at most |s1|·|s2|, but that product explodes on
   large operands (two 100k-element keyword sets would ask for 10^10
   buckets up front) while actual outputs collapse heavily; beyond this
   bound we let the hashtable grow organically. *)
let max_size_hint = 1 lsl 20

let product_hint c1 c2 =
  if c1 = 0 || c2 = 0 then 0
  else if c1 > max_size_hint / c2 then max_size_hint
  else c1 * c2

let count_pruned stats =
  bump stats (fun s -> s.Op_stats.pruned <- s.Op_stats.pruned + 1)

(* One candidate pair, bounded before and checked after: a pair
   [may_join] rejects still counts as a candidate and as pruned, but is
   never materialized, so it touches neither the join cache nor
   [fragment_joins]. *)
let candidate ?stats ~may_join ~keep ~join out f1 f2 =
  bump stats (fun s -> s.Op_stats.candidates <- s.Op_stats.candidates + 1);
  if not (may_join f1 f2) then count_pruned stats
  else begin
    let f = join f1 f2 in
    if not (keep f) then count_pruned stats
    else if not (Frag_set.Builder.add out f) then
      bump stats (fun s -> s.Op_stats.duplicates <- s.Op_stats.duplicates + 1)
  end

let pairwise_loop ?stats ?cache ?(deadline = Deadline.none) ctx ~prune s1 s2 =
  let out =
    Frag_set.Builder.create
      ~size_hint:(product_hint (Frag_set.cardinal s1) (Frag_set.cardinal s2))
      ()
  in
  let may_join = Filter.may_join ctx prune and keep = Filter.evaluate ctx prune in
  let join = fragment ?stats ?cache ctx in
  Frag_set.iter
    (fun f1 ->
      (* One check per outer row: between whole joins, never inside
         [find_or_join], so an abort cannot leave a shared cache
         mid-update.  The inner loop allocates at most |s2| fragments
         between checks. *)
      Deadline.check deadline;
      Frag_set.iter (candidate ?stats ~may_join ~keep ~join out f1) s2)
    s1;
  Frag_set.Builder.freeze out

let pairwise_filtered ?stats ?cache ?(trace = Trace.disabled) ?deadline ctx ~prune
    s1 s2 =
  if not (Trace.is_enabled trace) then
    pairwise_loop ?stats ?cache ?deadline ctx ~prune s1 s2
  else
    Trace.with_span trace
      ~attrs:
        [
          ("left", Json.Int (Frag_set.cardinal s1));
          ("right", Json.Int (Frag_set.cardinal s2));
        ]
      "pairwise-join"
      (fun () ->
        let out = pairwise_loop ?stats ?cache ?deadline ctx ~prune s1 s2 in
        Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
        out)

let pairwise ?stats ?cache ?trace ?deadline ctx s1 s2 =
  pairwise_filtered ?stats ?cache ?trace ?deadline ctx ~prune:Filter.True s1 s2

let pairwise_parallel ?stats ?cache ?trace ?domains ?(prune = Filter.True) ctx s1
    s2 =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> min 8 (Domain.recommended_domain_count ())
  in
  let elems = Array.of_list (Frag_set.elements s1) in
  let n = Array.length elems in
  if domains = 1 || n < 2 * domains then
    pairwise_filtered ?stats ?cache ?trace ctx ~prune s1 s2
  else begin
    (* One span in the spawning domain around the whole fan-out; workers
       do not touch the tracer (its open-span stack is per-tracer) and
       bypass the join cache (it is not domain-safe). *)
    let may_join = Filter.may_join ctx prune and keep = Filter.evaluate ctx prune in
    let run () =
      let chunk = (n + domains - 1) / domains in
      let worker lo =
        Domain.spawn (fun () ->
            (* Per-domain counters; folded into [stats] after the join. *)
            let local = Op_stats.create () in
            let out =
              Frag_set.Builder.create
                ~size_hint:
                  (product_hint
                     (min chunk (max 0 (n - lo)))
                     (Frag_set.cardinal s2))
                ()
            in
            let join = compute_fragment ~stats:local ctx in
            for i = lo to min (lo + chunk - 1) (n - 1) do
              Frag_set.iter
                (candidate ~stats:local ~may_join ~keep ~join out elems.(i))
                s2
            done;
            (Frag_set.Builder.freeze out, local))
      in
      let handles = List.init domains (fun d -> worker (d * chunk)) in
      let results = List.map Domain.join handles in
      let merged =
        List.fold_left
          (fun acc (set, _) -> Frag_set.union acc set)
          (Frag_set.empty ()) results
      in
      bump stats (fun s ->
          List.iter (fun (_, local) -> Op_stats.merge s local) results;
          (* Per-domain counters only see collisions within their own
             partition; fragments produced independently by two domains
             collapse in the union above.  Charging that difference to
             [duplicates] makes the parallel accounting identical to the
             serial one: per-domain collisions + cross-domain collapses
             = kept candidates − distinct results, exactly what the
             sequential loop counts. *)
          let kept_per_domain =
            List.fold_left (fun acc (set, _) -> acc + Frag_set.cardinal set) 0 results
          in
          s.Op_stats.duplicates <-
            s.Op_stats.duplicates + (kept_per_domain - Frag_set.cardinal merged));
      merged
    in
    match trace with
    | None -> run ()
    | Some trace when not (Trace.is_enabled trace) -> run ()
    | Some trace ->
        Trace.with_span trace
          ~attrs:
            [
              ("left", Json.Int (Frag_set.cardinal s1));
              ("right", Json.Int (Frag_set.cardinal s2));
              ("domains", Json.Int domains);
            ]
          "pairwise-join-parallel"
          (fun () ->
            let out = run () in
            Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
            out)
  end

(* The traced replay: the workload's seeded operation sequence, replayed
   single-threaded in this process against the same generated inputs,
   with a span around each call into a layer's public function.

   Two copies of the server state replay the sequence side by side:
   world A is a [Router] built exactly as [xfrag serve] builds it, and
   handles each request's exact bytes; world B calls the layers under
   the router directly (request decode, [Eval.exec] or [Corpus.run],
   index routing, document parse, context build, index and corpus
   maintenance, cache retirement).  Both see the same calls in the same
   order, so their caches evolve identically, and the router's own time
   is [Router.handle] in A minus decode and engine time in B.  Nothing
   in the program is instrumented: every span is recorded here.

   The process is run with a zero-domain shard pool (the caller runs
   every shard, in order) and the server's shard count, so the work
   counters are a function of the seed alone and must repeat exactly. *)

module Json = Xfrag_obs.Json
module Trace = Xfrag_obs.Trace
module Http = Xfrag_server.Http
module Router = Xfrag_server.Router
module Exec = Xfrag_core.Exec
module Eval = Xfrag_core.Eval
module Corpus = Xfrag_core.Corpus
module Context = Xfrag_core.Context
module Join_cache = Xfrag_core.Join_cache
module Op_stats = Xfrag_core.Op_stats
module Corpus_index = Xfrag_index.Corpus_index
module Doctree = Xfrag_doctree.Doctree

let clock () = Int64.to_int (Monotonic_clock.now ())

(* [xfrag serve]'s default join cache: shared, striped, 4096 entries. *)
let server_cache () = Join_cache.create ~synchronized:true ~capacity:4096 ()

type world = {
  router : Router.t;
  router_cache : Join_cache.t;
  ctx : Context.t;
  mutable corpus : Corpus.t;
  cache : Join_cache.t;
}

let world ~access_log trees =
  let build () =
    ( Context.create (snd (List.hd trees)),
      List.fold_left (fun c (name, tree) -> Corpus.add c ~name tree) Corpus.empty trees )
  in
  let ctx_a, corpus_a = build () in
  let ctx, corpus = build () in
  let router_cache = server_cache () in
  {
    router = Router.create ~cache:router_cache ~corpus:corpus_a ~access_log ctx_a;
    router_cache;
    ctx;
    corpus;
    cache = server_cache ();
  }

let attr t k v = Trace.add_attr t k (Json.Int v)

let stats_attrs t prefix (s : Op_stats.t) =
  attr t (prefix ^ "fragment_joins") s.Op_stats.fragment_joins;
  attr t (prefix ^ "candidates") s.Op_stats.candidates;
  attr t (prefix ^ "pruned") s.Op_stats.pruned;
  attr t (prefix ^ "fixpoint_rounds") s.Op_stats.fixpoint_rounds;
  attr t (prefix ^ "cache_hits") s.Op_stats.cache_hits;
  attr t (prefix ^ "cache_misses") s.Op_stats.cache_misses

let cache_attrs t c f =
  let e0 = Join_cache.evictions c
  and i0 = Join_cache.invalidations c
  and r0 = Join_cache.rejected c in
  let v = f () in
  attr t "cache.evictions" (Join_cache.evictions c - e0);
  attr t "cache.invalidations" (Join_cache.invalidations c - i0);
  attr t "cache.rejected" (Join_cache.rejected c - r0);
  v

(* World B's side of a read. *)
let direct_read t w ~workload body =
  let r = Trace.with_span t "exec.decode" (fun () -> Exec.Request.of_body body) in
  let r = match r with Ok r -> r | Error msg -> failwith msg in
  let r = Exec.Request.with_cache (Some w.cache) r in
  match workload with
  | Gen.Doc_query ->
      Trace.with_span t "eval.exec" (fun () ->
          cache_attrs t w.cache (fun () ->
              let o = Eval.exec w.ctx r in
              stats_attrs t "eval." o.Eval.stats;
              attr t "eval.answers" (Xfrag_core.Frag_set.cardinal o.Eval.answers)))
  | Gen.Corpus_query | Gen.Corpus_churn ->
      let keywords = (Exec.Request.to_query r).Xfrag_core.Query.keywords in
      (match Corpus.index w.corpus with
      | Some idx ->
          Trace.with_span t "index.route" (fun () -> ignore (Corpus_index.route idx ~keywords))
      | None -> ());
      let scorer, bound = Answers.scoring w.corpus r in
      Trace.with_span t "corpus.run" (fun () ->
          cache_attrs t w.cache (fun () ->
              let o = Corpus.run ?bound ~scorer w.corpus r in
              stats_attrs t "eval." o.Corpus.stats;
              attr t "eval.answers" o.Corpus.total_answers;
              attr t "corpus.merge_ns" o.Corpus.merge_ns;
              let docs = List.concat_map (fun s -> s.Corpus.shard_docs) o.Corpus.shard_reports in
              attr t "corpus.docs_evaluated" (List.length docs);
              Trace.add_attr t "corpus.doc_eval_ns"
                (Json.List (List.map (fun d -> Json.Int d.Corpus.doc_elapsed_ns) docs));
              match o.Corpus.routing with
              | None -> ()
              | Some ri ->
                  attr t "index.candidates" ri.Corpus.candidates;
                  attr t "index.routed_out" ri.Corpus.routed_out;
                  attr t "index.bound_skips" ri.Corpus.bound_skips;
                  attr t "index.useful"
                    (List.length (List.filter (fun d -> d.Corpus.doc_answers > 0) docs))))

(* World B's side of a write. *)
let retire t w = function
  | None -> ()
  | Some generation ->
      Trace.with_span t "join_cache.retire" (fun () ->
          Join_cache.retire w.cache ~generation)

let retracted t w name =
  match Corpus.index w.corpus with
  | Some idx when Corpus.mem w.corpus name ->
      Some (Trace.with_span t "index.retract" (fun () -> Corpus_index.remove_document idx name))
  | idx -> idx

let direct_put t w ~name xml =
  let tree =
    Trace.with_span t "doctree.parse" (fun () ->
        Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string xml))
  in
  let ctx = Trace.with_span t "context.build" (fun () -> Context.create tree) in
  (* Index maintenance timed on its own, on the persistent index (the
     results are discarded; [Corpus.replace] below does it for real). *)
  (match retracted t w name with
  | Some idx ->
      ignore
        (Trace.with_span t "index.add" (fun () ->
             Corpus_index.add_document idx ~name ctx.Context.index))
  | None -> ());
  let generation = Corpus.generation w.corpus name in
  w.corpus <- Trace.with_span t "corpus.add" (fun () -> Corpus.replace w.corpus ~name tree);
  retire t w generation

let direct_delete t w ~name =
  ignore (retracted t w name);
  let generation = Corpus.generation w.corpus name in
  w.corpus <- Trace.with_span t "corpus.remove" (fun () -> Corpus.remove w.corpus ~name);
  retire t w generation

(* --- the operation sequence --- *)

(* Names per client of the write probe the replay includes: enough
   writes for medians, few enough to keep the replay short. *)
let probe_names = 20

(* The clients' streams drawn round-robin: [warm] events replayed
   untraced first (the HTTP run's warm-up fills the server's cache the
   same way), then [events] traced ones, then (on the read-only
   workloads) the start of the write probe, also round-robin. *)
let sequence ~workload ~scale ~seed ~clients ~warm ~events ~pool ~names =
  let streams =
    Array.init clients (fun c -> Gen.op_stream ~workload ~seed ~clients ~c ~pool ~names)
  in
  let draw n = List.concat (List.init n (fun k -> streams.(k mod clients) ())) in
  let warm = draw warm in
  let measured = draw events in
  let probe =
    if workload = Gen.Corpus_churn then []
    else
      let per =
        Array.init clients (fun c -> Array.of_list (Gen.probe_events ~workload ~scale ~clients ~c ()))
      in
      let names = Array.fold_left (fun n p -> min n (Array.length p)) probe_names per in
      List.concat
        (List.concat (List.init names (fun j -> List.init clients (fun c -> per.(c).(j)))))
  in
  (warm, measured, probe)

let op_name = function Gen.Read _ -> "read" | Gen.Put _ -> "put" | Gen.Delete _ -> "delete"

(* Replay on fresh worlds; returns the wall time of the measured
   segment, the number of unexpected statuses, and the worlds. *)
let replay t ~workload ~scale ~seed ~pool ~access_log trees (warm, measured, probe) =
  let w = world ~access_log trees in
  let failures = ref 0 in
  let step t i op =
    let bytes = Gen.op_request ~workload ~scale ~seed ~pool op in
    let attrs =
      [ ("req", Json.Int i); ("op", Json.String (op_name op)) ]
      @ match op with Gen.Read p -> [ ("pool", Json.Int p) ] | _ -> []
    in
    Trace.with_span t ~attrs "request" (fun () ->
        let req =
          Trace.with_span t "http.read_request" (fun () ->
              Http.read_request (Http.reader_of_string bytes))
        in
        match req with
        | Error _ -> incr failures
        | Ok req -> (
            let resp = Trace.with_span t "router.handle" (fun () -> Router.handle w.router req) in
            if resp.Http.status >= 300 then incr failures;
            match op with
            | Gen.Read _ -> direct_read t w ~workload req.Http.body
            | Gen.Put (name, _) -> direct_put t w ~name req.Http.body
            | Gen.Delete name -> direct_delete t w ~name))
  in
  List.iteri (step Trace.disabled) warm;
  let t0 = clock () in
  List.iteri (step t) measured;
  let wall = clock () - t0 in
  List.iteri (fun i -> step t (List.length measured + i)) probe;
  (wall, !failures, w)

(* --- from spans to per-request records --- *)

type record = {
  op : string;
  pool : int;
  durs : (string, int) Hashtbl.t;
  attrs : (string, Json.t) Hashtbl.t;
}

let records t =
  let out = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent = -1 then begin
        let attr k = List.assoc_opt k s.Trace.attrs in
        out :=
          {
            op = (match attr "op" with Some (Json.String o) -> o | _ -> "");
            pool = (match attr "pool" with Some (Json.Int p) -> p | _ -> -1);
            durs = Hashtbl.create 8;
            attrs = Hashtbl.create 16;
          }
          :: !out
      end
      else
        match !out with
        | r :: _ ->
            Hashtbl.replace r.durs s.Trace.name
              (Trace.duration_ns s + Option.value ~default:0 (Hashtbl.find_opt r.durs s.Trace.name));
            List.iter (fun (k, v) -> Hashtbl.replace r.attrs k v) s.Trace.attrs
        | [] -> ())
    (Trace.spans t);
  List.rev !out

let dur r name = Hashtbl.find_opt r.durs name

let iattr r k =
  match Hashtbl.find_opt r.attrs k with Some (Json.Int v) -> v | _ -> 0

let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) - 1))

let median l = quantile 0.5 l

let fl = float_of_int

let ratio a b = if b = 0 then 0. else fl a /. fl b

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* The deterministic work counters, totalled over a replay. *)
let counters recs (w : world) =
  let reads = List.filter (fun r -> r.op = "read") recs in
  [
    ("eval.fragment_joins", sum (fun r -> iattr r "eval.fragment_joins") reads);
    ("eval.candidates", sum (fun r -> iattr r "eval.candidates") reads);
    ("index.candidates", sum (fun r -> iattr r "index.candidates") reads);
    ("index.bound_skips", sum (fun r -> iattr r "index.bound_skips") reads);
    ("join_cache.hits", Join_cache.hits w.cache);
    ("join_cache.misses", Join_cache.misses w.cache);
    ("router_cache.hits", Join_cache.hits w.router_cache);
    ("router_cache.misses", Join_cache.misses w.router_cache);
  ]

let us ns = ns /. 1e3

let layer_metrics ~workload recs =
  let reads = List.filter (fun r -> r.op = "read") recs in
  let n = List.length reads in
  let d name l = List.filter_map (fun r -> Option.map fl (dur r name)) l in
  let per_read k = ratio (sum (fun r -> iattr r k) reads) n in
  let engine = match workload with Gen.Doc_query -> "eval.exec" | _ -> "corpus.run" in
  let self_ns =
    List.filter_map
      (fun r ->
        match (dur r "router.handle", dur r "exec.decode", dur r engine) with
        | Some h, Some dc, Some e -> Some (fl (h - dc - e))
        | _ -> None)
      reads
  in
  let eval_ns =
    match workload with
    | Gen.Doc_query -> d "eval.exec" reads
    | _ ->
        List.concat_map
          (fun r ->
            match Hashtbl.find_opt r.attrs "corpus.doc_eval_ns" with
            | Some (Json.List l) -> List.map (function Json.Int v -> fl v | _ -> 0.) l
            | _ -> [])
          reads
  in
  let hits = sum (fun r -> iattr r "eval.cache_hits") reads
  and misses = sum (fun r -> iattr r "eval.cache_misses") reads in
  let cands = sum (fun r -> iattr r "index.candidates") reads in
  let all name = d name recs in
  [
    ("http.parse_us", us (median (d "http.read_request" reads)));
    ("exec.decode_us", us (median (d "exec.decode" reads)));
    ("router.handle_us", us (median (d "router.handle" reads)));
    ("router.self_us", us (median self_ns));
    ("eval.exec_p50_us", us (quantile 0.5 eval_ns));
    ("eval.exec_p99_us", us (quantile 0.99 eval_ns));
    ("eval.fragment_joins", per_read "eval.fragment_joins");
    ("eval.candidates", per_read "eval.candidates");
    ("eval.pruned", per_read "eval.pruned");
    ("eval.fixpoint_rounds", per_read "eval.fixpoint_rounds");
    ( "eval.answers_per_candidate",
      ratio (sum (fun r -> iattr r "eval.answers") reads) (sum (fun r -> iattr r "eval.candidates") reads) );
    ("join_cache.hit_rate", ratio hits (hits + misses));
    ("join_cache.invalidations", per_read "cache.invalidations");
    ("join_cache.evictions", per_read "cache.evictions");
    ("join_cache.rejected", per_read "cache.rejected");
    ("corpus.run_p50_us", us (quantile 0.5 (d "corpus.run" reads)));
    ("corpus.run_p99_us", us (quantile 0.99 (d "corpus.run" reads)));
    ( "corpus.merge_us",
      us (median (List.filter_map (fun r -> if dur r "corpus.run" = None then None else Some (fl (iattr r "corpus.merge_ns"))) reads)) );
    ("corpus.docs_evaluated", per_read "corpus.docs_evaluated");
    ("index.route_us", us (median (d "index.route" reads)));
    ("index.candidates", per_read "index.candidates");
    ( "index.routed_out_frac",
      ratio (sum (fun r -> iattr r "index.routed_out") reads)
        (cands + sum (fun r -> iattr r "index.routed_out") reads) );
    ("index.bound_skips", per_read "index.bound_skips");
    ("index.useful_candidate_frac", ratio (sum (fun r -> iattr r "index.useful") reads) cands);
    ("index.add_us", us (median (all "index.add")));
    ("index.retract_us", us (median (all "index.retract")));
    ("corpus.add_us", us (median (all "corpus.add")));
    ("corpus.remove_us", us (median (all "corpus.remove")));
    ("join_cache.retire_us", us (median (all "join_cache.retire")));
  ]

(* The boot's layers, as [xfrag serve] runs them, on the workload's
   files: read and parse each file (what Loader.load_documents does),
   Context.create each tree, fold each into one corpus index.  Returns
   the trees, the whole load time, and the per-document parse and
   context times and the index time. *)
let setup_layers files =
  let read_ns = ref 0 in
  let parsed =
    List.map
      (fun f ->
        let t0 = clock () in
        let xml = In_channel.with_open_bin f In_channel.input_all in
        let t1 = clock () in
        let tree = Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string xml) in
        let t2 = clock () in
        read_ns := !read_ns + (t1 - t0);
        ((Filename.basename f, tree), fl (t2 - t1)))
      files
  in
  let trees = List.map fst parsed and parse_ns = List.map snd parsed in
  let load_ns = fl !read_ns +. List.fold_left ( +. ) 0. parse_ns in
  let ctx_ns = ref [] in
  let ctxs =
    List.map
      (fun (name, tree) ->
        let t0 = clock () in
        let ctx = Context.create tree in
        ctx_ns := fl (clock () - t0) :: !ctx_ns;
        (name, ctx))
      trees
  in
  let t0 = clock () in
  ignore
    (List.fold_left
       (fun idx (name, ctx) -> Corpus_index.add_document idx ~name ctx.Context.index)
       Corpus_index.empty ctxs);
  let index_ns = clock () - t0 in
  (trees, load_ns, !ctx_ns, index_ns, parse_ns)

let run ~workload ~scale ~seed ~clients ~warm ~events ~docs_dir ~work_dir ~out =
  let pool = Gen.query_pool ~workload ~scale in
  let names = Gen.doc_names ~workload ~scale in
  let files = List.map (Filename.concat docs_dir) names in
  let trees, load_ns, ctx_ns, index_ns, parse_ns = setup_layers files in
  let ((_, measured, probe) as ops) =
    sequence ~workload ~scale ~seed ~clients ~warm ~events ~pool ~names
  in
  let access_log = open_out_bin (Filename.concat work_dir "replay-access.log") in
  (* One replay on fresh worlds, which are dropped before the next. *)
  let go ?(ops = ops) t =
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let wall, failures, w = replay t ~workload ~scale ~seed ~pool ~access_log trees ops in
    let g1 = Gc.quick_stat () in
    let recs = records t in
    (wall, failures, recs, counters recs w, g0, g1)
  in
  let traced () = Trace.create ~clock () in
  let t1 = traced () in
  let wall1, fail1, recs1, counters1, g0, g1 = go t1 in
  let metrics = layer_metrics ~workload recs1 in
  let writes = List.filter (fun r -> r.op = "put") recs1 in
  let parse_all = parse_ns @ List.filter_map (fun r -> Option.map fl (dur r "doctree.parse")) writes in
  let ctx_all = ctx_ns @ List.filter_map (fun r -> Option.map fl (dur r "context.build")) writes in
  Out_channel.with_open_bin (Filename.concat work_dir "trace.jsonl") (fun oc ->
      output_string oc (Xfrag_obs.Export.to_jsonl t1));
  let span_count = List.length (Trace.spans t1) in
  (* The untraced replay skips the probe: only the measured segment's
     wall time is compared, with the mean of the two traced replays',
     which run before and after it (so a steady drift of the host's
     speed cancels).  The second traced replay also checks that the work
     counters repeat. *)
  let warm_ops, _, _ = ops in
  let wall_plain, fail2, _, _, _, _ = go ~ops:(warm_ops, measured, []) Trace.disabled in
  let wall2, fail3, _, counters2, _, _ = go (traced ()) in
  close_out access_log;
  let word_mb = fl (Sys.word_size / 8) /. 1e6 in
  let metrics =
    metrics
    @ [
        ("doctree.parse_us", us (median parse_all));
        ("context.build_us", us (median ctx_all));
        ("setup.load_s", load_ns /. 1e9);
        ("setup.context_s", List.fold_left ( +. ) 0. ctx_ns /. 1e9);
        ("setup.index_s", fl index_ns /. 1e9);
        ("gc.minor_collections", fl (g1.Gc.minor_collections - g0.Gc.minor_collections));
        ("gc.major_collections", fl (g1.Gc.major_collections - g0.Gc.major_collections));
        ("gc.top_heap_mb", fl g1.Gc.top_heap_words *. word_mb);
        ("trace.overhead_frac", ((fl (wall1 + wall2) /. 2.) -. fl wall_plain) /. fl wall_plain);
      ]
  in
  let obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  let j =
    Json.Obj
      [
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
        ("counters", Json.List [ obj counters1; obj counters2 ]);
        ("deterministic", Json.Bool (counters1 = counters2));
        ("failures", Json.Int (fail1 + fail2 + fail3));
        ("operations", Json.Int (List.length measured + List.length probe));
        ("spans", Json.Int span_count);
        ( "replay_s",
          Json.Obj
            [
              ("traced_1", Json.Float (fl wall1 /. 1e9));
              ("plain", Json.Float (fl wall_plain /. 1e9));
              ("traced_2", Json.Float (fl wall2 /. 1e9));
            ] );
      ]
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string j))

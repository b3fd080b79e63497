(* The load generator: its own process, [clients] closed-loop clients
   (one domain each), each holding one keep-alive connection to the
   server under test and sending its next request only when the previous
   answer arrived — callers of a search endpoint wait for their reply.

   Every answer is checked: writes by status as they arrive; reads after
   the window, those of doc-query and corpus-query against reference
   answers computed here in-process; corpus-churn (whose reads race its
   writes) by its end state instead.  A non-2xx answer, a transport
   error, a timeout or a mismatch is a failure. *)

module Json = Xfrag_obs.Json
module Corpus = Xfrag_core.Corpus

type sample = {
  kind : int;  (* 0 read, 1 PUT, 2 DELETE *)
  pool : int;  (* query-pool index of a read, else -1 *)
  rtt_ns : int;
  end_ns : int;  (* completion, from the start of the measured window *)
  mutable ok : bool;
  phase : int;  (* 0 warm-up, 1 measured window, 2 write probe *)
  body : string;  (* reads: the answer, checked after the window *)
  id : string;  (* the server's request id, to join its access-log line *)
}

type client_result = {
  samples : sample list;
  failures : string list;
  attempted : int;
  reconnects : int;
  last_ns : int;
  final_versions : (string * int) list;  (* churn: last PUT per name *)
}

(* Long enough that a keep-alive stall (100 service times) is measured as
   latency, short enough that a hung server still ends the run in time. *)
let timeout_s = 30.

type plan = {
  workload : Gen.workload;
  scale : Gen.scale;
  seed : int;
  port : int;
  clients : int;
  pool : Gen.query array;
  read_requests : string array;  (* the exact bytes of each pool query *)
  names : string list;
}

let corpus_reads plan = plan.workload <> Gen.Doc_query

let request plan = function
  | Gen.Read i -> plan.read_requests.(i)
  | op -> Gen.op_request ~workload:plan.workload ~scale:plan.scale ~seed:plan.seed ~pool:plan.pool op

(* Events drawn (and write bodies generated) before the clock starts, so
   the client's turnaround between two requests stays a socket write;
   past this many, events are generated as they are sent. *)
let prepared_events = 8000

(* [drive run] calls [run phase event] for each event the client sends. *)
let run_client plan ~start_ns ~warm_end ~drive c =
  let cl = Wire.client ~port:plan.port ~timeout_s in
  let next =
    let stream =
      Gen.op_stream ~workload:plan.workload ~seed:plan.seed
        ~clients:plan.clients ~c ~pool:plan.pool ~names:plan.names
    in
    let live () = List.map (fun op -> (op, request plan op)) (stream ()) in
    let ready = Queue.create () in
    for _ = 1 to prepared_events do Queue.push (live ()) ready done;
    fun () -> if Queue.is_empty ready then live () else Queue.pop ready
  in
  let present = Hashtbl.create 64 in
  Array.iter (fun n -> Hashtbl.replace present n ()) (Gen.owned ~clients:plan.clients ~c plan.names);
  let versions = Hashtbl.create 64 in
  let samples = ref [] and failures = ref [] in
  let attempted = ref 0 and last_ns = ref start_ns in
  let fail msg =
    if List.length !failures < 20 then failures := msg :: !failures
  in
  let do_op phase (op, req) =
    incr attempted;
    let t0 = Wire.now_ns () in
    let res = Wire.exchange cl req in
    let t1 = Wire.now_ns () in
    last_ns := t1;
    let id = match res with Ok r -> r.Wire.id | Error _ -> "" in
    let kind, pool_i, ok, body =
      match (op, res) with
      | _, Error msg -> fail ("transport: " ^ msg);
          ((match op with Gen.Read _ -> 0 | Gen.Put _ -> 1 | Gen.Delete _ -> 2), -1, false, "")
      | Gen.Read i, Ok resp ->
          if resp.Wire.status <> 200 then begin
            fail (Printf.sprintf "read status %d" resp.Wire.status);
            (0, i, false, "")
          end
          else (0, i, true, resp.Wire.body)
      | Gen.Put (name, v), Ok resp ->
          let expected = if Hashtbl.mem present name then 200 else 201 in
          let ok = resp.Wire.status = expected in
          if ok then begin
            Hashtbl.replace present name ();
            Hashtbl.replace versions name v
          end
          else fail (Printf.sprintf "PUT %s: status %d, expected %d" name resp.Wire.status expected);
          (1, -1, ok, "")
      | Gen.Delete name, Ok resp ->
          let ok = resp.Wire.status = 200 in
          if ok then Hashtbl.remove present name
          else fail (Printf.sprintf "DELETE %s: status %d" name resp.Wire.status);
          (2, -1, ok, "")
    in
    samples := { kind; pool = pool_i; rtt_ns = t1 - t0; end_ns = t1 - warm_end; ok; phase; body; id } :: !samples
  in
  drive (fun phase event -> List.iter (do_op phase) event) next;
  Wire.close cl;
  {
    samples = !samples;
    failures = List.rev !failures;
    attempted = !attempted;
    reconnects = Wire.reconnects cl;
    last_ns = !last_ns;
    final_versions = Hashtbl.fold (fun n v acc -> (n, v) :: acc) versions [];
  }

(* Read answers, kept by the clients and checked here, after the
   window, so that no checking work sits between a client's requests.
   On doc-query and corpus-query each is compared structurally with its
   query's reference answer; corpus-churn's reads race its writes and so
   have no reference, and are only checked for being well-formed answers
   (its end state is checked instead).  A failed answer marks its sample
   not ok.  For each measured read this also collects what the server
   reported: the engine time (the [elapsed_ns] of Eval.exec or of
   Corpus.run) and, on the corpus, the shard timings (run elapsed,
   Σ shard elapsed, max shard elapsed, shard count).  Returns those, the
   number of failed answers and the first failure messages. *)
let read_answers plan refs samples =
  let failed = ref 0 and failures = ref [] in
  let fail s msg =
    s.ok <- false;
    incr failed;
    if !failed <= 20 then failures := msg :: !failures
  in
  let engine = ref [] and runs = ref [] in
  List.iter
    (fun s ->
      if s.body <> "" then
        match Answers.of_body ~corpus:(corpus_reads plan) s.body with
        | Error msg -> fail s msg
        | Ok (answer, j) -> (
            let expected =
              match refs with
              | Some refs -> answer = refs.(s.pool)
              | None -> answer.Answers.count = List.length answer.Answers.hits
            in
            if not expected then fail s ("answer mismatch for " ^ plan.pool.(s.pool).Gen.body)
            else if s.phase = 1 then
              match
                let elapsed = Answers.int (Answers.member "elapsed_ns" j) in
                let shard_ns =
                  if corpus_reads plan then
                    List.map
                      (fun sh -> Answers.int (Answers.member "elapsed_ns" sh))
                      (Answers.list (Answers.member "shards" j))
                  else []
                in
                (elapsed, shard_ns)
              with
              | exception Failure msg -> fail s ("malformed answer: " ^ msg)
              | elapsed, shard_ns ->
                  engine := elapsed :: !engine;
                  if shard_ns <> [] then
                    runs :=
                      ( elapsed,
                        List.fold_left ( + ) 0 shard_ns,
                        List.fold_left max 0 shard_ns,
                        List.length shard_ns )
                      :: !runs))
    samples;
  (!engine, !runs, !failed, List.rev !failures)

(* --- end-state checks, on a fresh connection after the load --- *)

let get_json cl path =
  match Wire.exchange cl (Gen.http_request ~meth:"GET" ~path "") with
  | Ok r when r.Wire.status = 200 -> Json.of_string r.Wire.body
  | Ok r -> Error (Printf.sprintf "GET %s: status %d" path r.Wire.status)
  | Error msg -> Error msg

let listing j =
  List.map
    (fun d ->
      ( Answers.str (Answers.member "doc" d),
        Answers.int (Answers.member "nodes" d),
        Answers.int (Answers.member "keywords" d) ))
    (Answers.list (Answers.member "docs" j))

let doc_row corpus name =
  let ctx = Corpus.context corpus name in
  ( name,
    Xfrag_core.Context.size ctx,
    List.length (Xfrag_doctree.Inverted_index.stats ctx.Xfrag_core.Context.index) )

(* Returns (checks attempted, failure messages). *)
let end_state plan ~docs_dir results =
  let cl = Wire.client ~port:plan.port ~timeout_s in
  let failures = ref [] and attempted = ref 0 in
  let check ok msg =
    incr attempted;
    if not ok then failures := msg :: !failures
  in
  (match plan.workload with
  | Gen.Doc_query | Gen.Corpus_query -> (
      match get_json cl "/corpus/docs" with
      | Error msg -> check false msg
      | Ok j ->
          let names = List.map (fun (n, _, _) -> n) (listing j) in
          check (names = plan.names)
            "collection after the write probe differs from the initial one")
  | Gen.Corpus_churn -> (
      (* The reference: a from-scratch corpus of the surviving documents
         (every DELETE was followed by a PUT, so all names survive, each
         at its client's last written version). *)
      let latest = Hashtbl.create 256 in
      List.iter
        (fun r -> List.iter (fun (n, v) -> Hashtbl.replace latest n v) r.final_versions)
        results;
      let docs =
        List.map
          (fun name ->
            let xml =
              match Hashtbl.find_opt latest name with
              | Some version -> (Gen.version_doc ~scale:plan.scale ~seed:plan.seed ~name ~version).Gen.xml
              | None -> In_channel.with_open_bin (Filename.concat docs_dir name) In_channel.input_all
            in
            ( name,
              Xfrag_doctree.Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string xml) ))
          plan.names
      in
      let reference = Corpus.of_documents docs in
      (match get_json cl "/corpus/docs" with
      | Error msg -> check false msg
      | Ok j ->
          check
            (listing j = List.map (doc_row reference) (Corpus.names reference))
            "final /corpus/docs listing differs from a from-scratch corpus");
      Array.iter
        (fun (q : Gen.query) ->
          let expected = Answers.of_corpus reference (Answers.request q.Gen.body) in
          match
            Wire.exchange cl
              (Gen.http_request ~meth:"POST" ~path:"/corpus/query" q.Gen.body)
          with
          | Ok r when r.Wire.status = 200 -> (
              match Answers.of_body ~corpus:true r.Wire.body with
              | Ok (got, _) ->
                  check (got = expected)
                    ("final answer differs from a from-scratch corpus for " ^ q.Gen.body)
              | Error msg -> check false msg)
          | Ok r -> check false (Printf.sprintf "final query: status %d" r.Wire.status)
          | Error msg -> check false msg)
        plan.pool));
  Wire.close cl;
  (!attempted, List.rev !failures)

let reference_answers plan ~docs_dir =
  let files = List.map (Filename.concat docs_dir) plan.names in
  let docs, _ = Xfrag_doctree.Loader.load_documents files in
  match plan.workload with
  | Gen.Corpus_churn -> None
  | Gen.Doc_query ->
      let ctx = Xfrag_core.Context.create (snd (List.hd docs)) in
      Some (Array.map (fun (q : Gen.query) -> Answers.of_eval ctx (Answers.request q.Gen.body)) plan.pool)
  | Gen.Corpus_query ->
      let corpus = Corpus.of_documents docs in
      Some (Array.map (fun (q : Gen.query) -> Answers.of_corpus corpus (Answers.request q.Gen.body)) plan.pool)

(* One phase of the HTTP run: [`Window] is the warm-up and the measured
   window of the workload's own traffic; [`Probe part] is one part of the
   write probe of the read-only workloads (see Gen.probe_events). *)
let run ~phase ~workload ~scale ~seed ~port ~clients ~seconds ~warmup ~docs_dir ~out =
  let pool = Gen.query_pool ~workload ~scale in
  let read_requests =
    Array.map (fun (q : Gen.query) -> Gen.http_request ~meth:"POST" ~path:(Gen.read_path workload) q.Gen.body) pool
  in
  let plan =
    { workload; scale; seed; port; clients; pool; read_requests; names = Gen.doc_names ~workload ~scale }
  in
  let refs = if phase = `Window then reference_answers plan ~docs_dir else None in
  Gc.compact ();
  let start_ns = Wire.now_ns () in
  let warm_end = start_ns + int_of_float (warmup *. 1e9) in
  let stop = warm_end + int_of_float (seconds *. 1e9) in
  let drive c run next =
    match phase with
    | `Window ->
        while Wire.now_ns () < stop do
          run (if Wire.now_ns () < warm_end then 0 else 1) (next ())
        done
    | `Probe part ->
        Gen.probe_events ~part ~workload ~scale ~clients ~c ()
        |> List.map (List.map (fun op -> (op, request plan op)))
        |> List.iter (run 2)
  in
  let results =
    List.init clients (fun c ->
        Domain.spawn (fun () -> run_client plan ~start_ns ~warm_end ~drive:(drive c) c))
    |> List.map Domain.join
  in
  let window_ns =
    List.fold_left (fun a r -> max a r.last_ns) 0 results - warm_end
  in
  let checks, check_failures = end_state plan ~docs_dir results in
  let samples = List.concat_map (fun r -> r.samples) results in
  let engine_ns, shard_runs, bad_answers, answer_failures = read_answers plan refs samples in
  let failed =
    List.length (List.filter (fun s -> not s.ok) samples) + List.length check_failures
  in
  let int_list l = Json.List (List.map (fun i -> Json.Int i) l) in
  let j =
    Json.Obj
      [
        ("attempted", Json.Int (checks + List.fold_left (fun a r -> a + r.attempted) 0 results));
        ("failed", Json.Int failed);
        ( "failures",
          Json.List
            (List.map (fun s -> Json.String s)
               (List.concat_map (fun r -> r.failures) results @ answer_failures @ check_failures)) );
        ("mismatches", Json.Int (bad_answers + List.length check_failures));
        ("reconnects", Json.Int (List.fold_left (fun a r -> a + r.reconnects) 0 results));
        ("window_s", Json.Float (float_of_int window_ns /. 1e9));
        ( "samples",
          Json.List
            (List.map
               (fun s ->
                 Json.List
                   (List.map (fun i -> Json.Int i) [ s.kind; s.pool; s.rtt_ns; Bool.to_int s.ok; s.phase; s.end_ns ]
                   @ [ Json.String s.id ]))
               samples) );
        ("engine_ns", int_list engine_ns);
        ( "shard_runs",
          Json.List (List.map (fun (a, b, c, d) -> int_list [ a; b; c; d ]) shard_runs) );
      ]
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string j))

(* Server-subsystem tests: worker pool semantics (bounded queue,
   shedding, graceful drain), router dispatch against the paper's
   Figure 1 document, the Prometheus exporter, the JSON parser, and an
   in-process end-to-end run over real sockets (accept loop on its own
   domain, no external tooling). *)

module Http = Xfrag_server.Http
module Pool = Xfrag_server.Pool
module Router = Xfrag_server.Router
module Server = Xfrag_server.Server
module Client = Xfrag_server.Client
module Json = Xfrag_obs.Json
module Metrics = Xfrag_obs.Metrics
module Prometheus = Xfrag_obs.Prometheus
module Paper = Xfrag_workload.Paper_doc

(* --- pool --- *)

let test_pool_runs_everything () =
  let pool = Pool.create ~workers:3 ~queue_cap:64 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 50 do
    assert (Pool.submit pool (fun () -> Atomic.incr hits))
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran before shutdown returned" 50
    (Atomic.get hits)

let test_pool_sheds_when_full () =
  let pool = Pool.create ~workers:1 ~queue_cap:2 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  (* Occupy the single worker... *)
  assert (
    Pool.submit pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do Domain.cpu_relax () done));
  while not (Atomic.get started) do Domain.cpu_relax () done;
  (* ...fill the queue... *)
  assert (Pool.submit pool ignore);
  assert (Pool.submit pool ignore);
  Alcotest.(check int) "queue depth" 2 (Pool.queue_depth pool);
  (* ...and the next submit is refused without blocking. *)
  Alcotest.(check bool) "shed" false (Pool.submit pool ignore);
  Atomic.set release true;
  Pool.shutdown pool

let test_pool_job_exception_is_contained () =
  let pool = Pool.create ~workers:1 ~queue_cap:8 () in
  let ran = Atomic.make false in
  assert (Pool.submit pool (fun () -> failwith "boom"));
  assert (Pool.submit pool (fun () -> Atomic.set ran true));
  Pool.shutdown pool;
  Alcotest.(check bool) "worker survived the raising job" true (Atomic.get ran)

(* --- router --- *)

let make_request ?(meth = "POST") ?(path = "/query") ?(query = [])
    ?(headers = []) body =
  {
    Http.meth;
    path;
    query;
    version = "HTTP/1.1";
    headers;
    body;
  }

let make_router () = Router.create (Paper.figure1_context ())

let body_json (resp : Http.response) =
  match Json.of_string resp.Http.resp_body with
  | Ok j -> j
  | Error e -> Alcotest.failf "response body is not JSON (%s): %s" e resp.Http.resp_body

let int_field key j =
  match Option.bind (Json.member key j) Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "missing int field %S" key

let test_router_query () =
  let router = make_router () in
  let keywords =
    Json.List (List.map (fun k -> Json.String k) Paper.query_keywords)
  in
  let body = Json.to_string (Json.Obj [ ("keywords", keywords) ]) in
  let resp = Router.handle router (make_request body) in
  Alcotest.(check int) "status" 200 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check bool) "has answers" true (int_field "count" j > 0);
  (* The answer set must match a direct evaluation. *)
  let direct =
    Xfrag_core.Eval.answers (Paper.figure1_context ())
      (Xfrag_core.Query.make Paper.query_keywords)
  in
  Alcotest.(check int) "count agrees with direct Eval"
    (Xfrag_core.Frag_set.cardinal direct) (int_field "count" j)

let test_router_filters () =
  let router = make_router () in
  let keywords =
    Json.List (List.map (fun k -> Json.String k) Paper.query_keywords)
  in
  let body filters =
    Json.to_string (Json.Obj [ ("keywords", keywords); ("filters", filters) ])
  in
  let count filters =
    int_field "count"
      (body_json (Router.handle router (make_request (body filters))))
  in
  let unfiltered = count (Json.Obj []) in
  let tight = count (Json.Obj [ ("max_size", Json.Int 2) ]) in
  Alcotest.(check bool) "max_size filters answers" true (tight <= unfiltered)

let test_router_errors () =
  let router = make_router () in
  let status ?meth ?path ?query body =
    (Router.handle router (make_request ?meth ?path ?query body)).Http.status
  in
  Alcotest.(check int) "bad JSON" 400 (status "{nope");
  Alcotest.(check int) "missing keywords" 400 (status "{}");
  Alcotest.(check int) "empty keywords" 400 (status "{\"keywords\":[]}");
  Alcotest.(check int) "bad strategy" 400
    (status "{\"keywords\":[\"a\"],\"strategy\":\"wat\"}");
  Alcotest.(check int) "bad filter" 400
    (status "{\"keywords\":[\"a\"],\"filter\":\"size<=x\"}");
  Alcotest.(check int) "unknown path" 404 (status ~path:"/nope" "{}");
  Alcotest.(check int) "GET /query" 405 (status ~meth:"GET" "");
  Alcotest.(check int) "POST /healthz" 405 (status ~path:"/healthz" "{}");
  Alcotest.(check int) "healthz" 200 (status ~meth:"GET" ~path:"/healthz" "")

let test_router_deadline_408 () =
  let router = make_router () in
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "keywords",
             Json.List (List.map (fun k -> Json.String k) Paper.query_keywords)
           );
         ])
  in
  let resp =
    Router.handle router
      (make_request ~query:[ ("deadline_ns", "0") ] body)
  in
  Alcotest.(check int) "deadline 0 -> 408" 408 resp.Http.status

let test_router_explain () =
  let router = make_router () in
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "keywords",
             Json.List (List.map (fun k -> Json.String k) Paper.query_keywords)
           );
         ])
  in
  let resp = Router.handle router (make_request ~path:"/explain" body) in
  Alcotest.(check int) "status" 200 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check bool) "has a plan" true (Json.member "plan" j <> None);
  Alcotest.(check bool) "has an operator tree" true (Json.member "root" j <> None)

let test_router_metrics_page () =
  let router = make_router () in
  ignore (Router.handle router (make_request ~meth:"GET" ~path:"/healthz" ""));
  Router.record_shed router;
  let page = Router.metrics_page router in
  let contains sub =
    Astring.String.find_sub ~sub page <> None
  in
  Alcotest.(check bool) "request series" true
    (contains "server_requests{endpoint=\"/healthz\",status=\"200\"}");
  Alcotest.(check bool) "latency series" true
    (contains "server_latency_ns_bucket{endpoint=\"/healthz\",le=");
  Alcotest.(check bool) "shed counter" true (contains "server_shed 1");
  Alcotest.(check bool) "queue depth gauge" true (contains "server_queue_depth")

let test_router_metrics_label_cardinality () =
  (* Untrusted request paths must not mint metric series: a scanner
     probing distinct paths would otherwise grow the registry (and the
     /metrics page) without bound.  Unknown paths share one "other"
     label. *)
  let router = make_router () in
  List.iter
    (fun path ->
      ignore (Router.handle router (make_request ~meth:"GET" ~path "")))
    [ "/nope"; "/admin.php"; "/%2e%2e/etc/passwd" ];
  let page = Router.metrics_page router in
  let contains sub = Astring.String.find_sub ~sub page <> None in
  Alcotest.(check bool) "bucketed under \"other\"" true
    (contains "server_requests{endpoint=\"other\",status=\"404\"} 3");
  Alcotest.(check bool) "raw path is not a label" false (contains "nope");
  Alcotest.(check bool) "decoded path is not a label" false (contains "passwd")

let test_router_deadline_ms_overflow () =
  (* A deadline_ms whose ns conversion would overflow is a validation
     error (400), not a negative deadline masquerading as a 408. *)
  let router = make_router () in
  let body =
    Json.to_string
      (Json.Obj
         [
           ("keywords", Json.List [ Json.String "xml" ]);
           ("deadline_ms", Json.Int ((max_int / 1_000_000) + 1));
         ])
  in
  let resp = Router.handle router (make_request body) in
  Alcotest.(check int) "overflowing deadline_ms -> 400" 400 resp.Http.status

let oversized_brute_force_body () =
  (* 15 occurrences of one keyword is above Powerset's 14-element
     enumeration guard, so Brute_force raises Invalid_argument. *)
  Json.to_string
    (Json.Obj
       [
         ("keywords", Json.List [ Json.String "alpha" ]);
         ("strategy", Json.String "brute-force");
       ])

let test_router_powerset_guard_is_400 () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<doc>";
  for i = 1 to 15 do
    Buffer.add_string buf (Printf.sprintf "<p>alpha filler%d</p>" i)
  done;
  Buffer.add_string buf "</doc>";
  let router =
    Router.create (Xfrag_core.Context.of_xml_string (Buffer.contents buf))
  in
  let resp = Router.handle router (make_request (oversized_brute_force_body ())) in
  Alcotest.(check int) "enumeration guard -> 400, not 500" 400 resp.Http.status

(* --- /corpus/query --- *)

let corpus_fixture () =
  let doc seed plant =
    Xfrag_workload.Docgen.with_planted_keywords
      { Xfrag_workload.Docgen.default with seed; sections = 2 }
      ~plant
  in
  Xfrag_core.Corpus.of_documents
    [
      ("a.xml", doc 11 [ ("mangrove", 2); ("estuary", 1) ]);
      ("b.xml", doc 12 [ ("mangrove", 3) ]);
      ("c.xml", doc 13 [ ("estuary", 2) ]);
    ]

let make_corpus_router ?shards () =
  Router.create ?shards ~corpus:(corpus_fixture ()) (Paper.figure1_context ())

let corpus_body =
  Json.to_string (Json.Obj [ ("keywords", Json.List [ Json.String "mangrove" ]) ])

let list_field key j =
  match Json.member key j with
  | Some (Json.List l) -> l
  | _ -> Alcotest.failf "missing list field %S" key

let test_corpus_query_single () =
  let router = make_corpus_router ~shards:2 () in
  let resp =
    Router.handle router (make_request ~path:"/corpus/query" corpus_body)
  in
  Alcotest.(check int) "status" 200 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check bool) "has hits" true (int_field "count" j > 0);
  Alcotest.(check int) "two shard reports" 2 (List.length (list_field "shards" j));
  Alcotest.(check bool) "merge timing" true (int_field "merge_ns" j >= 0);
  (* Every hit names its document and carries a score. *)
  List.iter
    (fun h ->
      (match Json.member "doc" h with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail "hit is missing its doc name");
      match Json.member "score" h with
      | Some (Json.Float _) -> ()
      | _ -> Alcotest.fail "hit is missing its score")
    (list_field "hits" j);
  (* Hit counts agree with a direct sharded run over the same corpus. *)
  let direct =
    Xfrag_core.Corpus.run ~shards:2 (corpus_fixture ())
      Xfrag_core.Exec.Request.(
        with_limit (Some 100) (with_keywords [ "mangrove" ] default))
  in
  Alcotest.(check int) "count agrees with direct Corpus.run"
    (List.length direct.Xfrag_core.Corpus.hits)
    (int_field "count" j)

let test_corpus_query_batch () =
  let router = make_corpus_router () in
  let one kw = Json.Obj [ ("keywords", Json.List [ Json.String kw ]) ] in
  let body = Json.to_string (Json.List [ one "mangrove"; one "estuary" ]) in
  let resp = Router.handle router (make_request ~path:"/corpus/query" body) in
  Alcotest.(check int) "status" 200 resp.Http.status;
  let results = list_field "results" (body_json resp) in
  Alcotest.(check int) "one result per batch entry" 2 (List.length results);
  List.iter
    (fun r -> Alcotest.(check bool) "each has hits" true (int_field "count" r > 0))
    results

let test_corpus_query_batch_limits () =
  let router = make_corpus_router () in
  let status body =
    (Router.handle router (make_request ~path:"/corpus/query" body)).Http.status
  in
  Alcotest.(check int) "empty batch" 400 (status "[]");
  let one = {|{"keywords":["mangrove"]}|} in
  let oversized =
    "[" ^ String.concat "," (List.init 33 (fun _ -> one)) ^ "]"
  in
  Alcotest.(check int) "batch above cap" 400 (status oversized);
  (* A bad entry rejects the whole batch: one ticket, one verdict. *)
  Alcotest.(check int) "bad entry poisons batch" 400
    (status ("[" ^ one ^ ",{}]"))

let test_corpus_query_without_corpus () =
  let router = make_router () in
  let resp =
    Router.handle router (make_request ~path:"/corpus/query" corpus_body)
  in
  Alcotest.(check int) "no corpus -> 404" 404 resp.Http.status

let test_corpus_metrics () =
  let router = make_corpus_router ~shards:2 () in
  ignore (Router.handle router (make_request ~path:"/corpus/query" corpus_body));
  let page = Router.metrics_page router in
  let contains sub = Astring.String.find_sub ~sub page <> None in
  Alcotest.(check bool) "shard-count gauge" true (contains "corpus_shards 2");
  Alcotest.(check bool) "per-shard latency histogram" true
    (contains "corpus_shard_elapsed_ns_bucket");
  Alcotest.(check bool) "merge latency histogram" true
    (contains "corpus_merge_ns_count 1");
  Alcotest.(check bool) "endpoint counter" true
    (contains "server_requests{endpoint=\"/corpus/query\",status=\"200\"} 1")

(* --- request ids and /debug endpoints --- *)

module Recorder = Xfrag_obs.Recorder

(* The recorder is process-global; force it on and restore so these
   tests stay meaningful (and honest) under the XFRAG_RECORDER=0 CI
   leg, which proves the engine never depends on it. *)
let with_recorder f =
  let was = Recorder.enabled () in
  Recorder.set_enabled true;
  Recorder.clear ();
  Fun.protect
    ~finally:(fun () ->
      Recorder.clear ();
      Recorder.set_enabled was)
    f

let resp_header name (resp : Http.response) =
  List.find_map
    (fun (k, v) ->
      if String.lowercase_ascii k = String.lowercase_ascii name then Some v
      else None)
    resp.Http.resp_headers

let string_field key j =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" key

(* A string field of the body's [{"error": {...}}] envelope. *)
let error_field key j =
  match Json.member "error" j with
  | Some env -> string_field key env
  | None -> Alcotest.failf "no error envelope in %s" (Json.to_string j)

let query_body =
  Json.to_string
    (Json.Obj
       [
         ( "keywords",
           Json.List (List.map (fun k -> Json.String k) Paper.query_keywords) );
       ])

let test_request_id_echo () =
  let router = make_router () in
  let resp =
    Router.handle router
      (make_request ~headers:[ ("x-request-id", "client-abc.1") ] query_body)
  in
  Alcotest.(check int) "status" 200 resp.Http.status;
  Alcotest.(check (option string)) "inbound id echoed" (Some "client-abc.1")
    (resp_header "x-request-id" resp);
  Alcotest.(check string) "inbound id in body" "client-abc.1"
    (string_field "request_id" (body_json resp))

let test_request_id_minted_when_invalid () =
  let router = make_router () in
  let check_minted resp =
    match resp_header "x-request-id" resp with
    | None -> Alcotest.fail "response lost its X-Request-Id"
    | Some id ->
        Alcotest.(check bool) "fresh mint, not the bad inbound id" true
          (id <> "bad id!" && String.length id > 4 && String.sub id 0 4 = "req-")
  in
  check_minted
    (Router.handle router
       (make_request ~headers:[ ("x-request-id", "bad id!") ] query_body));
  (* Absent header: still minted. *)
  check_minted (Router.handle router (make_request query_body))

let test_request_id_on_error_responses () =
  let router = make_router () in
  let has_id ?meth ?path ?query body =
    let resp = Router.handle router (make_request ?meth ?path ?query body) in
    (match resp_header "x-request-id" resp with
    | None -> Alcotest.failf "%d response has no X-Request-Id" resp.Http.status
    | Some _ -> ());
    Alcotest.(check bool)
      (Printf.sprintf "%d body carries request_id" resp.Http.status)
      true
      (String.length (error_field "request_id" (body_json resp)) > 0)
  in
  has_id "{nope";
  (* 400: unparseable body *)
  has_id ~path:"/nope" "{}";
  (* 404 *)
  has_id ~meth:"GET" ~path:"/query" "";
  (* 405 *)
  has_id ~query:[ ("deadline_ns", "0") ] query_body (* 408 *)

let test_debug_requests () =
  with_recorder (fun () ->
      let router = make_router () in
      let resp =
        Router.handle router
          (make_request ~headers:[ ("x-request-id", "debug-probe-1") ] query_body)
      in
      Alcotest.(check int) "query status" 200 resp.Http.status;
      let dbg =
        Router.handle router
          (make_request ~meth:"GET" ~path:"/debug/requests"
             ~query:[ ("id", "debug-probe-1") ]
             "")
      in
      Alcotest.(check int) "debug status" 200 dbg.Http.status;
      let j = body_json dbg in
      Alcotest.(check int) "one matching event" 1 (int_field "count" j);
      match list_field "events" j with
      | [ ev ] ->
          Alcotest.(check string) "event id" "debug-probe-1"
            (string_field "id" ev);
          Alcotest.(check string) "endpoint" "/query" (string_field "endpoint" ev);
          Alcotest.(check string) "outcome" "ok" (string_field "outcome" ev);
          Alcotest.(check int) "status" 200 (int_field "status" ev);
          (* Stage timings: eval and total are non-zero for a real
             evaluation (parse can round to 0 at clock resolution). *)
          Alcotest.(check bool) "eval_ns > 0" true (int_field "eval_ns" ev > 0);
          Alcotest.(check bool) "total_ns > 0" true (int_field "total_ns" ev > 0);
          Alcotest.(check bool) "hits recorded" true (int_field "hits" ev > 0)
      | evs -> Alcotest.failf "expected one event, got %d" (List.length evs))

let test_debug_requests_last_n () =
  with_recorder (fun () ->
      let router = make_router () in
      for i = 1 to 5 do
        ignore
          (Router.handle router
             (make_request
                ~headers:[ ("x-request-id", Printf.sprintf "burst-%d" i) ]
                query_body))
      done;
      let dbg =
        Router.handle router
          (make_request ~meth:"GET" ~path:"/debug/requests"
             ~query:[ ("n", "3") ] "")
      in
      let j = body_json dbg in
      Alcotest.(check int) "last 3" 3 (int_field "count" j);
      let ids = List.map (string_field "id") (list_field "events" j) in
      Alcotest.(check (list string)) "newest three, oldest first"
        [ "burst-3"; "burst-4"; "burst-5" ] ids;
      (* Junk n is a client error, not a crash. *)
      let bad =
        Router.handle router
          (make_request ~meth:"GET" ~path:"/debug/requests"
             ~query:[ ("n", "wat") ] "")
      in
      Alcotest.(check int) "non-numeric n -> 400" 400 bad.Http.status)

let test_debug_slow () =
  with_recorder (fun () ->
      let router = make_router () in
      ignore
        (Router.handle router
           (make_request ~headers:[ ("x-request-id", "slow-probe") ] query_body));
      let slow_at ms =
        body_json
          (Router.handle router
             (make_request ~meth:"GET" ~path:"/debug/slow"
                ~query:[ ("ms", ms) ] ""))
      in
      (* Threshold 0: everything qualifies. *)
      let j = slow_at "0" in
      Alcotest.(check bool) "threshold surfaces" true
        (Json.member "threshold_ns" j <> None);
      Alcotest.(check bool) "all requests qualify at 0ms" true
        (int_field "count" j >= 1);
      (* An hour: nothing does. *)
      Alcotest.(check int) "none at 3600000ms" 0
        (int_field "count" (slow_at "3600000")))

let test_debug_endpoints_are_get_only () =
  let router = make_router () in
  List.iter
    (fun path ->
      let resp = Router.handle router (make_request ~path "{}") in
      Alcotest.(check int) (path ^ " POST -> 405") 405 resp.Http.status)
    [ "/debug/requests"; "/debug/slow" ]

let test_fault_500_lands_in_recorder () =
  with_recorder (fun () ->
      let router = make_router () in
      let resp =
        Xfrag_fault.Fault.Failpoint.with_armed "eval.request" Xfrag_fault.Fault.Raise
          (fun () ->
            Router.handle router
              (make_request ~headers:[ ("x-request-id", "chaos-1") ] query_body))
      in
      Alcotest.(check int) "fault -> 500" 500 resp.Http.status;
      Alcotest.(check (option string)) "500 echoes the id" (Some "chaos-1")
        (resp_header "x-request-id" resp);
      Alcotest.(check string) "500 body carries request_id" "chaos-1"
        (error_field "request_id" (body_json resp));
      match Recorder.find "chaos-1" with
      | None -> Alcotest.fail "fault event not in the flight recorder"
      | Some ev ->
          Alcotest.(check string) "outcome" "fault" ev.Recorder.outcome;
          Alcotest.(check string) "site" "eval.request" ev.Recorder.site;
          Alcotest.(check int) "status" 500 ev.Recorder.status)

(* --- document CRUD over /corpus/docs --- *)

module Fault = Xfrag_fault.Fault

let small_doc_xml =
  "<doc><sec>mangrove mangrove estuary</sec><sec>mangrove wetlands</sec></doc>"

let obj_field key j =
  match Json.member key j with
  | Some (Json.Obj _ as o) -> o
  | _ -> Alcotest.failf "missing object field %S" key

let bool_field key j =
  match Json.member key j with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S" key

(* limit 100 so every resident document's hits are visible — the
   concurrency test below asserts on the full doc set. *)
let mangrove_query = {|{"keywords":["mangrove"],"limit":100}|}

let hit_docs router =
  let resp =
    Router.handle router (make_request ~path:"/corpus/query" mangrove_query)
  in
  Alcotest.(check int) "corpus query status" 200 resp.Http.status;
  List.map (string_field "doc") (list_field "hits" (body_json resp))

let listing_count router =
  int_field "count"
    (body_json
       (Router.handle router (make_request ~meth:"GET" ~path:"/corpus/docs" "")))

let test_crud_lifecycle () =
  let router = make_corpus_router () in
  let put body =
    Router.handle router
      (make_request ~meth:"PUT" ~path:"/corpus/docs/d.xml" body)
  in
  (* Create: 201, and the next query sees it without a restart. *)
  let resp = put small_doc_xml in
  Alcotest.(check int) "create -> 201" 201 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check bool) "created" true (bool_field "created" j);
  Alcotest.(check bool) "not a replace" false (bool_field "replaced" j);
  Alcotest.(check int) "corpus grew" 4 (int_field "corpus_docs" j);
  Alcotest.(check bool) "nodes parsed" true (int_field "nodes" j > 0);
  Alcotest.(check bool) "new doc answers queries" true
    (List.mem "d.xml" (hit_docs router));
  (* Resource read. *)
  let got =
    Router.handle router (make_request ~meth:"GET" ~path:"/corpus/docs/d.xml" "")
  in
  Alcotest.(check int) "GET doc" 200 got.Http.status;
  let gj = body_json got in
  Alcotest.(check bool) "doc nodes" true (int_field "nodes" gj > 0);
  Alcotest.(check bool) "doc keywords" true (int_field "keywords" gj > 0);
  (* Replace: 200, corpus size unchanged. *)
  let resp = put small_doc_xml in
  Alcotest.(check int) "replace -> 200" 200 resp.Http.status;
  Alcotest.(check bool) "replaced" true (bool_field "replaced" (body_json resp));
  Alcotest.(check int) "size unchanged on replace" 4
    (int_field "corpus_docs" (body_json resp));
  (* Delete: gone from the next query, and a second delete is 404. *)
  let del =
    Router.handle router
      (make_request ~meth:"DELETE" ~path:"/corpus/docs/d.xml" "")
  in
  Alcotest.(check int) "delete" 200 del.Http.status;
  Alcotest.(check bool) "deleted" true (bool_field "deleted" (body_json del));
  Alcotest.(check int) "corpus shrank" 3
    (int_field "corpus_docs" (body_json del));
  Alcotest.(check bool) "deleted doc gone from answers" false
    (List.mem "d.xml" (hit_docs router));
  Alcotest.(check int) "re-delete -> 404" 404
    (Router.handle router
       (make_request ~meth:"DELETE" ~path:"/corpus/docs/d.xml" ""))
      .Http.status;
  Alcotest.(check int) "GET gone -> 404" 404
    (Router.handle router (make_request ~meth:"GET" ~path:"/corpus/docs/d.xml" ""))
      .Http.status

let test_put_bootstraps_empty_server () =
  (* A router with no corpus still serves the resource endpoints: the
     listing is an empty 200, and the first PUT brings /corpus/query to
     life. *)
  let router = make_router () in
  Alcotest.(check int) "no corpus -> 404" 404
    (Router.handle router (make_request ~path:"/corpus/query" mangrove_query))
      .Http.status;
  Alcotest.(check int) "empty listing is legal" 0 (listing_count router);
  let resp =
    Router.handle router
      (make_request ~meth:"PUT" ~path:"/corpus/docs/figure1.xml"
         (Paper.figure1_xml ()))
  in
  Alcotest.(check int) "bootstrap PUT" 201 resp.Http.status;
  let q =
    Json.to_string
      (Json.Obj
         [
           ( "keywords",
             Json.List (List.map (fun k -> Json.String k) Paper.query_keywords)
           );
         ])
  in
  let resp = Router.handle router (make_request ~path:"/corpus/query" q) in
  Alcotest.(check int) "corpus query now serves" 200 resp.Http.status;
  Alcotest.(check bool) "has hits" true
    (int_field "count" (body_json resp) > 0)

let test_put_invalid_xml_quarantined () =
  let router = make_corpus_router () in
  let before = Fault.count "quarantined_docs" in
  let resp =
    Router.handle router
      (make_request ~meth:"PUT" ~path:"/corpus/docs/broken.xml"
         "<doc><unclosed>")
  in
  Alcotest.(check int) "bad XML -> 400" 400 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check string) "kind parse_error" "parse_error"
    (string_field "kind" (obj_field "error" j));
  Alcotest.(check int) "quarantine counter bumped" (before + 1)
    (Fault.count "quarantined_docs");
  Alcotest.(check int) "corpus unchanged" 3 (listing_count router)

let test_corpus_stats_endpoint () =
  let router = make_corpus_router () in
  let resp =
    Router.handle router (make_request ~meth:"GET" ~path:"/corpus/stats" "")
  in
  Alcotest.(check int) "status" 200 resp.Http.status;
  let j = body_json resp in
  Alcotest.(check int) "docs" 3 (int_field "docs" j);
  Alcotest.(check bool) "total nodes" true (int_field "total_nodes" j > 0);
  let idx = obj_field "index" j in
  Alcotest.(check int) "index docs" 3 (int_field "docs" idx);
  Alcotest.(check bool) "index vocabulary" true
    (int_field "vocabulary" idx > 0);
  (* No cache configured: the cache slot is an explicit null. *)
  Alcotest.(check bool) "cache null" true (Json.member "cache" j = Some Json.Null)

let test_error_envelope_shape () =
  let router = make_corpus_router () in
  let resp =
    Router.handle router
      (make_request ~meth:"GET" ~path:"/corpus/docs/nope.xml" "")
  in
  Alcotest.(check int) "404" 404 resp.Http.status;
  let j = body_json resp in
  let env = obj_field "error" j in
  Alcotest.(check string) "envelope kind" "not_found" (string_field "kind" env);
  Alcotest.(check bool) "envelope message" true
    (String.length (string_field "message" env) > 0);
  let id = string_field "request_id" env in
  Alcotest.(check bool) "envelope request_id" true (String.length id > 0);
  (* The envelope is the whole body: no top-level mirrors of its fields. *)
  Alcotest.(check bool) "no top-level kind" true (Json.member "kind" j = None);
  Alcotest.(check bool) "no top-level request_id" true
    (Json.member "request_id" j = None)

let test_405_allow () =
  let router = make_corpus_router () in
  let check_allow ~meth ~path expect =
    let resp = Router.handle router (make_request ~meth ~path "{}") in
    Alcotest.(check int) (path ^ " -> 405") 405 resp.Http.status;
    Alcotest.(check (option string))
      (path ^ " Allow header")
      (Some (String.concat ", " expect))
      (resp_header "allow" resp);
    let j = body_json resp in
    Alcotest.(check (list string))
      (path ^ " allow body")
      expect
      (List.map
         (function Json.String s -> s | _ -> "?")
         (list_field "allow" (obj_field "error" j)));
    Alcotest.(check string) (path ^ " kind") "method_not_allowed"
      (string_field "kind" (obj_field "error" j))
  in
  check_allow ~meth:"GET" ~path:"/query" [ "POST" ];
  check_allow ~meth:"POST" ~path:"/corpus/docs" [ "GET" ];
  check_allow ~meth:"POST" ~path:"/corpus/docs/a.xml" [ "DELETE"; "GET"; "PUT" ]

let test_corpus_write_fault_leaves_snapshot () =
  let router = make_corpus_router () in
  let resp =
    Fault.Failpoint.with_armed "corpus.write" Fault.Raise (fun () ->
        Router.handle router
          (make_request ~meth:"PUT" ~path:"/corpus/docs/d.xml" small_doc_xml))
  in
  Alcotest.(check int) "injected write -> 500" 500 resp.Http.status;
  let env = obj_field "error" (body_json resp) in
  Alcotest.(check string) "kind" "fault_injected" (string_field "kind" env);
  Alcotest.(check string) "site" "corpus.write" (string_field "site" env);
  (* The failpoint fires before any state change: snapshot untouched. *)
  Alcotest.(check int) "corpus unchanged" 3 (listing_count router);
  Alcotest.(check bool) "no half-applied doc" false
    (List.mem "d.xml" (hit_docs router));
  (* And the write path recovers once disarmed. *)
  Alcotest.(check int) "PUT succeeds after disarm" 201
    (Router.handle router
       (make_request ~meth:"PUT" ~path:"/corpus/docs/d.xml" small_doc_xml))
      .Http.status

let test_write_metrics () =
  let router = make_corpus_router () in
  ignore
    (Router.handle router
       (make_request ~meth:"PUT" ~path:"/corpus/docs/d.xml" small_doc_xml));
  ignore
    (Router.handle router
       (make_request ~meth:"DELETE" ~path:"/corpus/docs/d.xml" ""));
  let page = Router.metrics_page router in
  let contains sub = Astring.String.find_sub ~sub page <> None in
  Alcotest.(check bool) "put counter" true (contains "corpus_put 1");
  Alcotest.(check bool) "delete counter" true (contains "corpus_delete 1");
  Alcotest.(check bool) "put latency" true (contains "corpus_put_ns_count 1");
  Alcotest.(check bool) "writer wait" true
    (contains "corpus_writer_wait_ns_count 2");
  Alcotest.(check bool) "retract timing" true
    (contains "index_retract_ns_count 1");
  (* Doc paths bucket to one label — no per-name series. *)
  Alcotest.(check bool) "bucketed endpoint label" true
    (contains "server_requests{endpoint=\"/corpus/docs/{name}\",status=\"201\"} 1");
  Alcotest.(check bool) "doc name is not a label" false (contains "d.xml")

let test_concurrent_readers_and_writer () =
  (* Readers pin a snapshot per request while a writer cycles d.xml in
     and out: every read must see a complete corpus — the two stable
     documents always answer, and nothing but the three known names ever
     appears.  A torn swap, a lost index, or a stale cross-generation
     hit would all break one of those invariants. *)
  let router = make_corpus_router () in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      let resp =
        Router.handle router
          (make_request ~path:"/corpus/query" mangrove_query)
      in
      let ok =
        resp.Http.status = 200
        &&
        let docs =
          List.map (string_field "doc") (list_field "hits" (body_json resp))
        in
        List.mem "a.xml" docs && List.mem "b.xml" docs
        && List.for_all
             (fun d -> List.mem d [ "a.xml"; "b.xml"; "d.xml" ])
             docs
      in
      if not ok then Atomic.incr failures
    done
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  let writes_ok = ref true in
  for _ = 1 to 25 do
    let put =
      Router.handle router
        (make_request ~meth:"PUT" ~path:"/corpus/docs/d.xml" small_doc_xml)
    in
    let del =
      Router.handle router
        (make_request ~meth:"DELETE" ~path:"/corpus/docs/d.xml" "")
    in
    if put.Http.status <> 201 || del.Http.status <> 200 then writes_ok := false
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check bool) "every write round-tripped" true !writes_ok;
  Alcotest.(check int) "no torn or stale reads" 0 (Atomic.get failures)

(* --- prometheus exporter --- *)

let test_prometheus_render () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg "reqs{endpoint=\"/q\"}") 3;
  Metrics.Counter.add (Metrics.counter reg "reqs{endpoint=\"/x\"}") 1;
  Metrics.Gauge.set (Metrics.gauge reg "queue.depth") 2.0;
  let h = Metrics.histogram reg "lat_ns" in
  Metrics.Histogram.observe h 1.0;
  Metrics.Histogram.observe h 3.0;
  Metrics.Histogram.observe h 3.0;
  let out = Prometheus.render reg in
  Alcotest.(check string) "full exposition"
    "# TYPE lat_ns histogram\n\
     lat_ns_bucket{le=\"1\"} 1\n\
     lat_ns_bucket{le=\"4\"} 3\n\
     lat_ns_bucket{le=\"+Inf\"} 3\n\
     lat_ns_sum 7\n\
     lat_ns_count 3\n\
     # TYPE queue_depth gauge\n\
     queue_depth 2\n\
     # TYPE reqs counter\n\
     reqs{endpoint=\"/q\"} 3\n\
     reqs{endpoint=\"/x\"} 1\n"
    out

let test_prometheus_sanitize () =
  let reg = Metrics.create () in
  Metrics.Counter.incr (Metrics.counter reg "ops.fragment-joins");
  let out = Prometheus.render ~namespace:"xfrag" reg in
  Alcotest.(check string) "sanitized + namespaced"
    "# TYPE xfrag_ops_fragment_joins counter\nxfrag_ops_fragment_joins 1\n" out

(* --- JSON parser --- *)

let parse_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_json_values () =
  Alcotest.(check bool) "null" true (parse_json " null " = Json.Null);
  Alcotest.(check bool) "ints" true (parse_json "[0,-5,123]"
    = Json.List [ Json.Int 0; Json.Int (-5); Json.Int 123 ]);
  Alcotest.(check bool) "float" true (parse_json "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent is float" true
    (match parse_json "1e3" with Json.Float f -> f = 1000.0 | _ -> false);
  Alcotest.(check bool) "nested" true
    (parse_json "{\"a\":[true,false],\"b\":{\"c\":\"d\"}}"
    = Json.Obj
        [
          ("a", Json.List [ Json.Bool true; Json.Bool false ]);
          ("b", Json.Obj [ ("c", Json.String "d") ]);
        ])

let test_json_strings () =
  Alcotest.(check bool) "escapes" true
    (parse_json {|"a\"b\\c\nd\t"|} = Json.String "a\"b\\c\nd\t");
  Alcotest.(check bool) "unicode escape" true
    (parse_json "\"\\u0041\"" = Json.String "A");
  Alcotest.(check bool) "surrogate pair" true
    (parse_json "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80")

let test_json_round_trip () =
  let j =
    Json.Obj
      [
        ("keywords", Json.List [ Json.String "xml"; Json.String "query" ]);
        ("n", Json.Int 42);
        ("f", Json.Float 2.5);
        ("deep", Json.Obj [ ("l", Json.List [ Json.Null; Json.Bool true ]) ]);
      ]
  in
  Alcotest.(check bool) "to_string |> of_string is identity" true
    (parse_json (Json.to_string j) = j)

let test_json_errors () =
  let fails s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc");
  Alcotest.(check bool) "bare word" true (fails "nope");
  Alcotest.(check bool) "trailing comma" true (fails "[1,]");
  Alcotest.(check bool) "control char in string" true (fails "\"a\nb\"");
  Alcotest.(check bool) "lone surrogate" true (fails {|"\ud83d"|});
  Alcotest.(check bool) "deep nesting bounded" true
    (fails (String.make 1000 '[' ^ String.make 1000 ']'))

(* --- end to end over real sockets --- *)

let test_end_to_end () =
  let ctx = Paper.figure1_context () in
  let cache = Xfrag_core.Join_cache.create ~synchronized:true () in
  let router = Router.create ~cache ctx in
  let config =
    { Server.default_config with workers = 2; queue_cap = 8; port = 0 }
  in
  let server = Server.start ~config router in
  let accept_domain = Domain.spawn (fun () -> Server.run server) in
  let port = Server.port server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join accept_domain)
    (fun () ->
      (* healthz *)
      (match
         Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" ()
       with
      | Ok (200, _, body) -> Alcotest.(check string) "healthz" "ok\n" body
      | Ok (s, _, _) -> Alcotest.failf "healthz: %d" s
      | Error e -> Alcotest.fail e);
      (* keep-alive: two queries on one connection *)
      let conn = Client.connect ~host:"127.0.0.1" ~port () in
      let body =
        Json.to_string
          (Json.Obj
             [
               ( "keywords",
                 Json.List
                   (List.map (fun k -> Json.String k) Paper.query_keywords) );
             ])
      in
      let do_query () =
        match Client.request conn ~meth:"POST" ~path:"/query" ~body () with
        | Ok (200, _, body) -> int_field "count" (parse_json body)
        | Ok (s, _, _) -> Alcotest.failf "query: %d" s
        | Error e -> Alcotest.fail e
      in
      let c1 = do_query () in
      let c2 = do_query () in
      Client.close conn;
      Alcotest.(check bool) "answers" true (c1 > 0);
      Alcotest.(check int) "same on reused connection" c1 c2;
      (* metrics reflect what happened *)
      match
        Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/metrics" ()
      with
      | Ok (200, _, page) ->
          Alcotest.(check bool) "query counter" true
            (Astring.String.find_sub
               ~sub:"server_requests{endpoint=\"/query\",status=\"200\"} 2" page
            <> None)
      | Ok (s, _, _) -> Alcotest.failf "metrics: %d" s
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "server"
    [
      ( "pool",
        [
          Alcotest.test_case "runs everything" `Quick test_pool_runs_everything;
          Alcotest.test_case "sheds when full" `Quick test_pool_sheds_when_full;
          Alcotest.test_case "contains exceptions" `Quick
            test_pool_job_exception_is_contained;
        ] );
      ( "router",
        [
          Alcotest.test_case "query" `Quick test_router_query;
          Alcotest.test_case "filters" `Quick test_router_filters;
          Alcotest.test_case "errors" `Quick test_router_errors;
          Alcotest.test_case "deadline 408" `Quick test_router_deadline_408;
          Alcotest.test_case "explain" `Quick test_router_explain;
          Alcotest.test_case "metrics page" `Quick test_router_metrics_page;
          Alcotest.test_case "metrics label cardinality" `Quick
            test_router_metrics_label_cardinality;
          Alcotest.test_case "deadline_ms overflow" `Quick
            test_router_deadline_ms_overflow;
          Alcotest.test_case "powerset guard is 400" `Quick
            test_router_powerset_guard_is_400;
        ] );
      ( "corpus endpoint",
        [
          Alcotest.test_case "single request" `Quick test_corpus_query_single;
          Alcotest.test_case "batch" `Quick test_corpus_query_batch;
          Alcotest.test_case "batch limits" `Quick test_corpus_query_batch_limits;
          Alcotest.test_case "404 without corpus" `Quick
            test_corpus_query_without_corpus;
          Alcotest.test_case "metrics" `Quick test_corpus_metrics;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "X-Request-Id echo" `Quick test_request_id_echo;
          Alcotest.test_case "invalid id re-minted" `Quick
            test_request_id_minted_when_invalid;
          Alcotest.test_case "ids on error responses" `Quick
            test_request_id_on_error_responses;
          Alcotest.test_case "/debug/requests by id" `Quick test_debug_requests;
          Alcotest.test_case "/debug/requests last n" `Quick
            test_debug_requests_last_n;
          Alcotest.test_case "/debug/slow" `Quick test_debug_slow;
          Alcotest.test_case "debug endpoints GET-only" `Quick
            test_debug_endpoints_are_get_only;
          Alcotest.test_case "fault 500 in recorder" `Quick
            test_fault_500_lands_in_recorder;
        ] );
      ( "corpus crud",
        [
          Alcotest.test_case "lifecycle" `Quick test_crud_lifecycle;
          Alcotest.test_case "PUT bootstraps empty server" `Quick
            test_put_bootstraps_empty_server;
          Alcotest.test_case "invalid XML quarantined" `Quick
            test_put_invalid_xml_quarantined;
          Alcotest.test_case "/corpus/stats" `Quick test_corpus_stats_endpoint;
          Alcotest.test_case "error envelope shape" `Quick
            test_error_envelope_shape;
          Alcotest.test_case "405 carries Allow" `Quick test_405_allow;
          Alcotest.test_case "write fault leaves snapshot" `Quick
            test_corpus_write_fault_leaves_snapshot;
          Alcotest.test_case "write metrics" `Quick test_write_metrics;
          Alcotest.test_case "readers race writer" `Quick
            test_concurrent_readers_and_writer;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "render" `Quick test_prometheus_render;
          Alcotest.test_case "sanitize" `Quick test_prometheus_sanitize;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "strings" `Quick test_json_strings;
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "sockets" `Quick test_end_to_end ] );
    ]

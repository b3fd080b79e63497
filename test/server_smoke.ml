(* End-to-end smoke test for `xfrag serve`, run as its own executable
   (CI leg, not part of runtest): start the real binary on an ephemeral
   port, issue a query, scrape /metrics, then assert that SIGTERM
   drains gracefully and the process exits 0.  A second, chaos phase
   restarts the server with XFRAG_FAILPOINTS armed and a corrupt
   document on the command line, and asserts structured 500s, recovery,
   quarantine, and nonzero faults_* series on /metrics.

   Usage: server_smoke.exe [path-to-xfrag.exe] *)

module Client = Xfrag_server.Client
module Json = Xfrag_obs.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let step fmt = Printf.ksprintf (fun msg -> print_endline ("smoke: " ^ msg)) fmt

let contains ~sub s = Astring.String.find_sub ~sub s <> None

let resp_header name headers =
  List.find_map
    (fun (k, v) -> if String.lowercase_ascii k = name then Some v else None)
    headers

let string_member key j =
  Option.bind (Json.member key j) Json.to_string_opt

let int_member key j = Option.bind (Json.member key j) Json.to_int_opt

(* Start `xfrag serve` on an ephemeral port, optionally with extra
   environment entries (the chaos phase arms XFRAG_FAILPOINTS this
   way), and parse the announced port off its stdout. *)
let start_server ?(env = []) xfrag args =
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let argv = Array.of_list (xfrag :: "serve" :: args) in
  let pid =
    match env with
    | [] -> Unix.create_process xfrag argv Unix.stdin out_write Unix.stderr
    | extra ->
        Unix.create_process_env xfrag argv
          (Array.append (Unix.environment ()) (Array.of_list extra))
          Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let ic = Unix.in_channel_of_descr out_read in
  let first_line =
    match input_line ic with
    | line -> line
    | exception End_of_file ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        die "server exited before announcing its port"
  in
  (* The line reads "xfrag: listening on HOST:PORT (...)". *)
  let port =
    match String.rindex_opt first_line ':' with
    | None -> die "cannot find port in %S" first_line
    | Some i -> (
        let rest =
          String.sub first_line (i + 1) (String.length first_line - i - 1)
        in
        let digits =
          String.to_seq rest
          |> Seq.take_while (fun c -> c >= '0' && c <= '9')
          |> String.of_seq
        in
        match int_of_string_opt digits with
        | Some p -> p
        | None -> die "cannot parse port from %S" first_line)
  in
  (pid, port)

(* SIGTERM must drain and exit 0. *)
let assert_clean_shutdown ~cleanup pid =
  Unix.kill pid Sys.sigterm;
  let rec wait_exit tries =
    if tries = 0 then (cleanup (); die "server did not exit after SIGTERM")
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.sleepf 0.1;
          wait_exit (tries - 1)
      | _, Unix.WEXITED 0 -> step "SIGTERM -> clean exit 0"
      | _, Unix.WEXITED n -> (cleanup (); die "exit code %d" n)
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          (cleanup (); die "killed/stopped by signal %d" n)
  in
  wait_exit 100

let () =
  let xfrag =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "_build/default/bin/xfrag.exe"
  in
  if not (Sys.file_exists xfrag) then die "xfrag binary not found at %s" xfrag;

  (* Synthetic documents to serve: the first backs /query, the whole
     set backs /corpus/query. *)
  let write_doc cfg =
    let path = Filename.temp_file "xfrag_smoke" ".xml" in
    let oc = open_out path in
    output_string oc (Xfrag_workload.Docgen.generate_xml cfg);
    close_out oc;
    path
  in
  let doc = write_doc Xfrag_workload.Docgen.default in
  let doc2 = write_doc { Xfrag_workload.Docgen.default with seed = 99 } in

  let pid, port =
    start_server xfrag
      [ doc; doc2; "--port"; "0"; "--request-timeout-ms"; "5000"; "--shards"; "2" ]
  in
  let cleanup () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ doc; doc2 ]
  in
  step "server pid %d on port %d" pid port;

  (* Health. *)
  (match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" () with
  | Ok (200, _, "ok\n") -> step "healthz ok"
  | Ok (s, _, body) -> (cleanup (); die "healthz: %d %s" s body)
  | Error e -> (cleanup (); die "healthz: %s" e));

  (* A real query, carrying a client request id that must be echoed. *)
  let body = {|{"keywords":["term0000"],"filters":{"max_size":3},"limit":5}|} in
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/query"
       ~headers:[ ("X-Request-Id", "smoketest-123") ]
       ~body ()
   with
  | Ok (200, headers, reply) -> (
      (match resp_header "x-request-id" headers with
      | Some "smoketest-123" -> step "X-Request-Id echoed"
      | other ->
          (cleanup ();
           die "X-Request-Id not echoed (got %s)"
             (Option.value ~default:"<none>" other)));
      match Json.of_string reply with
      | Ok j when int_member "count" j <> None ->
          if string_member "request_id" j <> Some "smoketest-123" then
            (cleanup (); die "200 body lacks the request id: %s" reply);
          step "query ok: %s" (String.sub reply 0 (min 60 (String.length reply)))
      | Ok _ -> (cleanup (); die "query reply missing count: %s" reply)
      | Error e -> (cleanup (); die "query reply not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "query: %d %s" s reply)
  | Error e -> (cleanup (); die "query: %s" e));

  (* Deadline enforcement through the HTTP surface. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST"
       ~path:"/query?deadline_ns=1"
       ~body:{|{"keywords":["term0000","term0001"],"strategy":"semi-naive"}|}
       ()
   with
  | Ok (408, _, _) -> step "deadline -> 408 ok"
  | Ok (s, _, reply) -> (cleanup (); die "deadline: got %d %s" s reply)
  | Error e -> (cleanup (); die "deadline: %s" e));

  (* Sharded corpus search across both served documents. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/corpus/query"
       ~body:{|{"keywords":["term0000"],"limit":5}|} ()
   with
  | Ok (200, _, reply) -> (
      match Json.of_string reply with
      | Ok j -> (
          match Json.member "shards" j with
          | Some (Json.List (_ :: _ :: _)) -> step "corpus query ok (2 shards)"
          | _ -> (cleanup (); die "corpus reply lacks shard reports: %s" reply))
      | Error e -> (cleanup (); die "corpus reply not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "corpus query: %d %s" s reply)
  | Error e -> (cleanup (); die "corpus query: %s" e));

  (* Batched corpus search: one HTTP request, two result objects. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/corpus/query"
       ~body:{|[{"keywords":["term0000"]},{"keywords":["term0001"]}]|} ()
   with
  | Ok (200, _, reply) -> (
      match Json.of_string reply with
      | Ok j -> (
          match Json.member "results" j with
          | Some (Json.List [ _; _ ]) -> step "corpus batch ok"
          | _ -> (cleanup (); die "corpus batch reply malformed: %s" reply))
      | Error e -> (cleanup (); die "corpus batch reply not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "corpus batch: %d %s" s reply)
  | Error e -> (cleanup (); die "corpus batch: %s" e));

  (* Metrics must reflect the traffic above. *)
  (match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/metrics" () with
  | Ok (200, _, page) ->
      List.iter
        (fun sub ->
          if not (contains ~sub page) then
            (cleanup (); die "metrics page lacks %S" sub))
        [
          "server_requests{endpoint=\"/query\",status=\"200\"} 1";
          "server_requests{endpoint=\"/query\",status=\"408\"} 1";
          "server_requests{endpoint=\"/healthz\",status=\"200\"} 1";
          "server_requests{endpoint=\"/corpus/query\",status=\"200\"} 2";
          "server_latency_ns_bucket{endpoint=\"/query\"";
          "server_queue_depth";
          "corpus_shards 2";
          "corpus_shard_elapsed_ns_bucket";
          "corpus_merge_ns_count";
        ];
      step "metrics ok (%d bytes)" (String.length page)
  | Ok (s, _, _) -> (cleanup (); die "metrics: %d" s)
  | Error e -> (cleanup (); die "metrics: %s" e));

  (* The flight recorder kept a wide event for the id-carrying query,
     with real stage timings. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"GET"
       ~path:"/debug/requests?id=smoketest-123" ()
   with
  | Ok (200, _, reply) -> (
      match Json.of_string reply with
      | Ok j -> (
          match Json.member "events" j with
          | Some (Json.List [ ev ]) ->
              if string_member "outcome" ev <> Some "ok" then
                (cleanup (); die "wide event outcome not ok: %s" reply);
              let positive key =
                match int_member key ev with
                | Some n when n > 0 -> ()
                | _ -> (cleanup (); die "wide event %s not > 0: %s" key reply)
              in
              positive "eval_ns";
              positive "total_ns";
              step "/debug/requests has the wide event (timings > 0)"
          | _ -> (cleanup (); die "/debug/requests?id= found %s" reply))
      | Error e -> (cleanup (); die "/debug/requests not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "/debug/requests: %d %s" s reply)
  | Error e -> (cleanup (); die "/debug/requests: %s" e));

  (* /debug/slow with a zero threshold classifies everything as slow. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/debug/slow?ms=0" ()
   with
  | Ok (200, _, reply) -> (
      match Json.of_string reply with
      | Ok j -> (
          match int_member "count" j with
          | Some n when n >= 1 -> step "/debug/slow ok (%d events at 0ms)" n
          | _ -> (cleanup (); die "/debug/slow?ms=0 empty: %s" reply))
      | Error e -> (cleanup (); die "/debug/slow not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "/debug/slow: %d %s" s reply)
  | Error e -> (cleanup (); die "/debug/slow: %s" e));

  (* --- mutation phase: document CRUD on the live server ---

     PUT a new document (a keyword no generated doc contains), see it
     answer the very next corpus query, DELETE it, and see it gone —
     all without a restart. *)
  let mutation_query = {|{"keywords":["mudflat"],"limit":5}|} in
  let corpus_count () =
    match
      Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/corpus/query"
        ~body:mutation_query ()
    with
    | Ok (200, _, reply) -> (
        match Json.of_string reply with
        | Ok j -> (
            match int_member "count" j with
            | Some n -> n
            | None -> (cleanup (); die "mutation count missing: %s" reply))
        | Error e -> (cleanup (); die "mutation query not JSON: %s" e))
    | Ok (s, _, reply) -> (cleanup (); die "mutation query: %d %s" s reply)
    | Error e -> (cleanup (); die "mutation query: %s" e)
  in
  if corpus_count () <> 0 then
    (cleanup (); die "mudflat already answers before the PUT");
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"PUT"
       ~path:"/corpus/docs/live.xml"
       ~body:"<doc><sec>mudflat mudflat heron</sec></doc>" ()
   with
  | Ok (201, _, reply) ->
      if contains ~sub:{|"created":true|} reply then step "PUT -> 201 created"
      else (cleanup (); die "PUT body not a create: %s" reply)
  | Ok (s, _, reply) -> (cleanup (); die "PUT: %d %s" s reply)
  | Error e -> (cleanup (); die "PUT: %s" e));
  if corpus_count () = 0 then
    (cleanup (); die "PUT document not visible to the next query");
  step "PUT document answers queries without a restart";
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"GET"
       ~path:"/corpus/docs/live.xml" ()
   with
  | Ok (200, _, reply) ->
      if contains ~sub:{|"doc":"live.xml"|} reply then step "GET doc stats ok"
      else (cleanup (); die "GET doc stats wrong: %s" reply)
  | Ok (s, _, reply) -> (cleanup (); die "GET doc: %d %s" s reply)
  | Error e -> (cleanup (); die "GET doc: %s" e));
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"DELETE"
       ~path:"/corpus/docs/live.xml" ()
   with
  | Ok (200, _, reply) ->
      if contains ~sub:{|"deleted":true|} reply then step "DELETE -> 200"
      else (cleanup (); die "DELETE body wrong: %s" reply)
  | Ok (s, _, reply) -> (cleanup (); die "DELETE: %d %s" s reply)
  | Error e -> (cleanup (); die "DELETE: %s" e));
  if corpus_count () <> 0 then
    (cleanup (); die "deleted document still answers queries");
  step "DELETE document gone from the next query";
  (* The uniform error envelope on a 404, and nothing mirrored beside it. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"DELETE"
       ~path:"/corpus/docs/live.xml" ()
   with
  | Ok (404, _, reply) -> (
      match Json.of_string reply with
      | Ok j
        when (match Json.member "error" j with
             | Some (Json.Obj env) ->
                 List.assoc_opt "kind" env = Some (Json.String "not_found")
                 && List.mem_assoc "request_id" env
             | _ -> false)
             && Json.member "kind" j = None ->
          step "404 envelope ok"
      | Ok _ -> (cleanup (); die "404 envelope wrong: %s" reply)
      | Error e -> (cleanup (); die "404 body not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "re-DELETE: %d %s" s reply)
  | Error e -> (cleanup (); die "re-DELETE: %s" e));
  (* Write telemetry landed on /metrics. *)
  (match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/metrics" () with
  | Ok (200, _, page) ->
      List.iter
        (fun sub ->
          if not (contains ~sub page) then
            (cleanup (); die "mutation metrics page lacks %S" sub))
        [
          "corpus_put 1";
          "corpus_delete 1";
          "corpus_writer_wait_ns_count 2";
          "server_requests{endpoint=\"/corpus/docs/{name}\",status=\"201\"} 1";
        ];
      step "write metrics ok"
  | Ok (s, _, _) -> (cleanup (); die "mutation metrics: %d" s)
  | Error e -> (cleanup (); die "mutation metrics: %s" e));

  assert_clean_shutdown ~cleanup pid;

  (* --- chaos phase ---

     The same binary, now with a corrupt document on the command line
     and the eval.request failpoint armed to kill the first evaluation.
     The server must start (quarantining the corrupt file), turn the
     injected fault into a structured JSON 500, keep serving afterwards,
     and expose nonzero faults_* series on /metrics. *)
  let corrupt = Filename.temp_file "xfrag_smoke_bad" ".xml" in
  let oc = open_out corrupt in
  output_string oc "<doc><p>never closed";
  close_out oc;
  let pid, port =
    start_server
      ~env:[ "XFRAG_FAILPOINTS=eval.request=raise@1" ]
      xfrag
      [
        doc; corrupt; doc2;
        "--port"; "0"; "--request-timeout-ms"; "5000"; "--shards"; "2";
      ]
  in
  let cleanup () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ doc; doc2; corrupt ]
  in
  step "chaos server pid %d on port %d (corrupt doc quarantined)" pid port;

  let body = {|{"keywords":["term0000"],"filters":{"max_size":3},"limit":5}|} in
  let fault_request_id =
    match
      Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/query" ~body ()
    with
    | Ok (500, _, reply) -> (
        match Json.of_string reply with
        | Ok (Json.Obj [ ("error", env) ])
          when Json.member "kind" env = Some (Json.String "fault_injected")
               && Json.member "site" env = Some (Json.String "eval.request") -> (
            match string_member "request_id" env with
            | Some id ->
                step "injected fault -> structured 500 ok (id %s)" id;
                id
            | None -> (cleanup (); die "500 body lacks request_id: %s" reply))
        | Ok _ -> (cleanup (); die "500 body not structured: %s" reply)
        | Error e -> (cleanup (); die "500 body not JSON (%s): %s" e reply))
    | Ok (s, _, reply) ->
        (cleanup (); die "chaos query: expected 500, got %d %s" s reply)
    | Error e -> (cleanup (); die "chaos query: %s" e)
  in

  (* The 500's request id joins back to a wide event that names the
     outcome and the injection site. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"GET"
       ~path:("/debug/requests?id=" ^ fault_request_id) ()
   with
  | Ok (200, _, reply) -> (
      match Json.of_string reply with
      | Ok j -> (
          match Json.member "events" j with
          | Some (Json.List [ ev ])
            when string_member "outcome" ev = Some "fault"
                 && string_member "site" ev = Some "eval.request" ->
              step "fault's wide event names outcome and site"
          | _ -> (cleanup (); die "fault wide event wrong: %s" reply))
      | Error e -> (cleanup (); die "fault /debug/requests not JSON: %s" e))
  | Ok (s, _, reply) -> (cleanup (); die "fault /debug/requests: %d %s" s reply)
  | Error e -> (cleanup (); die "fault /debug/requests: %s" e));

  (* The fault was one-shot (raise@1): the very next query succeeds. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/query" ~body ()
   with
  | Ok (200, _, _) -> step "server recovered after the injected fault"
  | Ok (s, _, reply) -> (cleanup (); die "chaos recovery: %d %s" s reply)
  | Error e -> (cleanup (); die "chaos recovery: %s" e));

  (* The two loadable documents still back /corpus/query. *)
  (match
     Client.once ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/corpus/query"
       ~body:{|{"keywords":["term0000"],"filters":{"max_size":3},"limit":5}|} ()
   with
  | Ok (200, _, reply) ->
      if contains ~sub:"\"errors\":[]" reply then
        step "corpus of survivors ok"
      else (cleanup (); die "corpus reply reports errors: %s" reply)
  | Ok (s, _, reply) -> (cleanup (); die "chaos corpus: %d %s" s reply)
  | Error e -> (cleanup (); die "chaos corpus: %s" e));

  (match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/metrics" () with
  | Ok (200, _, page) ->
      List.iter
        (fun sub ->
          if not (contains ~sub page) then
            (cleanup (); die "chaos metrics page lacks %S" sub))
        [
          "faults_request_errors 1";
          "faults_injected{site=\"eval.request\"} 1";
          "faults_quarantined_docs 1";
        ];
      step "faults_* metrics ok"
  | Ok (s, _, _) -> (cleanup (); die "chaos metrics: %d" s)
  | Error e -> (cleanup (); die "chaos metrics: %s" e));

  assert_clean_shutdown ~cleanup pid;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ doc; doc2; corrupt ];
  print_endline "smoke: PASS"

(** Request dispatch for {!Server}: maps parsed {!Http.request}s to
    responses against one shared document context (and, when serving a
    collection, a corpus).

    Endpoints:
    - [POST /query] — evaluate a keyword query.  JSON body: the
      {!Xfrag_core.Exec.Request} codec —
      [{"keywords": ["a","b"], "filter": "size<=5",
        "filters": {"max_size": 5, "max_height": 3, "max_width": 4},
        "strategy": "auto", "strict_leaf": false, "deadline_ms": 100,
        "limit": 50}] — everything but [keywords] optional; [filter]
      (CLI syntax) and [filters] (the common bounds spelled out) are
      conjoined.  Answer: [{"count", "strategy", "elapsed_ns",
      "answers": [{"root","label","nodes"}…], "stats": {…}}].
    - [POST /explain] — same body; runs EXPLAIN ANALYZE and returns the
      annotated operator tree as JSON.
    - [POST /corpus/query] — same body, evaluated against every corpus
      document on the sharded engine ({!Xfrag_core.Corpus.run}); hits
      are ranked and carry their document.  Answer: [{"count",
      "total_answers", "deadline_expired", "elapsed_ns", "merge_ns",
      "shards": [{"shard","docs","nodes","elapsed_ns",
      "deadline_expired"}…], "hits": [{"doc","score","root","label",
      "nodes"}…], "stats"}].  A JSON {e array} body is a batch: each
      element is one request, evaluated back to back under the single
      admission ticket the HTTP request was admitted on; the answer is
      [{"results": […]}].  Batches are capped (400 above the cap).  A
      deadline that expires mid-corpus-run returns the partial merge
      with ["deadline_expired": true] — a 200, not a 408.
    - [PUT /corpus/docs/{name}] — create or replace the named document;
      the body is the document XML, parsed and quarantine-checked
      exactly like {!Xfrag_doctree.Loader} (the [parse.document]
      failpoint runs keyed by the name; any parse failure is a
      structured 400 with [kind "parse_error"] and no corpus change).
      201 on create, 200 on replace; the answer carries ["created"] /
      ["replaced"], the parsed node count, and the new corpus size.
      The change is visible to the next [POST /corpus/query] without a
      restart, and a replace retires only that document's join-cache
      partition.
    - [GET /corpus/docs/{name}] — per-document stats
      ([{"doc","nodes","keywords","generation"}]); 404 for unknown
      names.
    - [DELETE /corpus/docs/{name}] — remove the document (404 if
      absent); the corpus index retracts it incrementally, degrading to
      a full rebuild and then to index-less full scans if maintenance
      fails (see {!Xfrag_core.Corpus.remove}).
    - [GET /corpus/docs] — the collection listing: ["count"] plus
      per-document stats rows.  An empty collection is a legal answer
      (a server can boot with no corpus and be populated by PUTs).
    - [GET /corpus/stats] — corpus shape: document and node totals, the
      corpus-index shape (["docs"]/["vocabulary"]/["postings"], [null]
      once index maintenance has failed and the corpus runs full
      scans), and the join-cache counters ([null] without a cache).
    - [GET /healthz] — liveness probe, ["ok"].
    - [GET /metrics] — Prometheus text exposition of the server
      registry (request counts by endpoint and status, latency
      histograms, queue depth, shed count, and after corpus queries the
      [corpus_shards] gauge plus [corpus_shard_elapsed_ns] /
      [corpus_merge_ns] histograms).
    - [GET /debug/requests] — the flight recorder's retained wide
      events ({!Xfrag_obs.Recorder}), newest-last:
      [{"enabled", "count", "events": […]}].  [?n=N] caps the event
      count (default 64); [?id=ID] returns every retained event for
      that request id instead.
    - [GET /debug/slow] — retained events whose [total_ns] meets the
      slow threshold ([?ms=N] override; default the router's
      [slow_ms], else 100 ms), plus ["threshold_ns"].

    Every response — including 400/404/405/408/500s — carries an
    [X-Request-Id] header: the client's (when it passes
    {!Xfrag_obs.Reqid.valid}) or a freshly minted id.  The id rides
    inside {!Xfrag_core.Exec.Request} through eval and corpus sharding
    (trace spans, [doc_error] rows), is echoed in 2xx/500 JSON bodies
    as ["request_id"], keys the request's wide event in
    [/debug/requests], and prefixes the access-log line.

    All three POST bodies decode through the single
    {!Xfrag_core.Exec.Request.of_json} codec; the router adds only the
    [?deadline_ns=N] query-parameter override, which beats the body's
    [deadline_ms], which beats the router's default.  A [/query] or
    [/explain] evaluation that exceeds its deadline aborts cooperatively
    (see {!Xfrag_core.Deadline}) and answers 408.

    {b Errors.}  Every error response, on every endpoint, is the
    uniform envelope [{"error": {"kind", "message", "request_id", …}}]:
    [kind] is a stable machine-readable discriminator ([bad_request],
    [parse_error], [not_found], [method_not_allowed], [deadline],
    [fault_injected], [internal], [overloaded], …), [message] the
    human-oriented text, and [request_id] the same id as the header.
    Fault-injected 500s add ["site"]; 405s add ["allow"].  Wrong method on a known path is 405 with an [Allow]
    header and the allowed-method list in the body; unknown paths are
    404; undecodable bodies are 400.  [handle] never raises.

    {b Mutability.}  The router holds the corpus as an atomically
    swapped snapshot: every request pins the current value once and
    computes against it for its whole lifetime (queries are never
    torn), while writers (PUT/DELETE) serialize on a small writer mutex
    and publish functionally-updated corpora.  Write-path telemetry:
    [corpus.put]/[corpus.delete] counters and latency histograms,
    [corpus.writer_wait_ns], and [index.retract_ns] on the metrics
    page; each mutation is a wide event under the
    ["/corpus/docs/{name}"] endpoint label.  Fault sites: [corpus.write]
    fires inside the writer lock before any state change (an injected
    failure 500s with the snapshot untouched); the corpus-maintenance
    ladder ([index.retract] → rebuild → no index) is documented at
    {!Xfrag_core.Corpus.remove}. *)

type t

val create :
  ?cache:Xfrag_core.Join_cache.t ->
  ?default_deadline_ns:int ->
  ?queue_depth:(unit -> int) ->
  ?corpus:Xfrag_core.Corpus.t ->
  ?shards:int ->
  ?slow_ms:int ->
  ?access_log:out_channel ->
  Xfrag_core.Context.t ->
  t
(** [cache] should be [~synchronized:true] when the server runs more
    than one worker (see {!Xfrag_core.Join_cache}); it serves [/query],
    [/explain], and — now that the cache partitions per document —
    [POST /corpus/query] as well (see {!Xfrag_core.Corpus.run} for the
    sharding rule).  [corpus] seeds the mutable collection (default
    empty; [POST /corpus/query] 404s while the collection is empty, but
    [PUT /corpus/docs/{name}] can populate a server started without
    one); [shards] pins its shard count (default: the
    {!Xfrag_core.Corpus.run} default — [XFRAG_SHARDS] or the pool's
    parallelism).  [queue_depth] feeds the [server_queue_depth] gauge at
    scrape time.  [slow_ms] sets the [/debug/slow] default threshold
    and arms SLOW mirror lines; [access_log] (e.g. [stderr] or an
    opened [--access-log] file) receives one structured JSON line per
    request — absent, no access logging. *)

val set_queue_depth : t -> (unit -> int) -> unit
(** Replace the queue-depth probe — {!Server.start} wires the pool's
    depth in here (the pool doesn't exist yet when the router is
    built). *)

val handle : ?queue_ns:int -> t -> Http.request -> Http.response
(** Dispatch one request, recording per-endpoint request counters and
    latency into the registry, one wide event into the flight recorder
    (stage timings, hit counts, cache deltas, outcome), and one
    access-log line.  [queue_ns] is the admission-queue wait the
    listener measured before a worker picked the connection up. *)

val record : t -> endpoint:string -> status:int -> ns:int -> unit
(** Account a request the router never saw — the listener uses this for
    shed (503) and malformed (400/408/413) connections. *)

val record_shed : t -> unit
(** Bump the load-shedding counter (and the 503 request counter). *)

val error_body : kind:string -> id:string -> string -> string
(** The uniform error envelope as a newline-terminated JSON body — for
    failures answered before any request reaches the router (the
    listener's shed 503s, unparsable 400s, read-timeout 408s), so every
    byte a client can ever see uses one error shape. *)

val metrics_page : t -> string
(** The [GET /metrics] body (also reachable through {!handle}). *)

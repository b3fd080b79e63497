(* Seeded inputs for the three workloads.  Everything here is a pure
   function of (workload, seed, scale): the HTTP run, the reference
   answers and the traced replay regenerate the same documents, query
   pool, write bodies and per-client operation sequences without
   passing them around.  The generator is the benchmark's own, so a
   change to the program's synthetic-data modules cannot move the
   benchmark's inputs. *)

type workload = Doc_query | Corpus_query | Corpus_churn

let workload_of_string = function
  | "doc-query" -> Some Doc_query
  | "corpus-query" -> Some Corpus_query
  | "corpus-churn" -> Some Corpus_churn
  | _ -> None

type scale = Full | Toy

(* Document shape: an article of [sections] sections, each a title plus
   paragraphs (their count and length jittered by +-50%).  Node count
   ~ 2 + sections * (2 + paras). *)
type shape = { sections : int; paras : int; words : int }

let corpus_shape = function
  | Full -> { sections = 8; paras = 14; words = 7 }
  | Toy -> { sections = 3; paras = 4; words = 6 }

let doc_shape = function
  | Full -> { sections = 46; paras = 23; words = 7 }
  | Toy -> { sections = 6; paras = 8; words = 6 }

let corpus_docs = function Full -> 256 | Toy -> 16

(* Background text is Zipf(s = 0.6) over 20k terms, which gives the
   indexes a realistic vocabulary; queries use the planted terms below. *)
let vocabulary = 20_000

let zipf_exponent = 0.6

let term r = Printf.sprintf "w%05d" r

let zipf_cdf n s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  cdf

(* Computed eagerly: the load generator's client domains generate
   documents concurrently, and forcing a shared lazy value from two
   domains at once raises. *)
let word_cdf = zipf_cdf vocabulary zipf_exponent

(* Smallest index whose cumulative weight exceeds [x]. *)
let search cdf x =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

let sample cdf st =
  search cdf (Random.State.float st cdf.(Array.length cdf - 1))

(* mean +- 50% *)
let jitter st mean = max 1 (mean - (mean / 2) + Random.State.int st (mean + 1))

(* --- query terms ---

   The terms queries use are planted with exact counts: each has a fixed
   number of nodes (doc-query) or documents (the corpus workloads) that
   contain it, whatever the seed, so every seed gets the same query cost
   profile and the seed only moves where the terms sit.  Terms picked
   from the background text by frequency rank would give each seed its
   own costs (fixed-point work grows superlinearly with posting size),
   and the run-to-run spread would measure the seed, not the server. *)

type group = { prefix : string; terms : int; count : int -> int }

let pct ~scale p _ = max 2 (corpus_docs scale * p / 100)

(* doc-query: selective terms in 6 nodes, mid-frequency ones in 16-40.
   Corpus: common terms in 70% of the documents (routing excludes few),
   mid terms in 25%, selective ones in 5% (routing excludes most). *)
let groups ~workload ~scale =
  match (workload, scale) with
  | Doc_query, Full ->
      [ { prefix = "s"; terms = 48; count = (fun _ -> 6) };
        { prefix = "m"; terms = 16; count = (fun i -> 16 + (8 * (i mod 4))) } ]
  | Doc_query, Toy ->
      [ { prefix = "s"; terms = 8; count = (fun _ -> 2) };
        { prefix = "m"; terms = 4; count = (fun _ -> 4) } ]
  | (Corpus_query | Corpus_churn), _ ->
      let n = match scale with Full -> 1 | Toy -> 4 in
      [ { prefix = "c"; terms = 24 / n; count = pct ~scale 70 };
        { prefix = "m"; terms = 48 / n; count = pct ~scale 25 };
        { prefix = "s"; terms = 64 / n; count = pct ~scale 5 } ]

let group_term g i = Printf.sprintf "%s%03d" g.prefix i

(* [k] distinct indices below [n]. *)
let choose st n k =
  let a = Array.init n Fun.id in
  for i = 0 to min k n - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k n))

type doc = {
  xml : string;
  nodes : int;
  node_terms : (string, int) Hashtbl.t;  (* term -> nodes containing it *)
}

(* A document of background text, with each [(term, k)] of [plant]
   added to [k] distinct leaves.  With [fixed_sections], the sections
   holding a term's occurrences are the same for every seed (only the
   leaf within the section is seeded), so the tree distance between
   query terms — which drives join and fixed-point work — does not
   vary with the seed. *)
let generate_doc ?(fixed_sections = false) shape st ~plant =
  let words n = List.init n (fun _ -> term (sample word_cdf st)) in
  let title () = ("title", words (3 + Random.State.int st 3)) in
  let sections =
    List.init shape.sections (fun _ ->
        title () :: List.init (jitter st shape.paras) (fun _ -> ("par", words (jitter st shape.words))))
  in
  let leaves = Array.of_list (title () :: List.concat sections) in
  let first_leaf =
    (* index of each section's first leaf (its title) *)
    let acc = ref 1 in
    Array.of_list (List.map (fun sec -> let i = !acc in acc := i + List.length sec; i) sections)
  in
  let sizes = Array.of_list (List.map List.length sections) in
  List.iter
    (fun (t, k) ->
      let targets =
        if fixed_sections then
          List.map
            (fun sec -> first_leaf.(sec) + Random.State.int st sizes.(sec))
            (choose (Random.State.make [| 7919; Hashtbl.hash t |]) shape.sections k)
        else choose st (Array.length leaves) k
      in
      List.iter
        (fun i ->
          let label, ws = leaves.(i) in
          leaves.(i) <- (label, ws @ [ t ]))
        targets)
    plant;
  let buf = Buffer.create 8192 in
  let node_terms = Hashtbl.create 512 in
  let next = ref 0 in
  let leaf () =
    let label, ws = leaves.(!next) in
    incr next;
    List.iter
      (fun w -> Hashtbl.replace node_terms w (1 + Option.value ~default:0 (Hashtbl.find_opt node_terms w)))
      (List.sort_uniq String.compare ws);
    Printf.bprintf buf "<%s>%s</%s>\n" label (String.concat " " ws) label
  in
  Buffer.add_string buf "<article>\n";
  leaf ();
  List.iter
    (fun sec ->
      Buffer.add_string buf "<section>\n";
      List.iter (fun _ -> leaf ()) sec;
      Buffer.add_string buf "</section>\n")
    sections;
  Buffer.add_string buf "</article>\n";
  { xml = Buffer.contents buf; nodes = 1 + shape.sections + Array.length leaves; node_terms }

let doc_name i = Printf.sprintf "d%03d.xml" i

(* The planted terms of document [i]: for doc-query every term, in its
   count of nodes; for the corpus each term is assigned to its count of
   documents, the same ones for every seed (so the documents a query
   routes to are fixed too), and planted once in each. *)
let planted ~workload ~scale =
  let gs = groups ~workload ~scale in
  match workload with
  | Doc_query ->
      let all = List.concat_map (fun g -> List.init g.terms (fun i -> (group_term g i, g.count i))) gs in
      fun _ -> all
  | Corpus_query | Corpus_churn ->
      let n = corpus_docs scale in
      let per_doc = Array.make n [] in
      List.iter
        (fun g ->
          for i = 0 to g.terms - 1 do
            let t = group_term g i in
            let st = Random.State.make [| 7919; 505; Hashtbl.hash t |] in
            List.iter (fun d -> per_doc.(d) <- (t, 1) :: per_doc.(d)) (choose st n (g.count i))
          done)
        gs;
      fun i -> if i < n then List.rev per_doc.(i) else []

let shape ~workload ~scale =
  match workload with Doc_query -> doc_shape scale | _ -> corpus_shape scale

(* Names of the workload's collection. *)
let doc_names ~workload ~scale =
  List.init (match workload with Doc_query -> 1 | _ -> corpus_docs scale) doc_name

(* Initial documents: index i of the workload's collection. *)
let initial_docs ~workload ~scale ~seed =
  let plant = planted ~workload ~scale in
  List.mapi (fun i name ->
      let st = Random.State.make [| seed; 101; i |] in
      (name, generate_doc ~fixed_sections:(workload = Doc_query) (shape ~workload ~scale) st ~plant:(plant i)))
    (doc_names ~workload ~scale)

(* Version [version] of a corpus document, as corpus-churn writes it: new
   text, the same planted terms (so document frequencies hold).  Names
   outside the collection (the write probe's) get none. *)
let version_doc ~scale ~seed ~name ~version =
  let plant = planted ~workload:Corpus_churn ~scale in
  let index = match Scanf.sscanf_opt name "d%03d.xml%!" Fun.id with Some i -> i | None -> max_int in
  let st = Random.State.make [| seed; 202; Hashtbl.hash name; version |] in
  generate_doc (corpus_shape scale) st ~plant:(plant index)

(* --- query pool --- *)

type query = { body : string; weight : float }

(* Every query carries a fragment-size filter: unfiltered fixed points
   over a generated document grow combinatorially. *)
let body_of ~workload keywords =
  let ks = String.concat "," (List.map (Printf.sprintf "%S") keywords) in
  match workload with
  | Doc_query -> Printf.sprintf {|{"keywords":[%s],"filters":{"max_size":4}}|} ks
  | Corpus_query | Corpus_churn ->
      Printf.sprintf {|{"keywords":[%s],"filters":{"max_size":4},"limit":10}|} ks

let pool_size = function Full -> 128 | Toy -> 12

let pick st arr = arr.(Random.State.int st (Array.length arr))

(* The pool is a fixed template of query classes over the planted
   groups, the same for every seed; each class has a fixed share of the
   pool and of the request mix.  Within a class, popularity is Zipf(1)
   over its queries, so queries repeat and a cache can hit.
   doc-query: 2-3 keywords from selective to mid-frequency terms, every
   class with the same share, so none is favoured.
   corpus: conjunctive pairs of a selective and a common term (routing
   excludes most documents), of mid terms, and of common terms (routing
   excludes few).  A common pair costs about ten times as much as the
   others; at an equal third it would put the read median on the knee
   between the cheap classes and it, so it gets 15% and the other two
   share the rest equally. *)
let classes = function
  | Doc_query -> [ (0.25, [ 0; 0 ]); (0.25, [ 0; 1 ]); (0.25, [ 0; 0; 1 ]); (0.25, [ 0; 1; 1 ]) ]
  | Corpus_query | Corpus_churn -> [ (0.15, [ 0; 0 ]); (0.425, [ 2; 0 ]); (0.425, [ 1; 1 ]) ]

let query_pool ~workload ~scale =
  let gs = Array.of_list (groups ~workload ~scale) in
  let n = pool_size scale in
  let st = Random.State.make [| 7919 |] in
  let seen = Hashtbl.create n in
  List.concat_map
    (fun (share, members) ->
      let k = max 1 (int_of_float (Float.round (share *. float_of_int n))) in
      let out = ref [] and tries = ref 0 in
      while List.length !out < k && !tries < 100 * k do
        incr tries;
        let ks =
          List.map (fun g -> group_term gs.(g) (Random.State.int st gs.(g).terms)) members
          |> List.sort_uniq String.compare
        in
        if List.length ks = List.length members && not (Hashtbl.mem seen ks) then begin
          Hashtbl.replace seen ks ();
          out := ks :: !out
        end
      done;
      let qs = List.rev !out in
      let h = List.fold_left ( +. ) 0. (List.mapi (fun j _ -> 1. /. float_of_int (j + 1)) qs) in
      List.mapi
        (fun j keywords ->
          { body = body_of ~workload keywords; weight = share /. h /. float_of_int (j + 1) })
        qs)
    (classes workload)
  |> Array.of_list

(* --- operation sequences --- *)

type op =
  | Read of int  (* index into the query pool *)
  | Put of string * int  (* document name, version *)
  | Delete of string

(* Share of corpus-churn requests that are writes: 5%, the write share
   of the repo's own mixed read/write measurement (bench m1).  A write
   event is a PUT replacing the document with a new version, or (with
   even odds) a DELETE followed by a PUT, so it is 1.5 requests on
   average, and the share of events that are writes is set to give 5% of
   requests. *)
let write_request_share = 0.05

let write_share = write_request_share /. (1.5 -. (0.5 *. write_request_share))

(* Documents client [c] of [clients] owns: it is the only writer of
   their names, so the final corpus is a function of each client's own
   sequence. *)
let owned ~clients ~c names =
  List.filteri (fun i _ -> i mod clients = c) names |> Array.of_list

(* An infinite, seeded stream of events for client [c]: [next ()] yields
   one read, or one write event (a PUT, or a DELETE then a PUT, of a
   document the client owns). *)
let op_stream ~workload ~seed ~clients ~c ~pool ~names =
  let st = Random.State.make [| seed; 404; c |] in
  let cdf =
    let acc = ref 0. in
    Array.map (fun q -> acc := !acc +. q.weight; !acc) pool
  in
  let mine = owned ~clients ~c names in
  let versions = Hashtbl.create 16 in
  fun () ->
    if workload = Corpus_churn && Array.length mine > 0
       && Random.State.float st 1. < write_share
    then begin
      let name = pick st mine in
      let v = 1 + Option.value ~default:0 (Hashtbl.find_opt versions name) in
      Hashtbl.replace versions name v;
      if Random.State.bool st then [ Delete name; Put (name, v) ]
      else [ Put (name, v) ]
    end
    else [ Read (sample cdf st) ]

(* The write probe of the read-only workloads: [probe_names] fresh
   names, dealt out to the clients in turn, each created, replaced and
   deleted by its client — the same 2:1 PUT:DELETE mix as corpus-churn,
   leaving the collection as it was.  It can run in [parts] parts, part
   [p] taking every [parts]th of each client's names (see run.py for
   when each runs). *)
let probe_names ~workload ~scale =
  match (workload, scale) with
  | _, Toy -> 8
  | Doc_query, Full -> 200
  | _, Full -> 150

let probe_events ?part ~workload ~scale ~clients ~c () =
  List.init (probe_names ~workload ~scale) Fun.id
  |> List.filter (fun j ->
         j mod clients = c && match part with Some (p, parts) -> j / clients mod parts = p | None -> true)
  |> List.map (fun j ->
         let name = Printf.sprintf "probe-%03d.xml" j in
         [ Put (name, 1); Put (name, 2); Delete name ])

(* --- the wire form of an operation --- *)

let http_request ~meth ~path body =
  let ctype =
    match meth with
    | "POST" -> "Content-Type: application/json\r\n"
    | "PUT" -> "Content-Type: application/xml\r\n"
    | _ -> ""
  in
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n%sContent-Length: %d\r\n\r\n%s"
    meth path ctype (String.length body) body

let read_path = function
  | Doc_query -> "/query"
  | Corpus_query | Corpus_churn -> "/corpus/query"

let op_request ~workload ~scale ~seed ~pool = function
  | Read i -> http_request ~meth:"POST" ~path:(read_path workload) pool.(i).body
  | Put (name, version) ->
      http_request ~meth:"PUT" ~path:("/corpus/docs/" ^ name)
        (version_doc ~scale ~seed ~name ~version).xml
  | Delete name -> http_request ~meth:"DELETE" ~path:("/corpus/docs/" ^ name) ""

(* Input sizes, for provenance. *)
let sizes docs pool =
  let vocab = Hashtbl.create 4096 in
  List.iter
    (fun (_, d) -> Hashtbl.iter (fun w _ -> Hashtbl.replace vocab w ()) d.node_terms)
    docs;
  [
    ("documents", List.length docs);
    ("nodes", List.fold_left (fun a (_, d) -> a + d.nodes) 0 docs);
    ("vocabulary", Hashtbl.length vocab);
    ("query_pool", Array.length pool);
  ]

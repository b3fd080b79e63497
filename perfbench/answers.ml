(* Reference answers computed in-process, and the same shape read back
   from an HTTP answer, so the two can be compared structurally: the
   fields a user relies on (count, and each answer's document, score,
   root, label and nodes), not timings, ids or statistics. *)

module Json = Xfrag_obs.Json
module Exec = Xfrag_core.Exec
module Eval = Xfrag_core.Eval
module Corpus = Xfrag_core.Corpus
module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Shard_pool = Xfrag_core.Shard_pool
module Ranking = Xfrag_baselines.Ranking

type fragment = { root : int; label : string; nodes : int list }

type t = {
  count : int;
  hits : (string * float * fragment) list;
      (* document (always "" for /query) and score (0 for /query) *)
}

let fragment ctx f =
  let root = Fragment.root f in
  {
    root;
    label = Xfrag_doctree.Doctree.label ctx.Context.tree root;
    nodes = Xfrag_util.Int_sorted.to_list (Fragment.nodes f);
  }

let request body =
  match Exec.Request.of_body body with
  | Ok r -> r
  | Error msg -> failwith ("bad benchmark request body: " ^ msg)

(* POST /query: the full answer count, and the answers up to the
   request's limit in fragment order. *)
let of_eval ctx r =
  let answers = Frag_set.elements (Eval.exec ctx r).Eval.answers in
  let count = List.length answers in
  let shown =
    match r.Exec.Request.limit with
    | Some n -> List.filteri (fun i _ -> i < n) answers
    | None -> answers
  in
  { count; hits = List.map (fun f -> ("", 0., fragment ctx f)) shown }

(* The scorer and score bound POST /corpus/query uses. *)
let scoring corpus r =
  let keywords = (Exec.Request.to_query r).Xfrag_core.Query.keywords in
  ( (fun ctx f -> Ranking.score ctx ~keywords f),
    Corpus.score_bound corpus ~keywords )

let sequential = lazy (Shard_pool.create ~domains:0 ())

(* POST /corpus/query: ranked hits are identical for any shard count, so
   the reference runs on one shard in the calling domain. *)
let of_corpus corpus r =
  let scorer, bound = scoring corpus r in
  let o =
    Corpus.run ~pool:(Lazy.force sequential) ~shards:1 ?bound ~scorer corpus r
  in
  {
    count = List.length o.Corpus.hits;
    hits =
      List.map
        (fun ((h : Corpus.hit), score) ->
          ( h.Corpus.doc,
            score,
            fragment (Corpus.context corpus h.Corpus.doc) h.Corpus.fragment ))
        o.Corpus.hits;
  }

let member k j = match Json.member k j with Some v -> v | None -> Json.Null

let int = function
  | Json.Int i -> i
  | Json.Float f when Float.is_integer f -> int_of_float f
  | _ -> failwith "expected an integer"

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "expected a number"

let str = function Json.String s -> s | _ -> failwith "expected a string"

let list = function Json.List l -> l | _ -> failwith "expected a list"

let fragment_of_json j =
  {
    root = int (member "root" j);
    label = str (member "label" j);
    nodes = List.map int (list (member "nodes" j));
  }

(* Parse an HTTP answer body into the comparable shape; [Error] when it
   is not a well-formed answer at all. *)
let of_body ~corpus body =
  match Json.of_string body with
  | Error msg -> Error ("unparsable answer: " ^ msg)
  | Ok j -> (
      try
        let count = int (member "count" j) in
        let hits =
          if corpus then
            List.map
              (fun h ->
                (str (member "doc" h), num (member "score" h), fragment_of_json h))
              (list (member "hits" j))
          else
            List.map
              (fun a -> ("", 0., fragment_of_json a))
              (list (member "answers" j))
        in
        Ok ({ count; hits }, j)
      with Failure msg -> Error ("malformed answer: " ^ msg))

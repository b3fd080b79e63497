module Int_sorted = Xfrag_util.Int_sorted
module Doctree = Xfrag_doctree.Doctree
module Inverted_index = Xfrag_doctree.Inverted_index

type t = Int_sorted.t
(* Invariant: non-empty, strictly increasing, connected in the document
   tree.  With pre-order ids the first element is the fragment root. *)

let nodes f = f

let root f = f.(0)

let size = Array.length

let singleton n = Int_sorted.singleton n

let is_connected (ctx : Context.t) set =
  not (Int_sorted.is_empty set)
  && Int_sorted.for_all (fun n -> n >= 0 && n < Doctree.size ctx.tree) set
  &&
  let r = Int_sorted.min_elt set in
  Int_sorted.for_all
    (fun n -> n = r || Int_sorted.mem (Doctree.parent_exn ctx.tree n) set)
    set

let of_sorted ctx set =
  if not (is_connected ctx set) then
    invalid_arg "Fragment.of_sorted: node set does not induce a connected subtree";
  set

let of_nodes ctx ns = of_sorted ctx (Int_sorted.of_list ns)

let of_sorted_unchecked set = set

let mem n f = Int_sorted.mem n f

let subfragment f f' = Int_sorted.subset f f'

let equal = Int_sorted.equal

let compare = Int_sorted.compare

let hash = Int_sorted.hash

let height (ctx : Context.t) f =
  let rd = Doctree.depth ctx.tree (root f) in
  Int_sorted.fold (fun acc n -> max acc (Doctree.depth ctx.tree n - rd)) 0 f

let span f = Int_sorted.max_elt f - Int_sorted.min_elt f

let width (ctx : Context.t) f =
  let lo = ref max_int and hi = ref (-1) in
  Int_sorted.iter
    (fun n ->
      let l, h = Doctree.leaf_interval ctx.tree n in
      if l < !lo then lo := l;
      if h > !hi then hi := h)
    f;
  !hi - !lo

let leaves (ctx : Context.t) f =
  (* A member is a fragment leaf iff none of its document children is a
     member.  Membership of children: a child c has parent n, so scan f
     and mark parents as internal. *)
  let internal = Hashtbl.create (size f) in
  Int_sorted.iter
    (fun n ->
      if n <> root f then Hashtbl.replace internal (Doctree.parent_exn ctx.tree n) ())
    f;
  Int_sorted.fold (fun acc n -> if Hashtbl.mem internal n then acc else n :: acc) [] f
  |> List.rev

let depth_of (ctx : Context.t) f n =
  if not (mem n f) then invalid_arg "Fragment.depth_of: node is not a member";
  Doctree.depth ctx.tree n - Doctree.depth ctx.tree (root f)

let contains_keyword (ctx : Context.t) f keyword =
  Int_sorted.exists (fun n -> Inverted_index.node_contains ctx.index n keyword) f

let to_xml (ctx : Context.t) f =
  let module Dom = Xfrag_xml.Xml_dom in
  let rec build n =
    let kids =
      Doctree.children ctx.tree n
      |> List.filter (fun c -> mem c f)
      |> List.map build
    in
    let text = Doctree.text ctx.tree n in
    let content = if String.trim text = "" then kids else Dom.text text :: kids in
    Dom.element (Doctree.label ctx.tree n) content
  in
  build (root f)

module Interner = struct
  type fragment = t

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = Int_sorted.equal

    let hash = Int_sorted.hash
  end)

  type interner = { tbl : int Tbl.t; mutable next : int }

  type t = interner

  (* Small start, grown on demand: one interner lives in each join-cache
     partition, and most partitions hold few fragments. *)
  let create () = { tbl = Tbl.create 16; next = 0 }

  let intern t f =
    match Tbl.find_opt t.tbl f with
    | Some id -> id
    | None ->
        let id = t.next in
        t.next <- id + 1;
        Tbl.replace t.tbl f id;
        id

  let find t f = Tbl.find_opt t.tbl f

  let size t = t.next

  let clear t =
    Tbl.reset t.tbl;
    t.next <- 0
end

let pp = Int_sorted.pp

let pp_labeled ctx ppf f =
  Format.fprintf ppf "@[<h>\xE2\x9F\xA8";
  Array.iteri
    (fun i n ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%a" (Doctree.pp_node ctx.Context.tree) n)
    f;
  Format.fprintf ppf "\xE2\x9F\xA9@]"

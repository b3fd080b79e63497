module Doctree = Xfrag_doctree.Doctree
module Inverted_index = Xfrag_doctree.Inverted_index

type t =
  | True
  | Size_at_most of int
  | Size_at_least of int
  | Height_at_most of int
  | Span_at_most of int
  | Diameter_at_most of int
  | Width_at_most of int
  | Depth_under of int
  | Labels_among of string list
  | Contains_keyword of string
  | Root_label_is of string
  | Equal_depth of string * string
  | Not of t
  | And of t * t
  | Or of t * t

let rec evaluate (ctx : Context.t) p f =
  match p with
  | True -> true
  | Size_at_most beta -> Fragment.size f <= beta
  | Size_at_least beta -> Fragment.size f >= beta
  | Height_at_most h -> Fragment.height ctx f <= h
  | Span_at_most w -> Fragment.span f <= w
  | Diameter_at_most d ->
      (* Fragments are small; the quadratic pairwise scan with O(1) LCA
         distances is fine.  The diameter of a connected subtree is
         realised between two fragment leaves (or a leaf and the root). *)
      let nodes = Xfrag_util.Int_sorted.to_list (Fragment.nodes f) in
      let ok = ref true in
      let rec scan = function
        | [] -> ()
        | n :: rest ->
            List.iter
              (fun m ->
                if Xfrag_doctree.Lca.distance ctx.lca n m > d then ok := false)
              rest;
            if !ok then scan rest
      in
      scan nodes;
      !ok
  | Width_at_most w -> Fragment.width ctx f <= w
  | Depth_under d ->
      Xfrag_util.Int_sorted.for_all (fun n -> Doctree.depth ctx.tree n <= d) (Fragment.nodes f)
  | Labels_among labels ->
      Xfrag_util.Int_sorted.for_all
        (fun n -> List.mem (Doctree.label ctx.tree n) labels)
        (Fragment.nodes f)
  | Contains_keyword k -> Fragment.contains_keyword ctx f k
  | Root_label_is l -> String.equal (Doctree.label ctx.tree (Fragment.root f)) l
  | Equal_depth (k1, k2) ->
      (* Member nodes containing each keyword must exist, and all of them
         must sit at one common depth relative to the fragment root. *)
      let depths k =
        Xfrag_util.Int_sorted.fold
          (fun acc n ->
            if Inverted_index.node_contains ctx.index n k then
              Fragment.depth_of ctx f n :: acc
            else acc)
          [] (Fragment.nodes f)
      in
      (match (depths k1, depths k2) with
      | [], _ | _, [] -> false
      | d1s, d2s ->
          let all = d1s @ d2s in
          List.for_all (fun d -> d = List.hd all) all)
  | Not p -> not (evaluate ctx p f)
  | And (p1, p2) -> evaluate ctx p1 f && evaluate ctx p2 f
  | Or (p1, p2) -> evaluate ctx p1 f || evaluate ctx p2 f

(* Terms [may_join] can bound from the operands alone; a filter without
   one skips the LCA query altogether. *)
let rec bounds_join = function
  | Size_at_most _ | Span_at_most _ | Height_at_most _ -> true
  | And (p1, p2) | Or (p1, p2) -> bounds_join p1 || bounds_join p2
  | _ -> false

(* The join is f1 ∪ f2 ∪ path(r1, r2) and its root is l = lca(r1, r2),
   the smallest pre-order id in it.  See the interface for the bounds. *)
let may_join (ctx : Context.t) p =
  if not (bounds_join p) then fun _ _ -> true
  else fun f1 f2 ->
    let r1 = Fragment.root f1 and r2 = Fragment.root f2 in
    let l = Xfrag_doctree.Lca.lca ctx.lca r1 r2 in
    let d1 = Doctree.depth ctx.tree r1 and d2 = Doctree.depth ctx.tree r2 in
    let dl = Doctree.depth ctx.tree l in
    let rec go = function
      | Size_at_most beta ->
          let s1 = Fragment.size f1 and s2 = Fragment.size f2 in
          let least =
            if l = r1 then max s1 (s2 + d2 - d1)
            else if l = r2 then max s2 (s1 + d1 - d2)
            else s1 + s2 + d1 + d2 - (2 * dl) - 1
          in
          least <= beta
      | Span_at_most w ->
          let last f = Xfrag_util.Int_sorted.max_elt (Fragment.nodes f) in
          max (last f1) (last f2) - l <= w
      | Height_at_most h -> max d1 d2 - dl <= h
      | And (p1, p2) -> go p1 && go p2
      | Or (p1, p2) -> go p1 || go p2
      | _ -> true
    in
    go p

let rec is_anti_monotonic = function
  | True | Size_at_most _ | Height_at_most _ | Span_at_most _ | Diameter_at_most _
  | Width_at_most _ | Depth_under _ | Labels_among _ ->
      true
  | Size_at_least _ | Contains_keyword _ | Root_label_is _ | Equal_depth _ | Not _ ->
      false
  | And (p1, p2) | Or (p1, p2) -> is_anti_monotonic p1 && is_anti_monotonic p2

let rec conjuncts = function
  | And (p1, p2) -> conjuncts p1 @ conjuncts p2
  | True -> []
  | p -> [ p ]

let conjoin = function
  | [] -> True
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest

let decompose p =
  let am, residual = List.partition is_anti_monotonic (conjuncts p) in
  (conjoin am, conjoin residual)

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | Size_at_most b -> Format.fprintf ppf "size<=%d" b
  | Size_at_least b -> Format.fprintf ppf "size>=%d" b
  | Height_at_most h -> Format.fprintf ppf "height<=%d" h
  | Span_at_most w -> Format.fprintf ppf "span<=%d" w
  | Diameter_at_most d -> Format.fprintf ppf "diameter<=%d" d
  | Width_at_most w -> Format.fprintf ppf "width<=%d" w
  | Depth_under d -> Format.fprintf ppf "depth<=%d" d
  | Labels_among ls -> Format.fprintf ppf "labels=%s" (String.concat "|" ls)
  | Contains_keyword k -> Format.fprintf ppf "keyword=%s" k
  | Root_label_is l -> Format.fprintf ppf "rootlabel=%s" l
  | Equal_depth (k1, k2) -> Format.fprintf ppf "eqdepth=%s/%s" k1 k2
  | Not p -> Format.fprintf ppf "not:(%a)" pp p
  | And (p1, p2) -> Format.fprintf ppf "(%a \xE2\x88\xA7 %a)" pp p1 pp p2
  | Or (p1, p2) -> Format.fprintf ppf "(%a \xE2\x88\xA8 %a)" pp p1 pp p2

let to_string p = Format.asprintf "%a" pp p

let parse_term term =
  let fail () = Error (Printf.sprintf "cannot parse filter term %S" term) in
  let int_suffix prefix k =
    let n = String.length prefix in
    if String.length term > n && String.sub term 0 n = prefix then
      match int_of_string_opt (String.sub term n (String.length term - n)) with
      | Some v -> Some (k v)
      | None -> None
    else None
  in
  let str_suffix prefix k =
    let n = String.length prefix in
    if String.length term > n && String.sub term 0 n = prefix then
      Some (k (String.sub term n (String.length term - n)))
    else None
  in
  if term = "true" then Ok True
  else if String.length term > 8 && String.sub term 0 8 = "eqdepth=" then begin
    let body = String.sub term 8 (String.length term - 8) in
    match String.split_on_char '/' body with
    | [ k1; k2 ] when k1 <> "" && k2 <> "" -> Ok (Equal_depth (k1, k2))
    | _ -> Error (Printf.sprintf "eqdepth expects two '/'-separated keywords in %S" term)
  end
  else
    let candidates =
      [
        int_suffix "size<=" (fun v -> Size_at_most v);
        int_suffix "size>=" (fun v -> Size_at_least v);
        int_suffix "height<=" (fun v -> Height_at_most v);
        int_suffix "span<=" (fun v -> Span_at_most v);
        int_suffix "diameter<=" (fun v -> Diameter_at_most v);
        int_suffix "width<=" (fun v -> Width_at_most v);
        int_suffix "depth<=" (fun v -> Depth_under v);
        str_suffix "rootlabel=" (fun s -> Root_label_is s);
        str_suffix "labels=" (fun s -> Labels_among (String.split_on_char '|' s));
        str_suffix "keyword=" (fun s -> Contains_keyword s);
      ]
    in
    match List.find_opt Option.is_some candidates with
    | Some (Some p) -> Ok p
    | Some None | None -> fail ()

let of_string s =
  let terms =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  if terms = [] then Ok True
  else
    let rec go acc = function
      | [] -> Ok (conjoin (List.rev acc))
      | term :: rest ->
          let negated = String.length term > 4 && String.sub term 0 4 = "not:" in
          let body = if negated then String.sub term 4 (String.length term - 4) else term in
          (match parse_term body with
          | Ok p -> go ((if negated then Not p else p) :: acc) rest
          | Error e -> Error e)
    in
    go [] terms

type fixpoint = Naive | Semi_naive | Reduced | Reduced_unchecked of t option

and t =
  | Scan_keyword of string
  | Select of Filter.t * t
  | Strict_leaf of string list * t
  | Join of Filter.t * t list
  | Power_join of t list
  | Fixed_point of fixpoint * Filter.t * t
  | Reduce of t

let initial (q : Query.t) =
  Select (q.filter, Power_join (List.map (fun k -> Scan_keyword k) q.keywords))

let children = function
  | Scan_keyword _ -> []
  | Select (_, x) | Strict_leaf (_, x) | Reduce x -> [ x ]
  | Fixed_point (Reduced_unchecked (Some r), _, x) -> [ x; r ]
  | Fixed_point (_, _, x) -> [ x ]
  | Join (_, xs) | Power_join xs -> xs

let rec operator_count p = List.fold_left (fun n c -> n + operator_count c) 1 (children p)

let filter_str p = Format.asprintf "%a" Filter.pp p

let pruned = function
  | Filter.True -> ""
  | p -> Printf.sprintf " [prune %s]" (filter_str p)

let label = function
  | Scan_keyword k -> "scan " ^ k
  | Select (p, _) -> "\xCF\x83 " ^ filter_str p
  | Strict_leaf (ks, _) -> Printf.sprintf "strict-leaf {%s}" (String.concat ", " ks)
  | Join (p, _) -> "\xE2\x8B\x88" ^ pruned p
  | Power_join _ -> "\xE2\x8B\x88*"
  | Fixed_point (Naive, p, _) -> "fixed-point" ^ pruned p
  | Fixed_point (Semi_naive, p, _) -> "fixed-point:semi-naive" ^ pruned p
  | Fixed_point (Reduced, p, _) -> "fixed-point [rounds=|\xE2\x8A\x96|]" ^ pruned p
  | Fixed_point (Reduced_unchecked _, p, _) ->
      "fixed-point [rounds=|\xE2\x8A\x96|, unchecked]" ^ pruned p
  | Reduce _ -> "reduce \xE2\x8A\x96"

let rec pp ppf = function
  | Scan_keyword k -> Format.fprintf ppf "F(%s)" k
  | Select (p, x) -> Format.fprintf ppf "\xCF\x83_{%a}(%a)" Filter.pp p pp x
  | Strict_leaf (_, x) -> Format.fprintf ppf "\xCF\x83_{leaf}(%a)" pp x
  | Join (p, xs) ->
      let op =
        match p with
        | Filter.True -> " \xE2\x8B\x88 "
        | p -> Format.asprintf " \xE2\x8B\x88[%a] " Filter.pp p
      in
      pp_list op ppf xs
  | Power_join xs -> pp_list " \xE2\x8B\x88* " ppf xs
  | Fixed_point (algo, p, x) ->
      let mark =
        match algo with
        | Naive -> ""
        | Semi_naive -> "\xCE\x94"
        | Reduced | Reduced_unchecked _ -> "\xCA\xB3"
      in
      Format.fprintf ppf "%a\xE2\x81\xBA%s" pp x mark;
      if p <> Filter.True then Format.fprintf ppf "[%a]" Filter.pp p
  | Reduce x -> Format.fprintf ppf "\xE2\x8A\x96(%a)" pp x

and pp_list op ppf xs =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf op) pp)
    xs

let pp_tree ppf plan =
  let rec go indent node =
    Format.fprintf ppf "%s%s@," (String.make indent ' ') (label node);
    List.iter (go (indent + 2)) (children node)
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"

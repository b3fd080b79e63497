type t =
  | Scan_keyword of string
  | Select of Filter.t * t
  | Pair_join of t * t
  | Pair_join_filtered of Filter.t * t * t
  | Power_join of t * t
  | Fixed_point of t
  | Fixed_point_reduced of t
  | Fixed_point_filtered of Filter.t * t

let initial (q : Query.t) =
  match List.map (fun k -> Scan_keyword k) q.keywords with
  | [] -> invalid_arg "Plan.initial: query has no keywords"
  | scan :: rest -> Select (q.filter, List.fold_left (fun acc s -> Power_join (acc, s)) scan rest)

let rec eval ?stats ?trace ctx = function
  | Scan_keyword k -> Selection.keyword ?trace ctx k
  | Select (p, x) -> Selection.select ?stats ?trace ctx p (eval ?stats ?trace ctx x)
  | Pair_join (a, b) ->
      Join.pairwise ?stats ?trace ctx (eval ?stats ?trace ctx a) (eval ?stats ?trace ctx b)
  | Pair_join_filtered (p, a, b) ->
      Join.pairwise_filtered ?stats ?trace ctx
        ~prune:p
        (eval ?stats ?trace ctx a) (eval ?stats ?trace ctx b)
  | Power_join (a, b) ->
      Powerset.via_fixed_points ?stats ?trace ctx (eval ?stats ?trace ctx a)
        (eval ?stats ?trace ctx b)
  | Fixed_point x -> Fixed_point.naive ?stats ?trace ctx (eval ?stats ?trace ctx x)
  | Fixed_point_reduced x ->
      Fixed_point.with_reduction ?stats ?trace ctx (eval ?stats ?trace ctx x)
  | Fixed_point_filtered (p, x) ->
      Fixed_point.naive_filtered ?stats ?trace ctx
        ~prune:p
        (eval ?stats ?trace ctx x)

let rec equal a b =
  match (a, b) with
  | Scan_keyword k, Scan_keyword k' -> String.equal k k'
  | Select (p, x), Select (p', x') -> p = p' && equal x x'
  | Pair_join (x, y), Pair_join (x', y') -> equal x x' && equal y y'
  | Pair_join_filtered (p, x, y), Pair_join_filtered (p', x', y') ->
      p = p' && equal x x' && equal y y'
  | Power_join (x, y), Power_join (x', y') -> equal x x' && equal y y'
  | Fixed_point x, Fixed_point x' -> equal x x'
  | Fixed_point_reduced x, Fixed_point_reduced x' -> equal x x'
  | Fixed_point_filtered (p, x), Fixed_point_filtered (p', x') -> p = p' && equal x x'
  | ( ( Scan_keyword _ | Select _ | Pair_join _ | Pair_join_filtered _ | Power_join _
      | Fixed_point _ | Fixed_point_reduced _ | Fixed_point_filtered _ ),
      _ ) ->
      false

let rec operator_count = function
  | Scan_keyword _ -> 1
  | Select (_, x) | Fixed_point x | Fixed_point_reduced x | Fixed_point_filtered (_, x) ->
      1 + operator_count x
  | Pair_join (a, b) | Power_join (a, b) -> 1 + operator_count a + operator_count b
  | Pair_join_filtered (_, a, b) -> 1 + operator_count a + operator_count b

let rec pp ppf = function
  | Scan_keyword k -> Format.fprintf ppf "F(%s)" k
  | Select (p, x) -> Format.fprintf ppf "\xCF\x83_{%a}(%a)" Filter.pp p pp x
  | Pair_join (a, b) -> Format.fprintf ppf "(%a \xE2\x8B\x88 %a)" pp a pp b
  | Pair_join_filtered (p, a, b) ->
      Format.fprintf ppf "(%a \xE2\x8B\x88[%a] %a)" pp a Filter.pp p pp b
  | Power_join (a, b) -> Format.fprintf ppf "(%a \xE2\x8B\x88* %a)" pp a pp b
  | Fixed_point x -> Format.fprintf ppf "%a\xE2\x81\xBA" pp x
  | Fixed_point_reduced x -> Format.fprintf ppf "%a\xE2\x81\xBA\xCA\xB3" pp x
  | Fixed_point_filtered (p, x) -> Format.fprintf ppf "%a\xE2\x81\xBA[%a]" pp x Filter.pp p

let pp_tree ppf plan =
  let rec go indent node =
    let pad = String.make indent ' ' in
    match node with
    | Scan_keyword k -> Format.fprintf ppf "%sscan keyword=%s@," pad k
    | Select (p, x) ->
        Format.fprintf ppf "%s\xCF\x83 %a@," pad Filter.pp p;
        go (indent + 2) x
    | Pair_join (a, b) ->
        Format.fprintf ppf "%s\xE2\x8B\x88@," pad;
        go (indent + 2) a;
        go (indent + 2) b
    | Pair_join_filtered (p, a, b) ->
        Format.fprintf ppf "%s\xE2\x8B\x88 [prune %a]@," pad Filter.pp p;
        go (indent + 2) a;
        go (indent + 2) b
    | Power_join (a, b) ->
        Format.fprintf ppf "%s\xE2\x8B\x88*@," pad;
        go (indent + 2) a;
        go (indent + 2) b
    | Fixed_point x ->
        Format.fprintf ppf "%sfixed-point@," pad;
        go (indent + 2) x
    | Fixed_point_reduced x ->
        Format.fprintf ppf "%sfixed-point [rounds = |\xE2\x8A\x96|]@," pad;
        go (indent + 2) x
    | Fixed_point_filtered (p, x) ->
        Format.fprintf ppf "%sfixed-point [prune %a]@," pad Filter.pp p;
        go (indent + 2) x
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"

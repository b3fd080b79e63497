open Plan

(* Rebuild [plan] with [f] applied to each direct input. *)
let map_children f = function
  | Scan_keyword _ as p -> p
  | Select (p, x) -> Select (p, f x)
  | Strict_leaf (ks, x) -> Strict_leaf (ks, f x)
  | Join (p, xs) -> Join (p, List.map f xs)
  | Power_join xs -> Power_join (List.map f xs)
  | Fixed_point (Reduced_unchecked r, p, x) ->
      Fixed_point (Reduced_unchecked (Option.map f r), p, f x)
  | Fixed_point (algo, p, x) -> Fixed_point (algo, p, f x)
  | Reduce x -> Reduce (f x)

let rec power_to_fixpoint = function
  | Power_join xs ->
      Join
        ( Filter.True,
          List.map (fun x -> Fixed_point (Naive, Filter.True, power_to_fixpoint x)) xs )
  | p -> map_children power_to_fixpoint p

let rec use_reduction = function
  | Fixed_point ((Naive | Semi_naive | Reduced), Filter.True, x) ->
      Fixed_point (Reduced, Filter.True, use_reduction x)
  | p -> map_children use_reduction p

let conj p am = if p = Filter.True then am else Filter.And (p, am)

(* Push an anti-monotonic filter [am] into a subplan: prune at every
   join, inside fixed-point rounds, and at the scans. *)
let rec push am plan =
  match plan with
  | Scan_keyword _ -> Select (am, plan)
  | Join (p, xs) -> Join (conj p am, List.map (push am) xs)
  | Power_join _ ->
      (* Power joins must become fixed points before pruning can reach
         inside; convert on the fly. *)
      push am (power_to_fixpoint plan)
  | Fixed_point (algo, p, x) -> Fixed_point (algo, conj p am, push am x)
  | p -> map_children (push am) p

let rec push_selection = function
  | Select (f, x) ->
      let am, residual = Filter.decompose f in
      let x = push_selection x in
      if am = Filter.True then Select (f, x)
      else if residual = Filter.True then Select (am, push am x)
      else Select (residual, Select (am, push am x))
  | p -> map_children push_selection p

let optimize_fully plan = push_selection (use_reduction (power_to_fixpoint plan))

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  (* Intrusive doubly-linked recency list; [head] is most recent, [tail]
     least recent.  Options keep the code total at the cost of one word
     per link — fine at cache sizes. *)
  type 'v node = {
    key : K.t;
    mutable value : 'v;
    mutable prev : 'v node option;  (* towards head *)
    mutable next : 'v node option;  (* towards tail *)
  }

  type 'v t = {
    capacity : int;
    table : 'v node H.t;
    mutable head : 'v node option;
    mutable tail : 'v node option;
    mutable generation : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable invalidations : int;
  }

  let create ?(generation = 0) ~capacity () =
    {
      capacity;
      (* Start small and let the table grow: a join cache builds one of
         these per (stripe, document generation), and most of them are
         retired long before they fill. *)
      table = H.create 16;
      head = None;
      tail = None;
      generation;
      hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
    }

  let capacity t = t.capacity

  let length t = H.length t.table

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.prev <- None;
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t n =
    match n.prev with
    | None -> () (* already most recent *)
    | Some _ ->
        unlink t n;
        push_front t n

  let find t k =
    match H.find_opt t.table k with
    | Some n ->
        t.hits <- t.hits + 1;
        touch t n;
        Some n.value
    | None ->
        t.misses <- t.misses + 1;
        None

  let mem t k = H.mem t.table k

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some n ->
        unlink t n;
        H.remove t.table n.key;
        t.evictions <- t.evictions + 1

  let add t k v =
    if t.capacity > 0 then
      match H.find_opt t.table k with
      | Some n ->
          n.value <- v;
          touch t n
      | None ->
          if H.length t.table >= t.capacity then evict_lru t;
          let n = { key = k; value = v; prev = None; next = None } in
          H.replace t.table k n;
          push_front t n

  let clear t =
    H.reset t.table;
    t.head <- None;
    t.tail <- None

  let generation t = t.generation

  let set_generation t g =
    if g <> t.generation then begin
      (* Adopting a generation on an empty cache (notably the very first
         use) discards nothing and is not an invalidation event. *)
      if H.length t.table > 0 then t.invalidations <- t.invalidations + 1;
      clear t;
      t.generation <- g
    end

  let hits t = t.hits

  let misses t = t.misses

  let evictions t = t.evictions

  let invalidations t = t.invalidations
end

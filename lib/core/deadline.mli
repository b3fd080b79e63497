(** Cooperative cancellation deadlines for query evaluation.

    A deadline is an absolute instant on a {!Xfrag_obs.Clock.t}; the
    evaluation loops ({!Fixed_point} rounds, {!Powerset} subset
    enumeration, {!Join.pairwise} rows) call {!check} at allocation-free
    loop boundaries and abort with {!Expired} once the instant has
    passed.  This is what lets a server bound a pathological ⋈* — the
    powerset join is exponential in the worst case (the very reason the
    paper's Theorems 1–3 prune it), so a resident process must also
    bound it in wall-clock rather than trust the algebra.

    {b Placement contract.}  [check] is only ever called {e between}
    whole fragment joins, never inside {!Join_cache.find_or_join} — so
    an abort can cut an evaluation short but can never leave a shared
    join cache mid-update (every cached entry is a completed, valid
    join).  The regression test in [test_deadline.ml] relies on this.

    The no-deadline value {!none} reduces [check] to a single integer
    comparison with no clock read, so threading deadlines through the
    hot paths costs nothing when unused. *)

exception Expired
(** Raised by {!check} once the deadline has passed.  Escapes
    {!Eval.exec} / {!Explain.analyze_request}; callers (e.g. the HTTP server's
    408 path) catch it at the request boundary. *)

type t

val none : t
(** Never expires; [check none] is a compare against [max_int]. *)

val after : ?clock:Xfrag_obs.Clock.t -> int -> t
(** [after ns] expires [ns] nanoseconds from now (on [clock], default
    {!Xfrag_obs.Clock.monotonic}).  [ns <= 0] is already expired. *)

val at : ?clock:Xfrag_obs.Clock.t -> int -> t
(** Absolute variant: expires when [clock ()] exceeds the given
    instant (same origin as the clock's). *)

val is_none : t -> bool

val expired : t -> bool
(** Has the instant passed?  Never true for {!none}. *)

val check : t -> unit
(** @raise Expired once {!expired} is true. *)

val remaining_ns : t -> int
(** Nanoseconds left ([max_int] for {!none}, 0 when expired). *)

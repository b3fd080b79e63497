(** A coarse analytical cost model for plans (§5 asks for one as future
    work; this is a deliberately simple instance).

    Costs are abstract units proportional to the number of fragment-join
    operations a plan would perform, driven by estimated operand
    cardinalities:

    - a scan costs its posting-list length;
    - a pairwise join of estimated sizes a and b costs a·b and yields up
      to a·b fragments;
    - a fixed point over a set of estimated size a runs an estimated
      r = min(a, round_cap) rounds of self-joins with a growth cap (the
      output of a fixed point cannot exceed the number of connected
      fragments, which we bound by [set_growth_cap]);
    - a selection costs its input size; its output is input size times a
      per-filter selectivity estimate.

    The model only annotates: EXPLAIN and [xfrag explain] print the
    estimate of each compiled plan, and nothing chooses by it (the
    strategy rules live in {!Eval.compile}).  It does not predict wall
    time. *)

type estimate = { cost : float; cardinality : float }

val selectivity : Filter.t -> float
(** Heuristic fraction of fragments that survive the filter. *)

val estimate : Context.t -> Plan.t -> estimate

val cost : Context.t -> Plan.t -> float

val set_growth_cap : float
(** Cap on the estimated cardinality of any intermediate fragment set. *)

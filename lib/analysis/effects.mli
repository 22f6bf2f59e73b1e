(** Whole-program effect inference over the {!Callgraph}.

    Every binding is seeded with *base* effect classes read off its body
    (and its defining file), then effects propagate transitively along
    call edges to a fixpoint: [effects b = base b ∪ ⋃ effects (callees b)].
    The lattice is the powerset of the six classes below, so the
    fixpoint exists, is unique, and is reached in at most
    [6 × |bindings|] joins — the result is a deterministic function of
    the source tree.

    Base seeding:
    - {!Oracle_probe}: a call edge into the raw [Instance]
      item/profit/weight accessors of [lib/knapsack/instance.ml] (or an
      unresolved [Instance.item]-shaped name), from any file outside the
      instance-construction layers [lib/knapsack] / [lib/workloads];
    - {!Rng_consume}: the bindings of [lib/util/rng.ml], [Random.*], or
      unresolved [Rng.*] names;
    - {!Clock_read}: the bindings of [lib/benchkit/stopwatch.ml],
      [Sys.time], [Unix.gettimeofday]/[Unix.time], [Monotonic_clock.*],
      [Mtime.*], [Bechamel.*];
    - {!Domain_spawn}: unresolved [Domain]/[Atomic]/[Mutex]/[Condition]/
      [Semaphore]/[Thread] uses ([Lk_repro.Domain], the quantile value
      domain, *resolves* and therefore never seeds);
    - {!Mutation}: [:=] / [<-] in the body, or in-place stdlib calls
      ([Hashtbl.replace], [Array.fill], [Buffer.add_*], ...);
    - {!Io}: channel/console/filesystem primitives ([print_*],
      [open_in*], [Printf.printf], [Sys.command], ...).  [Printf.sprintf]
      and friends are pure and never seed.

    One absorption rule encodes the parallel-confinement contract:
    {!Domain_spawn} does not propagate out of [lib/parallel] — calling
    the blessed engine is exactly how the rest of the tree is supposed
    to go multicore, so only *unblessed* spawn chains keep the effect. *)

type effect_class =
  | Oracle_probe
  | Rng_consume
  | Clock_read
  | Domain_spawn
  | Mutation
  | Io

val all : effect_class list
val name : effect_class -> string

type set

val empty : set
val mem : effect_class -> set -> bool
val to_list : set -> effect_class list

type node = {
  file : string;
  binding : string;
  line : int;
  col : int;
  hot : bool;
  refs : Modgraph.occ list;
  callees : string list;
  base : set;  (** effects seeded directly in this binding's body *)
  effects : set;  (** transitive closure at the fixpoint *)
}

type table

(** [infer cg] seeds and propagates to the fixpoint. *)
val infer : Callgraph.t -> table

val nodes : table -> node list
(** Sorted by node id [file ^ "#" ^ binding]. *)

val find : table -> file:string -> binding:string -> node option

(** [witness t ~source ~effect_] — a shortest call chain (as a list of
    ["Module.binding"] display names) from [source] to a binding whose
    *base* effects contain [effect_]; deterministic (BFS over sorted
    adjacency).  Used to print "reaches a clock read via ..." messages. *)
val witness : table -> source:node -> effect_:effect_class -> string list

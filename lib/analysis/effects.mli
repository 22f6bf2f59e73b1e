(** Whole-program effect inference over the {!Callgraph}, and the one
    confinement table.

    Every binding is seeded with *base* effect classes read off its body
    (and its defining file), then effects propagate transitively along
    call edges to a fixpoint: [effects b = base b ∪ ⋃ effects (callees b)].
    The lattice is the powerset of the six classes below, so the
    fixpoint exists, is unique, and is reached in at most
    [6 × |bindings|] joins — the result is a deterministic function of
    the source tree.

    Base seeding:
    - the confinement {!rows}: a use a row charges seeds the row's class,
      if any, and nothing else: {!Rng_consume} for [Random],
      {!Clock_read} for the clocks, {!Domain_spawn} for
      [Domain]/[Atomic]/[Mutex]/..., and {!Oracle_probe} for a raw
      [Instance] item read made in [lib/oracle], the layer whose reads
      are the counted probes;
    - {!Rng_consume}: the bindings of [lib/util/rng.ml], or unresolved
      [Rng.*] names;
    - {!Clock_read}: the bindings of [lib/benchkit/stopwatch.ml], or
      unresolved [Stopwatch.*] names;
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

(** What a row confines: external names, matched on a use no project
    module resolves ([Names ["Domain"]] is [Domain] or any [Domain.x]),
    or the named values, types and fields of one project file, matched
    on a resolved use ([File (f, [])] is any use of [f]) and on an
    unresolved path through [f]'s module name ([Instance.items] under a
    local open). *)
type target = Names of string list | File of string * string list

type row = {
  rule : string;  (** rule id, as in [lint.allow] and [Engine.rules] *)
  target : target;
  home : string list;
      (** directories whose files may use the target; [[]] bans it
          everywhere *)
  seeds : effect_class option;
      (** the class a use seeds ({!Oracle_probe} only in [lib/oracle]) *)
  why : string;  (** the site finding's message after the quoted use *)
}

(** The confinement table: one row per (rule, reason).  A use a row
    charges from a file outside the row's home is a *site* of the row. *)
val rows : row list

type node = {
  file : string;
  binding : string;
  line : int;
  col : int;
  hot : bool;
  refs : Modgraph.occ list;
  callees : string list;
  sites : (Modgraph.occ * row) list;
      (** uses in this binding (for the coarse node, in the file's
          declarations) that are sites, source order *)
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

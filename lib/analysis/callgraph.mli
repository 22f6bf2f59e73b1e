(** Over-approximate cross-module call graph over {!Modgraph} summaries.

    A node is one top-level binding, identified as ["<file>#<name>"]
    (e.g. ["lib/core/tilde.ml#build"]).  Each file also gets a synthetic
    ["<file>#*"] node whose callees are all of the file's bindings: a
    qualified reference that resolves to a file but not to a named
    binding (a submodule value, a shadowed name) falls back to that
    coarse node, so effects are never silently dropped.

    Resolution of a dotted identifier [A.B.c] from file [f]:
    + leading lowercase segments (record projections like
      [inst.Instance.items]) are stripped;
    + the head module is rewritten through [f]'s [module M = Path]
      aliases;
    + a head naming a library ([Lk_util]) resolves the next segment as a
      file module in that library's directory; a head naming a sibling
      module of [f] resolves within [f]'s directory; otherwise each
      top-level [open]ed path is tried the same way, an opened file
      only when it defines the head as a submodule;
    + within the target file, the remaining segments pick a named
      binding if one matches, else the ["#*"] node.

    Unqualified lowercase identifiers resolve to same-file bindings and
    to bindings of [open]ed project modules.  Every occurrence keeps its
    {!use}: the project file its path reached, or, when no project module
    resolves it, the path itself — the effect seeder and the confinement
    sites match those against {!Effects.rows}.  Project names resolve
    first, so [Lk_repro.Domain] (or a sibling [Domain] module) is never
    [Stdlib.Domain]. *)

type use =
  | Project of { file : string; name : string }
      (** the path's module is project file [file]; [name] is the value,
          type or field after it, [""] for a bare module *)
  | External of string
      (** no project module: the path with aliases substituted and any
          [Stdlib.] prefix stripped ([R.int] under [module R = Random]
          is ["Random.int"]) *)

type node = {
  file : string;  (** root-relative, '/'-separated *)
  name : string;  (** binding name, or ["*"] for the coarse file node *)
  line : int;
  col : int;
  hot : bool;
  mutates : bool;
  callees : string list;  (** resolved node ids, sorted, deduped *)
  uses : (Modgraph.occ * use) list;
      (** every body occurrence, source order; for the coarse node, the
          file's declaration occurrences ([Modgraph.summary.decls]) *)
}

type t

val id : file:string -> name:string -> string

val module_of_file : string -> string
(** ["lib/knapsack/instance.ml"] is module ["Instance"]. *)

(** [build ~libmap summaries] — [libmap] maps capitalized library names
    (["Lk_util"]) to directories (["lib/util"]); [summaries] is one
    entry per analyzed [.ml] file. *)
val build :
  libmap:(string * string) list -> (string * Modgraph.summary) list -> t

val nodes : t -> node list
(** Sorted by node id. *)

val find : t -> string -> node option

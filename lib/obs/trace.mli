(** Trace documents: a labelled event stream with a deterministic JSON
    serialization (schema ["lca-knapsack-trace/2"]).

    The header's [argv] holds the arguments (program name excluded) that
    re-create the run: the recording binary, run on [argv] again, writes
    the same file, because the printer is {!Lk_benchkit.Json}'s
    deterministic one.  [bin/trace_tool verify] replays any trace that
    way and compares bytes. *)

type t

val schema : string

(** [make ~label ?argv ?dropped events] — [argv] (default [[]]) is kept
    in order; [dropped] (default 0) records ring-buffer overwrites. *)
val make : label:string -> ?argv:string list -> ?dropped:int -> Event.t list -> t

val label : t -> string
val argv : t -> string list
val dropped : t -> int
val events : t -> Event.t list

val to_json : t -> Lk_benchkit.Json.t
val of_json : Lk_benchkit.Json.t -> (t, string) result
val save : string -> t -> unit

(** [load path] returns every I/O, parse and schema error as [Error],
    naming [path] once ({!Lk_benchkit.Json.load_file}). *)
val load : string -> (t, string) result

(** Event-stream equality (label/argv/dropped excluded). *)
val equal_events : t -> t -> bool

type divergence = { index : int; recorded : Event.t option; replayed : Event.t option }

(** First position where the two event streams differ ([None] fields mean
    one stream ended early). *)
val first_divergence : recorded:t -> replayed:t -> divergence option

(** Sorted (event label, count) summary. *)
val event_histogram : t -> (string * int) list
